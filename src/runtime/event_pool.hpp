// EventPool: the worker pool behind the event-driven schedule executor
// (core/event_exec.hpp, DESIGN.md section 13).
//
// The threaded engine burns one OS thread per rank, which caps realistic
// executions near core count. The event engine instead compiles each rank
// into a resumable Task: a worker runs the task's step() until it completes
// or *would block* (a receive with nothing deliverable), at which point the
// task parks and the worker moves on. Mailbox posts and interrupts call the
// task's wakeup hook, which re-queues it; a timer heap re-queues parked
// tasks when their receive deadline (or an injected deliver_at delay)
// expires. ~hardware_concurrency workers therefore multiplex thousands of
// rank tasks.
//
// Task states (one atomic per task; every transition is an atomic RMW or a
// store by the task's current owner, so wake() and the worker that runs the
// task share no lock):
//
//   kIdle ──wake()──▶ kQueued ──worker pops──▶ kRunning ──step() parks──▶ kIdle
//                                                │   ▲
//                                     wake() mid-run  └─ step() yields ─▶ kQueued
//                                                ▼
//                                        kRunningNotified ── park attempt ─▶ kQueued
//
// wake() CASes kIdle→kQueued (and enqueues) or kRunning→kRunningNotified
// (and does not). A park CASes kRunning→kIdle; when that fails the task was
// notified mid-step and is re-queued instead — the leg that closes the
// lost-wakeup race between a task's final empty poll and its park. Every
// wake is a release RMW (a queued or notified task gets its state re-stored)
// and every run starts with an acquire exchange, so what a waker published
// before waking is visible to the run that follows it.
//
// Run queues: each worker owns a FIFO. A task woken on a worker thread goes
// to that worker's queue (the receiver runs where its message was written);
// other threads place tasks round-robin; a worker whose queue is empty
// steals the oldest task of another. A worker sleeps on the condvar only
// after announcing itself in sleepers_ and re-checking every queue, and an
// enqueue notifies only when sleepers_ is non-zero; both sides use seq_cst,
// so either the sleeper sees the task or the enqueuer sees the sleeper.
//
// Timers: each task records its earliest live timer entry, and a park
// pushes a heap entry only when its wake_at is earlier. A receive deadline
// therefore costs one heap entry per wait, not one per park. An entry that
// fires wakes its task only if it is still that task's earliest entry;
// later ones are stale and are dropped. An early fire is a harmless
// spurious wake (the task re-polls and re-parks, pushing its new deadline).
//
// Managed blocking: control-plane waits whose duration depends on *peers*
// (barrier, survivor agreement, commit rendezvous, shm seqlock waits) cannot
// park — they sit inside foreign mutex/condvar protocols. A BlockingGuard
// around such a wait tells the pool a worker is about to stall; the pool
// spawns a compensation worker when the unblocked count would drop below
// target, so parked tasks keep draining. Thread count is bounded by
// target + live tasks — the same order as the threaded engine, and only
// reached when every task blocks at once (e.g. a commit rendezvous at small
// p); steady-state collectives never block and stay at ~target threads.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <queue>
#include <string_view>
#include <thread>
#include <vector>

namespace gencoll::runtime {

/// Which engine executes a schedule. kThreaded: one OS thread per rank (the
/// reference implementation). kEvent: rank state machines over EventPool.
enum class ExecutorKind { kThreaded, kEvent };

/// "threaded" / "event" (case insensitive) or nullopt.
std::optional<ExecutorKind> parse_executor(std::string_view value);

/// Resolution chain: explicit option > GENCOLL_EXECUTOR environment variable
/// ("threaded"/"event"; anything else warns once and is ignored) > kThreaded.
ExecutorKind resolve_executor(std::optional<ExecutorKind> option);

class EventPool {
 public:
  /// A resumable unit of work. step() runs to completion or to the first
  /// would-block point; it must never block on another task's progress
  /// (peer-dependent waits go through BlockingGuard instead) and must not
  /// throw — failures are the task's own business to record.
  class Task {
   public:
    enum class Status {
      kDone,   ///< finished; never stepped again
      kYield,  ///< made progress, more to do: re-queue behind peers (fairness)
      kPark,   ///< would block: sleep until wake() or wake_at, then re-queue
    };
    struct StepResult {
      Status status = Status::kDone;
      /// kPark: latest instant the task must be re-queued anyway (receive
      /// deadline / injected deliver_at). time_point::max() = wake() only.
      std::chrono::steady_clock::time_point wake_at =
          std::chrono::steady_clock::time_point::max();
    };
    virtual ~Task() = default;
    virtual StepResult step() = 0;

   private:
    friend class EventPool;
    enum class State { kIdle, kQueued, kRunning, kRunningNotified, kDone };
    std::atomic<State> state_{State::kIdle};
    /// when of this task's earliest live timer entry (steady_clock ticks;
    /// max = none). Written under the pool's timer mutex.
    std::atomic<std::chrono::steady_clock::rep> timer_at_{
        std::chrono::steady_clock::time_point::max().time_since_epoch().count()};
  };

  /// Always-on activity counters, summed over workers on read (relaxed, so
  /// exact only once the pool is quiescent). Once every task is done:
  /// steps == completions + yields + parks, completions == tasks submitted,
  /// and wake_enqueues == parks (each park ends in exactly one re-queue).
  struct Counters {
    std::uint64_t steps = 0;          ///< step() calls
    std::uint64_t completions = 0;    ///< steps that returned kDone
    std::uint64_t yields = 0;         ///< steps that returned kYield
    std::uint64_t parks = 0;          ///< steps that returned kPark
    std::uint64_t wake_enqueues = 0;  ///< parked tasks re-queued (wake, timer, notified park)
    std::uint64_t steals = 0;         ///< tasks a worker took from another's queue
    std::uint64_t sleeps = 0;         ///< condvar waits of idle workers
    std::uint64_t timer_pushes = 0;   ///< timer heap entries pushed
    std::uint64_t compensation_spawns = 0;  ///< workers added by block_begin()
  };

  /// `workers` <= 0 resolves the default (GENCOLL_EVENT_WORKERS, else
  /// hardware_concurrency). Workers are spawned immediately.
  explicit EventPool(int workers = 0);
  ~EventPool();
  EventPool(const EventPool&) = delete;
  EventPool& operator=(const EventPool&) = delete;

  /// Register `task` and queue it for its first step. The task must outlive
  /// the pool (or at least every wake() that could still reference it), and
  /// must not be woken before it is submitted.
  void submit(Task* task);

  /// Re-queue a parked task; safe from any thread, any task state (waking a
  /// queued, running, or finished task is a no-op / a deferred re-queue).
  void wake(Task* task);

  /// Block the calling (non-worker) thread until every submitted task
  /// returned kDone.
  void wait_all();

  /// Managed blocking (see BlockingGuard): a worker is entering / leaving a
  /// peer-dependent blocking wait.
  void block_begin();
  void block_end();

  /// The pool the calling thread is a worker of, nullptr otherwise. Lets
  /// BlockingGuard no-op on the threaded engine's rank threads.
  static EventPool* current();

  /// Resolved worker target (compensation can grow the spawned count).
  [[nodiscard]] int worker_target() const { return target_; }
  [[nodiscard]] int workers_spawned() const;

  /// GENCOLL_EVENT_WORKERS > std::thread::hardware_concurrency() > 4.
  static int default_workers();

  [[nodiscard]] Counters counters() const;

 private:
  using Clock = std::chrono::steady_clock;
  static constexpr Clock::rep kNoTimer = Clock::time_point::max().time_since_epoch().count();

  struct TimerEntry {
    Clock::rep when;
    Task* task;
    bool operator>(const TimerEntry& o) const { return when > o.when; }
  };
  /// One worker's FIFO. `size` mirrors tasks.size() so sleepers and
  /// stealers can skip an empty queue without taking its lock.
  struct alignas(64) RunQueue {
    std::mutex mu;
    std::deque<Task*> tasks;
    std::atomic<std::size_t> size{0};
  };
  /// Per-thread counter slot: one per worker index, plus a shared slot for
  /// compensation workers and non-worker threads.
  struct alignas(64) CounterSlot {
    std::atomic<std::uint64_t> steps{0}, completions{0}, yields{0}, parks{0},
        wake_enqueues{0}, steals{0}, sleeps{0}, timer_pushes{0},
        compensation_spawns{0};
  };

  void worker_loop(int index);
  void enqueue(Task* task);
  Task* pop(int index);
  void sleep();
  bool any_queued() const;
  void fire_due_timers();
  void push_timer(Task* task, Clock::time_point wake_at);
  void spawn_worker_locked(int index);
  CounterSlot& slot();

  std::vector<RunQueue> queues_;      ///< one per target worker, never resized
  std::vector<CounterSlot> slots_;    ///< target_ + 1
  std::atomic<unsigned> next_queue_{0};  ///< round-robin for non-worker enqueues

  std::mutex sleep_mu_;
  std::condition_variable work_cv_;   ///< idle workers wait for tasks / timers
  std::atomic<int> sleepers_{0};

  std::mutex timer_mu_;
  std::priority_queue<TimerEntry, std::vector<TimerEntry>, std::greater<>>
      timers_;                        ///< guarded by timer_mu_
  std::atomic<Clock::rep> next_timer_{kNoTimer};  ///< heap top, or kNoTimer

  std::atomic<int> live_tasks_{0};
  std::mutex done_mu_;
  std::condition_variable done_cv_;   ///< wait_all() waits for live_tasks_ == 0

  mutable std::mutex spawn_mu_;       ///< workers_, blocked_
  std::vector<std::thread> workers_;
  int blocked_ = 0;
  int target_;
  std::atomic<bool> stop_{false};
};

/// RAII wrapper for a peer-dependent blocking wait on (possibly) a pool
/// worker thread: tells the pool to compensate while this thread stalls.
/// A no-op on non-worker threads, so the blocking call sites in the runtime
/// (barrier, membership agreement/commit, shm seqlock waits, reliable-send
/// ack waits) behave identically under the threaded engine.
class BlockingGuard {
 public:
  BlockingGuard() : pool_(EventPool::current()) {
    if (pool_ != nullptr) pool_->block_begin();
  }
  ~BlockingGuard() {
    if (pool_ != nullptr) pool_->block_end();
  }
  BlockingGuard(const BlockingGuard&) = delete;
  BlockingGuard& operator=(const BlockingGuard&) = delete;

 private:
  EventPool* pool_;
};

}  // namespace gencoll::runtime
