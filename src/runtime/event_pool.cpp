#include "runtime/event_pool.hpp"

#include <algorithm>
#include <cctype>
#include <string>

#include "util/env.hpp"
#include "util/logging.hpp"

namespace gencoll::runtime {

namespace {

thread_local EventPool* tl_worker_pool = nullptr;
/// Run-queue index of the calling worker of tl_worker_pool; -1 for a
/// compensation worker, which owns no queue.
thread_local int tl_worker_index = -1;

}  // namespace

std::optional<ExecutorKind> parse_executor(std::string_view value) {
  std::string v(value);
  std::transform(v.begin(), v.end(), v.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  if (v == "threaded") return ExecutorKind::kThreaded;
  if (v == "event") return ExecutorKind::kEvent;
  return std::nullopt;
}

ExecutorKind resolve_executor(std::optional<ExecutorKind> option) {
  if (option) return *option;
  if (const auto v = util::env_string("GENCOLL_EXECUTOR")) {
    if (const auto kind = parse_executor(*v)) return *kind;
    GENCOLL_LOG(kWarn) << "GENCOLL_EXECUTOR=\"" << *v
                       << "\" is not \"threaded\" or \"event\"; using threaded";
  }
  return ExecutorKind::kThreaded;
}

int EventPool::default_workers() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::int64_t fallback = hw != 0 ? static_cast<std::int64_t>(hw) : 4;
  return static_cast<int>(
      util::env_int("GENCOLL_EVENT_WORKERS", fallback, 1, 1024));
}

EventPool::EventPool(int workers)
    : queues_(static_cast<std::size_t>(workers > 0 ? workers : default_workers())),
      slots_(queues_.size() + 1),
      target_(static_cast<int>(queues_.size())) {
  std::lock_guard<std::mutex> lock(spawn_mu_);
  workers_.reserve(static_cast<std::size_t>(target_));
  for (int i = 0; i < target_; ++i) spawn_worker_locked(i);
}

EventPool::~EventPool() {
  stop_.store(true);
  {
    std::lock_guard<std::mutex> lock(sleep_mu_);
  }
  work_cv_.notify_all();
  // Compensation can append to workers_ concurrently with (earlier phases of)
  // shutdown, so drain in batches until the vector stays empty.
  for (;;) {
    std::vector<std::thread> batch;
    {
      std::lock_guard<std::mutex> lock(spawn_mu_);
      batch.swap(workers_);
    }
    if (batch.empty()) break;
    for (auto& th : batch) th.join();
  }
}

int EventPool::workers_spawned() const {
  std::lock_guard<std::mutex> lock(spawn_mu_);
  return static_cast<int>(workers_.size());
}

EventPool* EventPool::current() { return tl_worker_pool; }

EventPool::CounterSlot& EventPool::slot() {
  return tl_worker_pool == this && tl_worker_index >= 0
             ? slots_[static_cast<std::size_t>(tl_worker_index)]
             : slots_.back();
}

EventPool::Counters EventPool::counters() const {
  Counters c;
  for (const CounterSlot& s : slots_) {
    c.steps += s.steps.load(std::memory_order_relaxed);
    c.completions += s.completions.load(std::memory_order_relaxed);
    c.yields += s.yields.load(std::memory_order_relaxed);
    c.parks += s.parks.load(std::memory_order_relaxed);
    c.wake_enqueues += s.wake_enqueues.load(std::memory_order_relaxed);
    c.steals += s.steals.load(std::memory_order_relaxed);
    c.sleeps += s.sleeps.load(std::memory_order_relaxed);
    c.timer_pushes += s.timer_pushes.load(std::memory_order_relaxed);
    c.compensation_spawns += s.compensation_spawns.load(std::memory_order_relaxed);
  }
  return c;
}

void EventPool::spawn_worker_locked(int index) {
  workers_.emplace_back([this, index] { worker_loop(index); });
}

void EventPool::submit(Task* task) {
  live_tasks_.fetch_add(1);
  task->state_.store(Task::State::kQueued, std::memory_order_relaxed);
  enqueue(task);
}

void EventPool::enqueue(Task* task) {
  const bool local = tl_worker_pool == this && tl_worker_index >= 0;
  const std::size_t i =
      local ? static_cast<std::size_t>(tl_worker_index)
            : next_queue_.fetch_add(1, std::memory_order_relaxed) % queues_.size();
  RunQueue& q = queues_[i];
  {
    std::lock_guard<std::mutex> lock(q.mu);
    q.tasks.push_back(task);
    q.size.store(q.tasks.size());  // seq_cst: pairs with sleep()'s re-check
  }
  if (sleepers_.load() > 0) {
    { std::lock_guard<std::mutex> lock(sleep_mu_); }
    work_cv_.notify_one();
  }
}

void EventPool::wake(Task* task) {
  using State = Task::State;
  // Every outcome but kDone is a release RMW on state_, and a run begins
  // with an acquire exchange: whatever the waker published before calling
  // (a mailbox post, a cleared timer entry) is visible to the run that
  // follows a wake, even when the wake finds the task already queued. A
  // plain load there would let the run's first poll and the wake's check
  // both read stale values — a lost wake-up.
  State st = task->state_.load(std::memory_order_relaxed);
  for (;;) {
    State next = st;
    switch (st) {
      case State::kIdle:
        next = State::kQueued;
        break;
      case State::kRunning:
        // Mid-run notification (e.g. a message landing between the task's
        // last empty poll and its park): the park sees it and re-queues.
        // Never enqueue a running task — two workers would step it at once.
        next = State::kRunningNotified;
        break;
      case State::kQueued:
      case State::kRunningNotified:
        break;  // already pending: re-store the same state
      case State::kDone:
        return;
    }
    if (task->state_.compare_exchange_weak(st, next, std::memory_order_acq_rel,
                                           std::memory_order_relaxed)) {
      if (st == State::kIdle) {
        slot().wake_enqueues.fetch_add(1, std::memory_order_relaxed);
        enqueue(task);
      }
      return;
    }
    // st reloaded; re-dispatch on the state that won.
  }
}

void EventPool::wait_all() {
  std::unique_lock<std::mutex> lock(done_mu_);
  done_cv_.wait(lock, [this] { return live_tasks_.load() == 0; });
}

void EventPool::block_begin() {
  std::lock_guard<std::mutex> lock(spawn_mu_);
  ++blocked_;
  // Keep the pool live while this worker stalls: if fewer than target_
  // workers remain unblocked, add one. blocked_ <= live_tasks_ (a blocked
  // worker is inside some task's step), so the target_ + live_tasks_ cap
  // never prevents a needed compensation thread.
  const int spawned = static_cast<int>(workers_.size());
  if (!stop_.load() && spawned - blocked_ < target_ &&
      spawned < target_ + live_tasks_.load()) {
    spawn_worker_locked(-1);
    slot().compensation_spawns.fetch_add(1, std::memory_order_relaxed);
  }
}

void EventPool::block_end() {
  std::lock_guard<std::mutex> lock(spawn_mu_);
  --blocked_;
}

EventPool::Task* EventPool::pop(int index) {
  const std::size_t n = queues_.size();
  // Own queue first (compensation workers have none), then steal the oldest
  // task of the next non-empty queue.
  const std::size_t first = index >= 0 ? static_cast<std::size_t>(index) : 0;
  for (std::size_t k = 0; k < n; ++k) {
    RunQueue& q = queues_[(first + k) % n];
    if (q.size.load(std::memory_order_relaxed) == 0) continue;
    std::lock_guard<std::mutex> lock(q.mu);
    if (q.tasks.empty()) continue;
    Task* task = q.tasks.front();
    q.tasks.pop_front();
    q.size.store(q.tasks.size(), std::memory_order_relaxed);
    if (k != 0 || index < 0) {
      slot().steals.fetch_add(1, std::memory_order_relaxed);
    }
    return task;
  }
  return nullptr;
}

bool EventPool::any_queued() const {
  return std::any_of(queues_.begin(), queues_.end(),
                     [](const RunQueue& q) { return q.size.load() > 0; });
}

void EventPool::sleep() {
  std::unique_lock<std::mutex> lock(sleep_mu_);
  // Announce, then re-check (all seq_cst): an enqueue either lands before
  // the re-check and is seen, or reads sleepers_ > 0 and notifies — after
  // this thread is in the wait, since notifying takes sleep_mu_.
  sleepers_.fetch_add(1);
  const Clock::rep next = next_timer_.load();
  if (!stop_.load() && !any_queued()) {
    if (next == kNoTimer) {
      slot().sleeps.fetch_add(1, std::memory_order_relaxed);
      work_cv_.wait(lock);
    } else if (Clock::now().time_since_epoch().count() < next) {
      slot().sleeps.fetch_add(1, std::memory_order_relaxed);
      work_cv_.wait_until(lock, Clock::time_point(Clock::duration(next)));
    }
  }
  sleepers_.fetch_sub(1);
}

void EventPool::push_timer(Task* task, Clock::time_point wake_at) {
  const Clock::rep when = wake_at.time_since_epoch().count();
  // An earlier live entry already re-queues the task in time (early is a
  // spurious wake at worst).
  if (when >= task->timer_at_.load(std::memory_order_relaxed)) return;
  bool new_top = false;
  {
    std::lock_guard<std::mutex> lock(timer_mu_);
    timers_.push(TimerEntry{when, task});
    task->timer_at_.store(when, std::memory_order_relaxed);
    if (timers_.top().task == task && timers_.top().when == when) {
      new_top = true;
      next_timer_.store(when);
    }
  }
  slot().timer_pushes.fetch_add(1, std::memory_order_relaxed);
  // Sleepers wait_until the old heap top; one must re-evaluate.
  if (new_top && sleepers_.load() > 0) {
    { std::lock_guard<std::mutex> lock(sleep_mu_); }
    work_cv_.notify_one();
  }
}

void EventPool::fire_due_timers() {
  std::lock_guard<std::mutex> lock(timer_mu_);
  const Clock::rep now = Clock::now().time_since_epoch().count();
  while (!timers_.empty() && timers_.top().when <= now) {
    const TimerEntry e = timers_.top();
    timers_.pop();
    // Only the task's earliest live entry wakes it; an older, later one was
    // superseded by it. wake() orders the clear before the task's next run,
    // so that run's park sees no live entry and pushes its own.
    if (e.task->timer_at_.load(std::memory_order_relaxed) != e.when) continue;
    e.task->timer_at_.store(kNoTimer, std::memory_order_relaxed);
    wake(e.task);
  }
  next_timer_.store(timers_.empty() ? kNoTimer : timers_.top().when);
}

void EventPool::worker_loop(int index) {
  using State = Task::State;
  tl_worker_pool = this;
  tl_worker_index = index;
  CounterSlot& c = slot();
  while (!stop_.load(std::memory_order_acquire)) {
    if (Clock::now().time_since_epoch().count() >=
        next_timer_.load(std::memory_order_relaxed)) {
      fire_due_timers();
    }
    Task* task = pop(index);
    if (task == nullptr) {
      sleep();
      continue;
    }
    // Acquire RMW: pairs with wake()'s release CAS (see there).
    task->state_.exchange(State::kRunning, std::memory_order_acq_rel);
    c.steps.fetch_add(1, std::memory_order_relaxed);
    const Task::StepResult result = task->step();
    switch (result.status) {
      case Task::Status::kDone:
        c.completions.fetch_add(1, std::memory_order_relaxed);
        task->state_.store(State::kDone, std::memory_order_release);
        if (live_tasks_.fetch_sub(1) == 1) {
          { std::lock_guard<std::mutex> lock(done_mu_); }
          done_cv_.notify_all();
        }
        break;
      case Task::Status::kYield:
        // Any mid-run notification is subsumed by the re-queue. An RMW, so
        // the next run also sees what a mid-run waker published.
        c.yields.fetch_add(1, std::memory_order_relaxed);
        task->state_.exchange(State::kQueued, std::memory_order_acq_rel);
        enqueue(task);
        break;
      case Task::Status::kPark: {
        c.parks.fetch_add(1, std::memory_order_relaxed);
        if (result.wake_at != Clock::time_point::max()) {
          push_timer(task, result.wake_at);
        }
        State expected = State::kRunning;
        if (!task->state_.compare_exchange_strong(expected, State::kIdle,
                                                  std::memory_order_acq_rel)) {
          // kRunningNotified: an event raced the park; run again.
          c.wake_enqueues.fetch_add(1, std::memory_order_relaxed);
          task->state_.exchange(State::kQueued, std::memory_order_acq_rel);
          enqueue(task);
        }
        break;
      }
    }
  }
}

}  // namespace gencoll::runtime
