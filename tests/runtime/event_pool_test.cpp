// EventPool unit tests (DESIGN.md section 13): the worker pool's wakeup
// protocol in isolation, with hand-written tasks instead of rank programs —
// run-to-completion ordering under a single worker, the kRunningNotified
// lost-wakeup defense, timer-heap expiry, managed-blocking compensation,
// and the executor-selection resolution chain (option > env > threaded).
#include "runtime/event_pool.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

namespace gencoll::runtime {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr auto kNever = steady_clock::time_point::max();

/// Spin-waits `flag` with a bounded budget so a pool bug fails the test
/// instead of hanging the binary past the ctest timeout.
bool await(const std::atomic<bool>& flag, milliseconds budget = milliseconds(5000)) {
  const auto deadline = steady_clock::now() + budget;
  while (!flag.load(std::memory_order_acquire)) {
    if (steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(milliseconds(1));
  }
  return true;
}

/// Appends its id to a shared log on every step; optionally yields once
/// before completing, which must re-queue it BEHIND already-ready peers.
class LogTask final : public EventPool::Task {
 public:
  LogTask(int id, std::vector<int>* log, std::mutex* mu, bool yield_once = false)
      : id_(id), log_(log), mu_(mu), yield_once_(yield_once) {}

  StepResult step() override {
    {
      std::lock_guard<std::mutex> lock(*mu_);
      log_->push_back(id_);
    }
    if (yield_once_) {
      yield_once_ = false;
      return {Status::kYield, kNever};
    }
    return {Status::kDone, kNever};
  }

 private:
  int id_;
  std::vector<int>* log_;
  std::mutex* mu_;
  bool yield_once_;
};

/// Holds the (single) worker hostage until released, so peers submitted
/// after it are all queued before any of them runs.
class GateTask final : public EventPool::Task {
 public:
  explicit GateTask(std::atomic<bool>* release) : release_(release) {}
  StepResult step() override {
    EXPECT_TRUE(await(*release_));
    return {Status::kDone, kNever};
  }

 private:
  std::atomic<bool>* release_;
};

TEST(EventPool, SingleWorkerRunsInSubmitOrderAndYieldGoesToTheBack) {
  std::vector<int> log;
  std::mutex mu;
  std::atomic<bool> release{false};

  EventPool pool(1);
  GateTask gate(&release);
  LogTask t1(1, &log, &mu, /*yield_once=*/true);
  LogTask t2(2, &log, &mu);
  LogTask t3(3, &log, &mu);
  pool.submit(&gate);  // occupies the lone worker while the rest enqueue
  pool.submit(&t1);
  pool.submit(&t2);
  pool.submit(&t3);
  release.store(true, std::memory_order_release);
  pool.wait_all();

  // t1's yield is a fairness point: its second step must run after t2, t3.
  EXPECT_EQ(log, (std::vector<int>{1, 2, 3, 1}));
}

/// A wake() that lands while the task is mid-step must not be lost when the
/// step then parks: kRunning -> kRunningNotified -> re-queued at the park.
class NotifyRaceTask final : public EventPool::Task {
 public:
  StepResult step() override {
    ++steps_;
    if (steps_ == 1) {
      in_step.store(true, std::memory_order_release);
      // Hold the step open until the main thread has issued the wake, so
      // the wake provably arrives in the kRunning window, then park with no
      // deadline: only the notified re-queue can ever run us again.
      EXPECT_TRUE(await(woken));
      return {Status::kPark, kNever};
    }
    return {Status::kDone, kNever};
  }

  std::atomic<bool> in_step{false};
  std::atomic<bool> woken{false};
  int steps_ = 0;
};

TEST(EventPool, WakeDuringStepIsNotLostByThePark) {
  EventPool pool(1);
  NotifyRaceTask task;
  pool.submit(&task);
  ASSERT_TRUE(await(task.in_step));
  pool.wake(&task);
  task.woken.store(true, std::memory_order_release);
  pool.wait_all();  // would hang forever (until ctest kills us) on a lost wake
  EXPECT_EQ(task.steps_, 2);
}

/// Parked with a deadline and never woken: the timer heap must re-queue the
/// task once wake_at passes — this is the receive-deadline path.
class TimerTask final : public EventPool::Task {
 public:
  explicit TimerTask(milliseconds delay) : delay_(delay) {}
  StepResult step() override {
    ++steps_;
    if (steps_ == 1) return {Status::kPark, steady_clock::now() + delay_};
    return {Status::kDone, kNever};
  }
  int steps_ = 0;

 private:
  milliseconds delay_;
};

TEST(EventPool, TimerExpiryRequeuesAParkedTask) {
  EventPool pool(2);
  TimerTask task(milliseconds(60));
  const auto start = steady_clock::now();
  pool.submit(&task);
  pool.wait_all();
  EXPECT_EQ(task.steps_, 2);
  // The second step must not have fired early (small slop for clock grain).
  EXPECT_GE(steady_clock::now() - start, milliseconds(50));
}

TEST(EventPool, WakingAFinishedTaskIsANoOp) {
  std::vector<int> log;
  std::mutex mu;
  EventPool pool(1);
  LogTask task(7, &log, &mu);
  pool.submit(&task);
  pool.wait_all();
  pool.wake(&task);  // must neither crash nor re-run the task
  std::this_thread::sleep_for(milliseconds(20));
  EXPECT_EQ(log, std::vector<int>{7});
}

/// Blocks inside a BlockingGuard until a peer task completes. With a single
/// worker this only terminates if block_begin() spawned a compensation
/// worker to run the peer — the managed-blocking contract.
class BlockingTask final : public EventPool::Task {
 public:
  explicit BlockingTask(std::atomic<bool>* peer_done) : peer_done_(peer_done) {}
  StepResult step() override {
    BlockingGuard guard;  // we are a pool worker: compensation must kick in
    ok_ = await(*peer_done_);
    return {Status::kDone, kNever};
  }
  bool ok_ = false;

 private:
  std::atomic<bool>* peer_done_;
};

class SignalTask final : public EventPool::Task {
 public:
  explicit SignalTask(std::atomic<bool>* flag) : flag_(flag) {}
  StepResult step() override {
    flag_->store(true, std::memory_order_release);
    return {Status::kDone, kNever};
  }

 private:
  std::atomic<bool>* flag_;
};

TEST(EventPool, ManagedBlockingSpawnsACompensationWorker) {
  std::atomic<bool> peer_done{false};
  EventPool pool(1);
  BlockingTask blocker(&peer_done);
  SignalTask peer(&peer_done);
  pool.submit(&blocker);
  pool.submit(&peer);
  pool.wait_all();
  EXPECT_TRUE(blocker.ok_) << "peer never ran: no compensation worker spawned";
  EXPECT_GE(pool.workers_spawned(), 2);
  EXPECT_EQ(pool.worker_target(), 1);
}

TEST(EventPool, BlockingGuardIsANoOpOffThePool) {
  ASSERT_EQ(EventPool::current(), nullptr);
  BlockingGuard guard;  // must not touch any pool
  SUCCEED();
}

/// One half of a ping-pong pair: steps only on its turn, hands the turn to
/// its peer and wakes it; off turn it parks (no deadline), so only the
/// peer's wake can run it again. Every other hit yields instead of
/// returning, so the run mixes all three step outcomes.
class PingPongTask final : public EventPool::Task {
 public:
  PingPongTask(EventPool* pool, std::atomic<int>* turn, int me, int rounds)
      : pool_(pool), turn_(turn), me_(me), rounds_(rounds) {}
  void set_peer(PingPongTask* peer) { peer_ = peer; }

  StepResult step() override {
    if (turn_->load(std::memory_order_acquire) != me_) return {Status::kPark, kNever};
    ++hits_;
    turn_->store(1 - me_, std::memory_order_release);
    pool_->wake(peer_);
    if (hits_ == rounds_) return {Status::kDone, kNever};
    return {hits_ % 2 == 0 ? Status::kYield : Status::kPark, kNever};
  }

 private:
  EventPool* pool_;
  std::atomic<int>* turn_;
  PingPongTask* peer_ = nullptr;
  int me_;
  int rounds_;
  int hits_ = 0;
};

TEST(EventPool, CountersObeyTheirIdentitiesOnAPingPong) {
  constexpr int kRounds = 500;
  // Nobody's turn until both tasks are submitted: a task must not be woken
  // before its submit.
  std::atomic<int> turn{-1};
  EventPool pool(2);
  PingPongTask a(&pool, &turn, 0, kRounds);
  PingPongTask b(&pool, &turn, 1, kRounds);
  a.set_peer(&b);
  b.set_peer(&a);
  pool.submit(&a);
  pool.submit(&b);
  turn.store(0, std::memory_order_release);
  pool.wake(&a);
  pool.wait_all();

  const EventPool::Counters c = pool.counters();
  // Every step ends in exactly one of done, yield or park.
  EXPECT_EQ(c.steps, c.completions + c.yields + c.parks);
  EXPECT_EQ(c.completions, 2u);
  // Every park ends in exactly one re-queue (a wake, or a notified park).
  EXPECT_EQ(c.wake_enqueues, c.parks);
  EXPECT_GE(c.steps, 2u * kRounds);
  EXPECT_GT(c.yields, 0u);
  EXPECT_GT(c.parks, 0u);
  EXPECT_EQ(c.timer_pushes, 0u);  // no step asked for a deadline
  EXPECT_EQ(c.compensation_spawns, 0u);
}

/// Parks `parks` times with the same deadline, each time woken by a
/// helper thread; completes on the step after that.
class SameDeadlineTask final : public EventPool::Task {
 public:
  SameDeadlineTask(int parks, steady_clock::time_point deadline)
      : parks_(parks), deadline_(deadline) {}
  StepResult step() override {
    if (steps_.fetch_add(1) < parks_) return {Status::kPark, deadline_};
    return {Status::kDone, kNever};
  }
  std::atomic<int> steps_{0};

 private:
  int parks_;
  steady_clock::time_point deadline_;
};

TEST(EventPool, ARepeatedDeadlinePushesOneTimerEntry) {
  // A receive that parks many times keeps its deadline; only the first park
  // needs a heap entry, the rest are covered by it.
  constexpr int kParks = 5;
  EventPool pool(2);
  SameDeadlineTask task(kParks, steady_clock::now() + std::chrono::seconds(60));
  pool.submit(&task);
  std::atomic<bool> done{false};
  std::thread waker([&] {
    while (!done.load()) {
      pool.wake(&task);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });
  pool.wait_all();
  done.store(true);
  waker.join();
  const EventPool::Counters c = pool.counters();
  EXPECT_EQ(task.steps_.load(), kParks + 1);
  EXPECT_EQ(c.parks, static_cast<std::uint64_t>(kParks));
  EXPECT_EQ(c.timer_pushes, 1u);
}

// ---------------------------------------------------------------------------
// Executor selection: explicit option > GENCOLL_EXECUTOR > kThreaded.
// ---------------------------------------------------------------------------

TEST(ExecutorSelect, ParsesKnownNamesCaseInsensitively) {
  EXPECT_EQ(parse_executor("event"), ExecutorKind::kEvent);
  EXPECT_EQ(parse_executor("EVENT"), ExecutorKind::kEvent);
  EXPECT_EQ(parse_executor("threaded"), ExecutorKind::kThreaded);
  EXPECT_EQ(parse_executor("Threaded"), ExecutorKind::kThreaded);
  EXPECT_EQ(parse_executor("bogus"), std::nullopt);
  EXPECT_EQ(parse_executor(""), std::nullopt);
}

TEST(ExecutorSelect, ResolutionChainHonorsOptionThenEnv) {
  ASSERT_EQ(unsetenv("GENCOLL_EXECUTOR"), 0);
  EXPECT_EQ(resolve_executor(std::nullopt), ExecutorKind::kThreaded);
  EXPECT_EQ(resolve_executor(ExecutorKind::kEvent), ExecutorKind::kEvent);

  ASSERT_EQ(setenv("GENCOLL_EXECUTOR", "event", 1), 0);
  EXPECT_EQ(resolve_executor(std::nullopt), ExecutorKind::kEvent);
  // The explicit option always beats the environment.
  EXPECT_EQ(resolve_executor(ExecutorKind::kThreaded), ExecutorKind::kThreaded);

  ASSERT_EQ(setenv("GENCOLL_EXECUTOR", "bogus", 1), 0);
  EXPECT_EQ(resolve_executor(std::nullopt), ExecutorKind::kThreaded);
  ASSERT_EQ(unsetenv("GENCOLL_EXECUTOR"), 0);
}

}  // namespace
}  // namespace gencoll::runtime
