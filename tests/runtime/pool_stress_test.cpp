// Concurrency stress for the event engine's two message-path structures,
// built into test_runtime so the sanitizer legs (TSan included) run them:
//
//   * EventPool: hundreds of tasks that park, yield and complete on four
//     workers while outside threads issue wake storms, plus single wakes,
//     one per consumed event, timed to race the last worker going to sleep.
//     A lost wake-up leaves a task parked with work pending; each test waits
//     with its own deadline (well inside the binary's ctest TIMEOUT) and
//     fails instead of hanging.
//   * BufferPool: buffers acquired on one thread and released on another,
//     so storage crosses freelist shards; the statistics must stay exact.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "runtime/buffer_pool.hpp"
#include "runtime/event_pool.hpp"

namespace gencoll::runtime {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

constexpr auto kNever = steady_clock::time_point::max();
constexpr auto kBudget = std::chrono::seconds(60);

/// Consumes events posted to it by outside threads: each step takes what
/// is pending, then completes once `target` events were consumed, else
/// yields (every third step) or parks. With `timed_parks`, about one park in
/// five carries a 1 ms deadline so timer wakes mix with explicit ones; that
/// timer also rescues a lost wake-up, so a test that must see every lost
/// wake parks without one. With `max_work_ns` > 0, each step spins a
/// varying time below it after taking its events, so a post that follows
/// the consumption lands anywhere from mid-step to after the park.
class ConsumerTask final : public EventPool::Task {
 public:
  ConsumerTask(int id, int target, bool timed_parks, int max_work_ns = 0)
      : id_(id), target_(target), timed_parks_(timed_parks),
        max_work_ns_(max_work_ns) {}

  /// Producer side: one more event, then the wake-up.
  void post(EventPool& pool) {
    pending_.fetch_add(1, std::memory_order_release);
    pool.wake(this);
  }

  StepResult step() override {
    const int consumed = consumed_.load(std::memory_order_relaxed) +
                         pending_.exchange(0, std::memory_order_acq_rel);
    consumed_.store(consumed, std::memory_order_release);
    ++steps_;
    if (max_work_ns_ > 0) {
      const auto until = steady_clock::now() +
                         std::chrono::nanoseconds((steps_ * 7919) % max_work_ns_);
      while (steady_clock::now() < until) {
      }
    }
    if (consumed >= target_) {
      finished_.store(true, std::memory_order_release);
      return {Status::kDone, kNever};
    }
    if (steps_ % 3 == 0) return {Status::kYield, kNever};
    if (timed_parks_ && (steps_ + id_) % 5 == 0) {
      return {Status::kPark, steady_clock::now() + milliseconds(1)};
    }
    return {Status::kPark, kNever};
  }

  [[nodiscard]] bool finished() const {
    return finished_.load(std::memory_order_acquire);
  }
  [[nodiscard]] int consumed() const {
    return consumed_.load(std::memory_order_acquire);
  }

 private:
  std::atomic<int> pending_{0};
  std::atomic<int> consumed_{0};
  std::atomic<bool> finished_{false};
  int id_;
  int target_;
  bool timed_parks_;
  int max_work_ns_;
  int steps_ = 0;
};

/// Waits for every task to finish, bounded by kBudget; true on success.
bool await_all(const std::vector<std::unique_ptr<ConsumerTask>>& tasks) {
  const auto deadline = steady_clock::now() + kBudget;
  for (const auto& t : tasks) {
    while (!t->finished()) {
      if (steady_clock::now() > deadline) return false;
      std::this_thread::sleep_for(milliseconds(1));
    }
  }
  return true;
}

// Detects a lost wake-up only when it strands a task's last events: any
// later post wakes a worker, which then runs whatever is queued, and the
// 1 ms timer parks rescue a task too. The single-wake test below checks
// every wake.
TEST(EventPoolStress, WakeStormsFromOutsideThreadsLoseNoWakeup) {
  constexpr int kTasks = 400;
  constexpr int kProducers = 3;
  constexpr int kEventsPerProducer = 40;
  std::vector<std::unique_ptr<ConsumerTask>> tasks;
  for (int i = 0; i < kTasks; ++i) {
    tasks.push_back(
        std::make_unique<ConsumerTask>(i, kProducers * kEventsPerProducer,
                                       /*timed_parks=*/true));
  }
  {
    EventPool pool(4);
    for (auto& t : tasks) pool.submit(t.get());
    std::vector<std::thread> producers;
    for (int w = 0; w < kProducers; ++w) {
      producers.emplace_back([&, w] {
        for (int e = 0; e < kEventsPerProducer; ++e) {
          // Each producer walks the tasks in its own order.
          for (int i = 0; i < kTasks; ++i) {
            tasks[static_cast<std::size_t>((i * (w + 1) + e) % kTasks)]->post(pool);
          }
          if (e % 8 == 0) std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      });
    }
    for (auto& th : producers) th.join();
    ASSERT_TRUE(await_all(tasks)) << "a task never consumed its events: lost wake-up";
    pool.wait_all();
    const EventPool::Counters c = pool.counters();
    EXPECT_EQ(c.completions, static_cast<std::uint64_t>(kTasks));
    EXPECT_EQ(c.steps, c.completions + c.yields + c.parks);
    EXPECT_EQ(c.wake_enqueues, c.parks);
    EXPECT_LE(pool.workers_spawned(), 4);  // stealing never adds threads
  }
}

/// One task, many rounds, each a chance to see a lost wake-up: a round
/// waits until the task has consumed the previous event, spins a varying
/// time and posts one event. The task spins a varying time of its own
/// before it parks (never with a deadline, and nothing else wakes it), so
/// the wake lands mid-step, against the park, or as the last worker
/// announces itself and re-checks the queues before sleeping. Two poster
/// threads take alternate rounds: a woken worker often runs on the CPU of
/// the thread that woke it, which then cannot watch the step; the other
/// poster can.
void race_single_wakes(int workers) {
  constexpr int kRounds = 3000;
  std::vector<std::unique_ptr<ConsumerTask>> one;
  one.push_back(std::make_unique<ConsumerTask>(0, kRounds, /*timed_parks=*/false,
                                               /*max_work_ns=*/2000));
  ConsumerTask& task = *one.front();
  {
    EventPool pool(workers);
    pool.submit(&task);
    const auto deadline = steady_clock::now() + kBudget;
    std::atomic<int> lost_round{-1};
    std::vector<std::thread> posters;
    for (int t = 0; t < 2; ++t) {
      posters.emplace_back([&, t] {
        for (int round = t; round < kRounds; round += 2) {
          while (task.consumed() < round) {
            if (lost_round.load() >= 0) return;
            if (steady_clock::now() > deadline) {
              lost_round.store(round);
              return;
            }
            std::this_thread::yield();  // lets a worker sharing this CPU run
          }
          const auto spin_until =
              steady_clock::now() + std::chrono::nanoseconds((round * 7919) % 5000);
          while (steady_clock::now() < spin_until) {
          }
          task.post(pool);
        }
      });
    }
    for (auto& th : posters) th.join();
    ASSERT_EQ(lost_round.load(), -1)
        << "event " << lost_round.load() << " was never consumed: lost wake-up";
    ASSERT_TRUE(await_all(one)) << "the last event was never consumed: lost wake-up";
    pool.wait_all();
    EXPECT_GT(pool.counters().sleeps, 0u);
  }
}

TEST(EventPoolStress, SingleWakesRaceTheLastWorkerGoingToSleep) {
  // With one worker every sleep is the last worker's; with four, the
  // other sleepers usually absorb a wake the last one would lose.
  for (const int workers : {1, 4}) {
    SCOPED_TRACE(workers);
    race_single_wakes(workers);
    if (HasFatalFailure()) return;
  }
}

TEST(BufferPoolShards, CrossThreadHandoffKeepsStatsExact) {
  // Producers acquire, consumers release: every buffer is filed in a shard
  // other than the one it was taken from, and later acquires must find it
  // there before allocating.
  constexpr int kPairs = 4;
  constexpr int kRounds = 500;
  constexpr int kInFlight = 8;
  BufferPool pool;
  std::vector<std::thread> threads;
  for (int pr = 0; pr < kPairs; ++pr) {
    threads.emplace_back([&pool, pr] {
      std::vector<PoolBuffer> batch;
      for (int round = 0; round < kRounds; ++round) {
        batch.clear();
        for (int i = 0; i < kInFlight; ++i) {
          batch.push_back(pool.acquire(std::size_t{300} << ((round + i + pr) % 4)));
          batch.back()[0] = std::byte{1};
        }
        // Hand the batch to a fresh consumer thread, which releases it.
        std::thread consumer([moved = std::move(batch)]() mutable { moved.clear(); });
        consumer.join();
        batch = std::vector<PoolBuffer>();
      }
    });
  }
  for (auto& th : threads) th.join();

  const BufferPoolStats s = pool.stats();
  const std::uint64_t total = std::uint64_t{kPairs} * kRounds * kInFlight;
  EXPECT_EQ(s.acquires, total);
  EXPECT_EQ(s.acquires, s.recycles + s.allocations);
  EXPECT_EQ(s.releases, total);
  EXPECT_EQ(s.outstanding, 0u);
  // Every allocated buffer sits in some shard's freelist now. Peak demand
  // is 32 buffers (8 per class); the bound leaves room for the rare
  // allocation a concurrent, shard-by-shard scan makes while a buffer
  // moves between shards.
  EXPECT_EQ(s.cached_buffers, s.allocations);
  EXPECT_LE(s.allocations, std::uint64_t{kPairs} * kInFlight * 4);
  EXPECT_GT(s.recycles, 0u);
  pool.trim();
  EXPECT_EQ(pool.stats().cached_buffers, 0u);
  EXPECT_EQ(pool.stats().cached_bytes, 0u);
}

}  // namespace
}  // namespace gencoll::runtime
