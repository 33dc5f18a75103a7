// Shared-segment group tests (runtime/shm_group.hpp, ShmTree — the one
// intra-node engine; the suite names keep the header's "ShmGroup" name):
// geometry validation, the one-level small-payload protocol (members
// publish, the leader folds each in rank order, one fan-out) and the
// partitioned concurrent reduction round-tripping on persistent generation
// counters, a multi-round stress designed to surface ordering bugs under
// TSan, and the fault contract — every blocked wait must surface abort
// poison or the receive deadline as a typed FaultError, never a silent
// stall. The chaos suite at the bottom runs hierarchical schedules under
// injected rank crashes, over the mailbox (fault plan) and over the tree.
#include "runtime/shm_group.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

#include "core/executor.hpp"
#include "core/hierarchy.hpp"
#include "core/reference.hpp"
#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "runtime/comm.hpp"
#include "runtime/world.hpp"

namespace gencoll::runtime {
namespace {

using gencoll::FaultError;
using gencoll::FaultKind;
using std::chrono::steady_clock;

TEST(ShmGroup, RejectsBadGeometry) {
  World world(4);
  EXPECT_THROW(world.shm_tree(0, 0), std::invalid_argument);   // empty group
  EXPECT_THROW(world.shm_tree(4, 1), std::invalid_argument);   // past the end
  EXPECT_THROW(world.shm_tree(3, 2), std::invalid_argument);   // 3+2 > 4
  EXPECT_THROW(world.shm_tree(-1, 2), std::invalid_argument);  // bad base
  EXPECT_NO_THROW(world.shm_tree(2, 2));
}

TEST(ShmGroup, SameObjectForEveryMember) {
  World world(8);
  ShmTree& a = world.shm_tree(4, 4);
  ShmTree& b = world.shm_tree(4, 4);
  EXPECT_EQ(&a, &b);
  EXPECT_EQ(a.base_rank(), 4);
  EXPECT_EQ(a.size(), 4);
  EXPECT_NE(&a, &world.shm_tree(0, 4));
  // Distinct geometry over the same ranks is a distinct segment.
  EXPECT_NE(&world.shm_tree(0, 4), &world.shm_tree(0, 8));
}

/// One round of the one-level small-payload protocol on `tree` for group
/// member `rel` (world rank `rank`): every rank publishes (input, result);
/// the leader copies its own input and folds each member's published input
/// in rank order, then fans out once; members wait only on the fan-out and
/// copy the leader's result. With `fan_out` false (a reduce without a root
/// hop) members instead fence on the leader's done counter and keep their
/// own result untouched. Returns this rank's result buffer.
std::vector<std::uint64_t> small_round(ShmTree& tree, int rel, int rank,
                                       const std::vector<std::uint64_t>& mine,
                                       bool fan_out) {
  std::vector<std::uint64_t> result(mine.size(), 0);
  const std::size_t bytes = mine.size() * sizeof(std::uint64_t);
  const std::uint64_t base = tree.done_base(rel);
  const std::uint64_t gen = tree.publish_buffers(
      rel, {reinterpret_cast<const std::byte*>(mine.data()), bytes},
      {reinterpret_cast<std::byte*>(result.data()), bytes});
  if (rel == 0) {
    std::copy(mine.begin(), mine.end(), result.begin());
    for (int m = 1; m < tree.size(); ++m) {
      const ShmTree::Buffers mb = tree.buffers_of(m, gen, rank);
      EXPECT_EQ(mb.src_len, bytes);
      const auto* in = reinterpret_cast<const std::uint64_t*>(mb.src);
      for (std::size_t i = 0; i < result.size(); ++i) result[i] += in[i];
    }
    tree.bump_done(0, seqlock::fragment_target(base, 0));
    if (fan_out) {
      const std::uint64_t seq = tree.fanout_publish();
      tree.await_fanout_acks(seq, rank);
    }
  } else if (fan_out) {
    const ShmTree::Buffers lb = tree.await_fanout(rel, rank);
    EXPECT_EQ(lb.acc_len, bytes);
    std::memcpy(result.data(), lb.acc, bytes);
    tree.ack_fanout(rel);
  } else {
    tree.await_done(0, seqlock::fragment_target(base, 0), rank);
  }
  // Uniform exit commit keeps the counters level across rounds.
  tree.bump_done(rel, seqlock::commit_target(base, 2));
  return result;
}

TEST(ShmGroup, FanInFanOutRoundTripsAcrossRounds) {
  // Counters are monotonic and never reset: several back-to-back exchanges
  // on one segment must each see exactly the data published for that round.
  constexpr int kSize = 4;
  constexpr int kRounds = 5;
  World world(kSize);
  ShmTree& tree = world.shm_tree(0, kSize);

  std::vector<std::thread> threads;
  for (int r = 0; r < kSize; ++r) {
    threads.emplace_back([&, r] {
      std::vector<std::uint64_t> mine(8);
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < mine.size(); ++i) {
          mine[i] = static_cast<std::uint64_t>(1000 * round + 10 * r) + i;
        }
        const auto result = small_round(tree, r, r, mine, /*fan_out=*/true);
        // Every rank checks the reduced value for its round.
        for (std::size_t i = 0; i < result.size(); ++i) {
          std::uint64_t want = 0;
          for (int m = 0; m < kSize; ++m) {
            want += static_cast<std::uint64_t>(1000 * round + 10 * m) + i;
          }
          ASSERT_EQ(result[i], want) << "round " << round << " rank " << r;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(ShmGroupStress, ManyRoundsTwoGroupsStayOrdered) {
  // The TSan target: two independent groups hammer publish/fold/fan-out
  // cycles back to back, alternating the fan-out fence with the done-counter
  // fence of a reduce without a root hop. Any missing release/acquire edge
  // on the counters (which guard the plain pointer fields and the payloads)
  // shows up as a data race or a cross-round value leak.
  constexpr int kGroup = 3;
  constexpr int kGroups = 2;
  constexpr int kRanks = kGroup * kGroups;
#if defined(__SANITIZE_THREAD__)
  constexpr int kRounds = 60;  // GCC TSan
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
  constexpr int kRounds = 60;  // Clang TSan
#else
  constexpr int kRounds = 400;
#endif
#else
  constexpr int kRounds = 400;
#endif
  World world(kRanks);

  std::vector<std::thread> threads;
  for (int rank = 0; rank < kRanks; ++rank) {
    threads.emplace_back([&, rank] {
      const int group = rank / kGroup;
      const int member = rank % kGroup;
      ShmTree& tree = world.shm_tree(group * kGroup, kGroup);
      std::vector<std::uint64_t> mine(1);
      for (int round = 0; round < kRounds; ++round) {
        mine[0] = static_cast<std::uint64_t>(round) * 100 +
                  static_cast<std::uint64_t>(rank);
        const bool fan_out = round % 3 != 2;
        const auto out = small_round(tree, member, rank, mine, fan_out);
        if (!fan_out && member != 0) {
          ASSERT_EQ(out[0], 0u) << "round " << round << " rank " << rank;
          continue;
        }
        std::uint64_t want = 0;
        for (int m = 0; m < kGroup; ++m) {
          want += static_cast<std::uint64_t>(round) * 100 +
                  static_cast<std::uint64_t>(group * kGroup + m);
        }
        ASSERT_EQ(out[0], want) << "round " << round << " rank " << rank;
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(ShmTree, PartitionedConcurrentReduceRoundTrips) {
  // The multi-level control plane end to end, several rounds on monotonic
  // counters: every rank publishes (src, acc); members 1..s-1 concurrently
  // fold disjoint chunks of every rank's src into the leader's accumulator
  // (the partitioned concurrent reduction the level builder emits), gate on
  // seqlock::fragment_target, and the result fans out single-copy from the
  // leader's published buffer.
  constexpr int kSize = 4;
  constexpr int kRounds = 5;
  constexpr std::size_t kElems = 10;  // not a multiple of the 3 chunks
  World world(kSize);
  ShmTree& tree = world.shm_tree(0, kSize);

  std::vector<std::thread> threads;
  for (int r = 0; r < kSize; ++r) {
    threads.emplace_back([&, r] {
      std::vector<std::uint64_t> src(kElems);
      std::vector<std::uint64_t> acc(kElems);
      for (int round = 0; round < kRounds; ++round) {
        for (std::size_t i = 0; i < kElems; ++i) {
          src[i] = static_cast<std::uint64_t>(1000 * round + 10 * r) + i;
        }
        if (r == 0) acc = src;  // leader primes its accumulator
        const std::uint64_t base = tree.done_base(r);
        const std::uint64_t gen = tree.publish_buffers(
            r,
            {reinterpret_cast<const std::byte*>(src.data()),
             kElems * sizeof(std::uint64_t)},
            {reinterpret_cast<std::byte*>(acc.data()),
             kElems * sizeof(std::uint64_t)});
        if (r != 0) {
          // Member r owns chunk r-1 of kSize-1: fold that chunk of every
          // rank's src (leader's already primed) into the leader's acc.
          const auto parts = static_cast<std::size_t>(kSize - 1);
          const auto idx = static_cast<std::size_t>(r - 1);
          const std::size_t e0 = seqlock::chunk_begin(idx, parts, kElems);
          const std::size_t e1 = seqlock::chunk_end(idx, parts, kElems);
          const ShmTree::Buffers leader = tree.buffers_of(0, gen, r);
          auto* out = reinterpret_cast<std::uint64_t*>(leader.acc);
          for (int peer = 1; peer < kSize; ++peer) {
            const ShmTree::Buffers pb = tree.buffers_of(peer, gen, r);
            const auto* in = reinterpret_cast<const std::uint64_t*>(pb.src);
            for (std::size_t i = e0; i < e1; ++i) out[i] += in[i];
          }
          tree.bump_done(r, seqlock::fragment_target(base, 0));
          tree.await_fanout(r, r);
          const ShmTree::Buffers pub = tree.buffers_of(0, gen, r);
          std::memcpy(acc.data(), pub.acc, kElems * sizeof(std::uint64_t));
          tree.ack_fanout(r);
          // Exit fence: peers read this member's src until their own fold
          // completes — nobody may republish before every sibling is done.
          for (int q = 1; q < kSize; ++q) {
            if (q != r) tree.await_done(q, seqlock::fragment_target(base, 0), r);
          }
        } else {
          for (int m = 1; m < kSize; ++m) {
            tree.await_done(m, seqlock::fragment_target(base, 0), r);
          }
          const std::uint64_t seq = tree.fanout_publish();
          tree.await_fanout_acks(seq, r);
        }
        // Uniform exit commit keeps the counters level across rounds.
        tree.bump_done(r, seqlock::commit_target(base, 2));
        for (std::size_t i = 0; i < kElems; ++i) {
          std::uint64_t want = 0;
          for (int m = 0; m < kSize; ++m) {
            want += static_cast<std::uint64_t>(1000 * round + 10 * m) + i;
          }
          ASSERT_EQ(acc[i], want) << "round " << round << " rank " << r;
        }
      }
    });
  }
  for (auto& t : threads) t.join();
}

TEST(ShmGroupFault, AbortWakesBlockedWaiter) {
  WorldOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  World world(2, options);
  ShmTree& tree = world.shm_tree(0, 2);

  const auto start = steady_clock::now();
  std::thread poisoner([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    world.abort(1, "member died mid-phase");
  });
  try {
    (void)tree.buffers_of(1, 1, 0);  // member never publishes
    FAIL() << "buffers_of returned without a publication";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kAborted);
  }
  poisoner.join();
  // Fail-fast: nowhere near the 30 s receive deadline.
  EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(10));
}

TEST(ShmGroupFault, DeadlineSurfacesAsTypedTimeout) {
  WorldOptions options;
  options.recv_timeout = std::chrono::milliseconds(100);
  World world(2, options);
  ShmTree& tree = world.shm_tree(0, 2);
  try {
    (void)tree.buffers_of(1, 1, 0);
    FAIL() << "buffers_of returned without a publication";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kTimeout);
    EXPECT_EQ(e.rank(), 0);
  }
}

TEST(ShmGroupFault, RetractWaitsForAPeerStillReading) {
  // The leader was woken out of a fence and retracts while a member is
  // still between taking the leader's buffers and its exit commit: the
  // retraction must not return (and the leader's buffers must not go away)
  // before that member is done with them.
  World world(2);
  ShmTree& tree = world.shm_tree(0, 2);
  std::vector<std::byte> in(64), out(64);
  const std::uint64_t base = tree.done_base(0);
  const std::uint64_t exit_done = seqlock::commit_target(base, 2);
  const std::uint64_t gen = tree.publish_buffers(0, in, out);
  ASSERT_EQ(tree.publish_buffers(1, in, out), gen);
  const ShmTree::Buffers lb = tree.buffers_of(0, gen, 1);  // reading now
  EXPECT_EQ(lb.acc, out.data());

  std::atomic<bool> retracted{false};
  std::thread leader([&] {
    tree.retract(0, gen, exit_done);
    retracted.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(retracted.load()) << "retract returned under a live reader";
  tree.bump_done(1, exit_done);  // the member leaves normally
  leader.join();
  EXPECT_TRUE(retracted.load());
}

TEST(ShmGroupFault, RetractedBuffersAreNeverTaken) {
  // A peer that publishes only after the owner retracted must not take the
  // retracted pointers, neither as a publication nor as the fan-out; the
  // owner does not wait for it.
  World world(2);
  ShmTree& tree = world.shm_tree(0, 2);
  std::vector<std::byte> in(64), out(64);
  const std::uint64_t exit_done =
      seqlock::commit_target(tree.done_base(0), 2);
  const std::uint64_t gen = tree.publish_buffers(0, in, out);
  (void)tree.fanout_publish();
  tree.retract(0, gen, exit_done);  // returns: nobody else has published
  EXPECT_EQ(tree.publish_buffers(1, in, out), gen);
  try {
    (void)tree.buffers_of(0, gen, 1);
    FAIL() << "took the buffers of a retracted rank";
  } catch (const FaultError& e) {
    EXPECT_EQ(e.kind(), FaultKind::kAborted);
  }
  EXPECT_THROW((void)tree.await_fanout(1, 1), FaultError);
}

TEST(ShmGroupFault, TunedSleepSliceBoundsWakeLatency) {
  // A member parked deep in the sleep loop of the default wait (its spin and
  // yield budgets are long spent after 50 ms) must observe abort poison
  // within a few sleep slices of the abort, not the receive deadline. The
  // 200 ms bound is generous so a loaded CI box cannot flake it, yet far
  // below the 30 s deadline, so a wait loop that stopped polling the poison
  // between slices (e.g. regressed to one long park) still fails.
  WorldOptions options;
  options.recv_timeout = std::chrono::seconds(30);
  World world(2, options);
  ShmTree& tree = world.shm_tree(0, 2);

  std::atomic<steady_clock::time_point::rep> aborted_at{0};
  std::thread poisoner([&] {
    // Long enough that the waiter is parked in sleep slices by now.
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    aborted_at.store(steady_clock::now().time_since_epoch().count());
    world.abort(1, "member died mid-phase");
  });
  steady_clock::time_point woke;
  try {
    (void)tree.buffers_of(1, 1, 0);  // member never publishes
    FAIL() << "buffers_of returned without a publication";
  } catch (const FaultError& e) {
    woke = steady_clock::now();
    EXPECT_EQ(e.kind(), FaultKind::kAborted);
  }
  poisoner.join();
  const auto wake_latency =
      woke - steady_clock::time_point(
                 steady_clock::duration(aborted_at.load()));
  EXPECT_LT(wake_latency, std::chrono::milliseconds(200))
      << "parked waiter took "
      << std::chrono::duration_cast<std::chrono::microseconds>(wake_latency)
             .count()
      << "us past the abort to wake";
}

// ---- chaos: crashes inside hierarchical runs ----------------------------
//
// A rank that dies while its group is mid-exchange must poison the World and
// wake every peer parked on a mailbox receive or a shared-segment counter. The acceptable outcomes
// per seed are exactly two: bit-correct results, or a typed FaultError —
// never a hang, never a wrong answer.

constexpr int kChaosRanks = 8;

class ShmGroupCrashChaos : public testing::TestWithParam<std::uint64_t> {};

TEST_P(ShmGroupCrashChaos, CrashedRankSurfacesAsCleanFaultError) {
  const std::uint64_t seed = GetParam();
  const core::CollOp ops[] = {core::CollOp::kBcast, core::CollOp::kReduce,
                              core::CollOp::kAllreduce,
                              core::CollOp::kAllgather};
  core::CollParams params;
  params.op = ops[seed % 4];
  params.p = kChaosRanks;
  params.root = static_cast<int>(seed / 4) % kChaosRanks;
  params.count = params.op == core::CollOp::kAllgather ? 64 : 61;
  params.elem_size = 4;
  params.k = 2;

  core::HierSpec spec;
  spec.group_size = (seed % 2) != 0 ? 4 : 2;
  // K-nomial is the one inter kernel supporting all four composed ops.
  spec.inter_alg = core::Algorithm::kKnomial;
  spec.inter_k = 2;
  ASSERT_TRUE(core::supports_hierarchical(spec, params));
  const core::Schedule sched = core::build_hierarchical_schedule(spec, params);

  fault::FaultPlan plan;
  plan.seed = seed;
  // Kill one rank at its first transport operation. Leaders always reach
  // one; a pure-intra member may never, in which case the run completes —
  // also a legal outcome below.
  plan.crashes.push_back({static_cast<int>(seed % kChaosRanks), 0});

  const auto inputs = core::make_inputs(params, DataType::kInt32, seed);
  const auto want =
      core::reference_outputs(params, inputs, DataType::kInt32, ReduceOp::kSum);

  core::ThreadedExecOptions options;
  options.world.fault_plan = &plan;
  options.world.recv_timeout = std::chrono::seconds(30);

  const auto start = steady_clock::now();
  try {
    const auto got = core::execute_threaded(sched, inputs, DataType::kInt32,
                                            ReduceOp::kSum, options);
    for (int r = 0; r < params.p; ++r) {
      if (!core::has_result(params, r)) continue;
      const auto& g = got[static_cast<std::size_t>(r)];
      const auto& w = want[static_cast<std::size_t>(r)];
      for (const core::Seg& seg : core::result_segments(params, r)) {
        ASSERT_TRUE(std::memcmp(g.data() + seg.off, w.data() + seg.off,
                                seg.len) == 0)
            << "seed " << seed << " rank " << r;
      }
    }
  } catch (const FaultError& e) {
    EXPECT_TRUE(e.kind() == FaultKind::kRankDeath ||
                e.kind() == FaultKind::kAborted ||
                e.kind() == FaultKind::kTimeout)
        << "seed " << seed << " raised " << e.what();
  }
  // Abort poison reaches the mailbox waits: well inside the deadline.
  EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(15))
      << "seed " << seed;

  // The same crash on the shared-memory path. A fault plan forces the
  // mailbox fallback, so here the transport stays plain and the intra
  // phases run on the group's ShmTree: the doomed rank completes `lived`
  // collectives, then dies before its next exchange, and every peer parked
  // on a tree counter (or a leader-phase receive) must wake with a typed
  // error. Collectives that complete are bit-correct. Each rank keeps its
  // output local and checks it before the buffer goes away, as a
  // Collectives caller does: a rank woken out of a tree wait must not free
  // a buffer that a peer still copies out of or folds into
  // (ShmTree::retract) — a wrong result here, or a use-after-free under
  // ASan, if it did. Seed blocks alternate payloads on the unpartitioned
  // side of kHierShmSmallBytes / kHierShmGatherBytes and past them, where
  // members store into the leader's output.
  constexpr int kRounds = 2;
  const int doomed = static_cast<int>(seed % kChaosRanks);
  const int lived = static_cast<int>((seed / 8) % kRounds);
  core::CollParams shm_params = params;
  if ((seed / 16) % 2 != 0) {
    shm_params.count = 1104;  // 4416 B, a multiple of p for allgather
  }
  const core::Schedule shm_sched =
      core::build_hierarchical_schedule(spec, shm_params);
  const auto shm_inputs =
      core::make_inputs(shm_params, DataType::kInt32, seed);
  const auto shm_want = core::reference_outputs(shm_params, shm_inputs,
                                                DataType::kInt32,
                                                ReduceOp::kSum);
  std::vector<std::vector<char>> wrong(kRounds,
                                       std::vector<char>(kChaosRanks, 0));
  WorldOptions plain;
  plain.recv_timeout = std::chrono::seconds(30);
  const auto shm_start = steady_clock::now();
  try {
    World::run(
        kChaosRanks,
        [&](Communicator& comm) {
          const auto r = static_cast<std::size_t>(comm.rank());
          for (std::size_t round = 0; round < kRounds; ++round) {
            if (comm.rank() == doomed && static_cast<int>(round) == lived) {
              throw FaultError(FaultKind::kRankDeath, comm.rank(), -1, -1,
                               "died before its shared-memory exchange");
            }
            std::vector<std::byte> out(core::output_bytes(shm_params));
            core::execute_hierarchical(shm_sched, comm, shm_inputs[r], out,
                                       DataType::kInt32, ReduceOp::kSum);
            if (!core::has_result(shm_params, comm.rank())) continue;
            for (const core::Seg& seg :
                 core::result_segments(shm_params, comm.rank())) {
              if (std::memcmp(out.data() + seg.off,
                              shm_want[r].data() + seg.off, seg.len) != 0) {
                wrong[round][r] = 1;
              }
            }
          }
        },
        plain);
    FAIL() << "seed " << seed << ": the rank death was not reported";
  } catch (const FaultError& e) {
    EXPECT_TRUE(e.kind() == FaultKind::kRankDeath ||
                e.kind() == FaultKind::kAborted)
        << "seed " << seed << " raised " << e.what();
  }
  for (std::size_t round = 0; round < kRounds; ++round) {
    for (std::size_t r = 0; r < kChaosRanks; ++r) {
      EXPECT_EQ(wrong[round][r], 0)
          << "seed " << seed << " rank " << r << " round " << round
          << " completed with a wrong result";
    }
  }
  EXPECT_LT(steady_clock::now() - shm_start, std::chrono::seconds(15))
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShmGroupCrashChaos,
                         testing::Range<std::uint64_t>(0, 66));

}  // namespace
}  // namespace gencoll::runtime
