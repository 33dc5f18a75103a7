// Dynamic replay of the model checker's counterexamples (ISSUE: the other
// half of the mutation self-check). For each fault::ProtocolMutation the
// checker (src/verify/) produces a counterexample with a replayable
// FaultPlan; this suite installs the SAME mutation in the real runtime via
// ScopedMutation and replays that environment through the chaos harness —
// the failure the model predicted must happen dynamically, and the same
// scenario without the mutation must stay correct. A replay that does not
// reproduce means the model and the runtime have drifted.
//
// The crash plans are exact replays (crash=r@k addresses the same p2p-op
// counting the model used). Wire-fault plans are class-level (seeded
// probabilities); where an assertion needs a deterministic fault sequence
// the probability is pinned to 1 — the counterexample fixes the fault
// class, the pin removes the sampling (DESIGN.md section 12).
#include <gtest/gtest.h>

#include <chrono>
#include <cstddef>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/elastic.hpp"
#include "core/reference.hpp"
#include "core/registry.hpp"
#include "fault/error.hpp"
#include "fault/mutation.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "runtime/comm.hpp"
#include "runtime/membership.hpp"
#include "runtime/shm_group.hpp"
#include "runtime/world.hpp"
#include "verify/verify.hpp"

namespace gencoll::core {
namespace {

using gencoll::FaultError;
using gencoll::FaultKind;
using fault::ProtocolMutation;
using runtime::DataType;
using runtime::ReduceOp;
using std::chrono::milliseconds;
using std::chrono::steady_clock;
using verify::Counterexample;
using verify::VerdictKind;
using verify::VerifyRequest;

std::vector<std::byte> pattern_bytes(std::size_t n, int salt) {
  std::vector<std::byte> out(n);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] =
        static_cast<std::byte>((i * 31 + static_cast<std::size_t>(salt)) & 0xFF);
  }
  return out;
}

runtime::WorldOptions shrink_options(const fault::FaultPlan* plan) {
  runtime::WorldOptions world;
  world.on_crash = fault::CrashPolicy::kShrink;
  world.fault_plan = plan;
  world.recv_timeout = milliseconds(3000);
  fault::RecoveryConfig recovery;
  recovery.agree_timeout = milliseconds(400);
  world.recovery = recovery;
  return world;
}

/// The dynamic form of the model's commit-agreement + commit-soundness
/// invariants: every committed report must describe the same epoch
/// (final_p, epoch, survivors), and every rank a committed survivor set
/// names must itself hold a committed report of that same epoch.
bool commits_consistent(const std::vector<ElasticReport>& reports) {
  const ElasticReport* first = nullptr;
  for (const ElasticReport& rep : reports) {
    if (rep.final_p == 0) continue;
    if (first == nullptr) {
      first = &rep;
      continue;
    }
    if (rep.final_p != first->final_p || rep.final_epoch != first->final_epoch ||
        rep.survivors != first->survivors) {
      return false;  // two ranks committed under different epochs
    }
  }
  if (first == nullptr) return false;  // nobody committed at all
  for (const int orig : first->survivors) {
    if (reports[static_cast<std::size_t>(orig)].final_p != first->final_p) {
      return false;  // a committed survivor set names a rank that never committed
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// kSkipCommitRendezvous: the model's counterexample is a rank returning a
// full-p epoch-0 result while the survivors shrink and commit epoch 1.
// Replaying its crash plan through the elastic harness (bcast: the victim's
// crash leaves some ranks complete and others starved) must reproduce the
// divergence; the same plan without the mutation shrinks consistently.
// ---------------------------------------------------------------------------

TEST(MutationReplay, SkipCommitRendezvousCommitsDivergentEpochs) {
  VerifyRequest request;
  request.model = "membership";
  request.membership.p = 3;
  request.membership.max_crashes = 1;
  request.mutation = ProtocolMutation::kSkipCommitRendezvous;
  const Counterexample cex = verify::run_verify(request);
  ASSERT_EQ(cex.kind, VerdictKind::kViolation) << cex.invariant;
  ASSERT_FALSE(cex.plan.crashes.empty())
      << "counterexample plan lost its crash event: " << cex.plan.describe();

  CollParams params;
  params.op = CollOp::kBcast;
  params.p = 3;
  params.root = 0;
  params.count = 64;
  params.elem_size = runtime::datatype_size(DataType::kInt32);
  params.k = 2;
  ElasticOptions options;
  options.alg = Algorithm::kKnomial;
  ASSERT_TRUE(supports_params(options.alg, params));

  const InputProvider provider = [](const CollParams& cur, int dense) {
    return make_inputs(cur, DataType::kInt32, 0xC0117)[
        static_cast<std::size_t>(dense)];
  };
  // Model ranks are symmetric (the model schedules no tree), so the replay
  // picks the representative victim that realizes the modeled interleaving
  // (a rank completing its data plan and committing before the revocation
  // lands) deterministically: a leaf of the bcast tree, dying at its first
  // op. The root's sends are non-blocking posts, so the root always reaches
  // its commit — which the mutation makes unconditional — at full p while
  // the victim is already dead.
  fault::FaultPlan plan = cex.plan;
  ASSERT_FALSE(plan.crashes.empty());
  plan.crashes[0].rank = params.p - 1;
  plan.crashes[0].after_ops = 0;
  const runtime::WorldOptions world = shrink_options(&plan);

  {
    fault::ScopedMutation guard(ProtocolMutation::kSkipCommitRendezvous);
    std::vector<ElasticReport> reports;
    execute_threaded_elastic(params, DataType::kInt32, ReduceOp::kSum, options,
                             provider, world, &reports);
    EXPECT_FALSE(commits_consistent(reports))
        << "mutated runtime still commits consistently: the counterexample "
           "did not reproduce";
  }
  {
    std::vector<ElasticReport> reports;
    execute_threaded_elastic(params, DataType::kInt32, ReduceOp::kSum, options,
                             provider, world, &reports);
    EXPECT_TRUE(commits_consistent(reports))
        << "baseline (no mutation) run of the same plan diverged";
  }
}

// ---------------------------------------------------------------------------
// kRegressRevokeWatermark: the model's counterexample is a zombie's stale
// revocation regressing the watermark below the live epoch. Against the
// real Membership the regression un-poisons the epoch the survivors are
// recovering from, so a waiter that should fail fast instead sleeps through
// the lost revocation until its own timeout.
// ---------------------------------------------------------------------------

TEST(MutationReplay, RegressRevokeWatermarkLosesALiveRevocation) {
  fault::RecoveryConfig config;
  config.agree_timeout = milliseconds(500);
  runtime::Membership membership(4, config);

  // First crash: epoch 0 revoked, survivors {1,2,3} agree and install
  // epoch 1 (the model trace's first recovery).
  membership.announce_death(0, "replay: first crash");
  std::vector<std::thread> joiners;
  for (const int r : {1, 2, 3}) {
    joiners.emplace_back(
        [&membership, r] { (void)membership.agree_and_shrink(0, r); });
  }
  for (auto& t : joiners) t.join();
  ASSERT_EQ(membership.epoch(), 1);

  // Second crash poisons the live epoch 1.
  membership.announce_death(1, "replay: second crash");
  ASSERT_TRUE(membership.revoke_flag().revoked(1));

  // The zombie's stale revocation of long-recovered epoch 0, honored
  // verbatim under the mutation, regresses the watermark below the live
  // epoch — the fresh poison is erased.
  {
    fault::ScopedMutation guard(ProtocolMutation::kRegressRevokeWatermark);
    membership.revoke(0, 3, "replay: zombie straggler's stale revocation");
  }
  EXPECT_FALSE(membership.revoke_flag().revoked(1))
      << "the stale revocation did not regress the watermark";

  // Consequence: a commit rendezvous on the revoked-but-unpoisoned epoch no
  // longer fails fast — it stalls its full timeout waiting for a wakeup
  // that was lost.
  const auto slow_start = steady_clock::now();
  EXPECT_FALSE(membership.try_commit(2, 1, milliseconds(200)));
  EXPECT_GE(steady_clock::now() - slow_start, milliseconds(150))
      << "commit failed fast: the revocation was not actually lost";

  // The timed-out rendezvous re-revoked epoch 1; without the mutation the
  // same stale revocation is a guarded no-op and commits fail fast again.
  ASSERT_TRUE(membership.revoke_flag().revoked(1));
  membership.revoke(0, 3, "replay: stale revocation, guard restored");
  EXPECT_TRUE(membership.revoke_flag().revoked(1));
  const auto fast_start = steady_clock::now();
  EXPECT_FALSE(membership.try_commit(2, 1, milliseconds(200)));
  EXPECT_LT(steady_clock::now() - fast_start, milliseconds(150));
}

// ---------------------------------------------------------------------------
// kSkipInstallPurge: the model's counterexample leaves a stale-epoch message
// pending across an epoch install. Dynamically: the root posts to a child
// that crashes before consuming; the survivors' install must purge that
// in-flight message — under the mutation it leaks as pending() forever.
// ---------------------------------------------------------------------------

/// World::run equivalent over a caller-owned World, so the test can inspect
/// pending_messages() after the threads join (kRankDeath swallowed exactly
/// like the elastic run loop does).
void run_ranks_shrink(runtime::World& world,
                      const std::function<void(runtime::Communicator&)>& fn) {
  std::mutex mu;
  std::exception_ptr first_error;
  std::vector<std::thread> threads;
  for (int r = 0; r < world.size(); ++r) {
    threads.emplace_back([&, r] {
      try {
        runtime::Communicator comm(&world, r);
        fn(comm);
      } catch (const FaultError& e) {
        if (e.kind() == FaultKind::kRankDeath) {
          world.announce_death(r, e.what());
          return;
        }
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
      } catch (...) {
        std::lock_guard<std::mutex> lock(mu);
        if (!first_error) first_error = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

std::size_t pending_after_shrink_bcast(bool mutate) {
  CollParams params;
  params.op = CollOp::kBcast;
  params.p = 3;
  params.root = 0;
  params.count = 64;
  params.elem_size = runtime::datatype_size(DataType::kInt32);
  params.k = 2;
  ElasticOptions options;
  options.alg = Algorithm::kKnomial;

  fault::FaultPlan plan;  // leaf rank 2 dies before consuming the root's post
  plan.crashes.push_back({2, 0});
  runtime::World world(3, shrink_options(&plan));

  const InputProvider provider = [](const CollParams& cur, int dense) {
    return make_inputs(cur, DataType::kInt32, 0x9A6E)[
        static_cast<std::size_t>(dense)];
  };

  std::optional<fault::ScopedMutation> guard;
  if (mutate) guard.emplace(ProtocolMutation::kSkipInstallPurge);
  run_ranks_shrink(world, [&](runtime::Communicator& comm) {
    ElasticReport rep;
    (void)execute_rank_elastic(comm, params, DataType::kInt32, ReduceOp::kSum,
                               options, provider, &rep);
    EXPECT_GT(rep.final_p, 0) << "rank " << comm.world_rank();
  });
  return world.pending_messages();
}

TEST(MutationReplay, SkipInstallPurgeLeaksStaleEpochMessages) {
  EXPECT_GT(pending_after_shrink_bcast(/*mutate=*/true), 0u)
      << "mutated install leaked nothing: the counterexample did not reproduce";
  EXPECT_EQ(pending_after_shrink_bcast(/*mutate=*/false), 0u)
      << "baseline install left stale messages pending";
}

// ---------------------------------------------------------------------------
// kSeqlockPublishBeforeData: the model's counterexample is a consumer
// observing generation t's counter over generation t-1's payload. Against
// the real ShmTree the mutated publish_buffers advances the counter without
// ever installing the buffer pointers, so the leader synchronizes correctly
// in buffers_of — and reads the wrong (stale/empty) bytes. Deterministic
// wrong answer, no data race.
// ---------------------------------------------------------------------------

void run_shm_fan_in(bool mutate) {
  constexpr int kGroup = 3;
  constexpr int kRounds = 2;
  constexpr std::size_t kBytes = 64;

  // observed[round][member] = the bytes the leader consumed.
  std::vector<std::vector<std::vector<std::byte>>> observed(
      kRounds, std::vector<std::vector<std::byte>>(kGroup));
  std::optional<fault::ScopedMutation> guard;
  if (mutate) guard.emplace(ProtocolMutation::kSeqlockPublishBeforeData);

  runtime::World::run(kGroup, [&](runtime::Communicator& comm) {
    runtime::ShmTree& tree = comm.world().shm_tree(0, kGroup);
    const int self = comm.world_rank();
    // Keep every round's buffer alive: under the mutation the leader may
    // be reading a previous round's (or no) publication.
    std::vector<std::vector<std::byte>> bufs;
    for (int round = 0; round < kRounds; ++round) {
      bufs.push_back(pattern_bytes(kBytes, self * 16 + round));
      const std::uint64_t gen = tree.publish_buffers(self, bufs.back(), {});
      if (self == 0) {
        // The one-level small path's leader take: each member's published
        // input in rank order, then one fan-out releases them all.
        for (int member = 1; member < kGroup; ++member) {
          const runtime::ShmTree::Buffers b = tree.buffers_of(member, gen, self);
          observed[static_cast<std::size_t>(round)]
                  [static_cast<std::size_t>(member)]
                      .assign(b.src, b.src + b.src_len);
        }
        tree.await_fanout_acks(tree.fanout_publish(), self);
      } else {
        (void)tree.await_fanout(self, self);
        tree.ack_fanout(self);
      }
    }
  });

  for (int round = 0; round < kRounds; ++round) {
    for (int member = 1; member < kGroup; ++member) {
      const auto& got = observed[static_cast<std::size_t>(round)]
                                [static_cast<std::size_t>(member)];
      const auto want = pattern_bytes(kBytes, member * 16 + round);
      if (mutate) {
        // The counter advanced but the pointers never did: the synchronized-but-
        // wrong read the model predicted (empty initial payload).
        EXPECT_NE(got, want)
            << "round " << round << " member " << member
            << ": mutated publish still delivered the right bytes";
        EXPECT_TRUE(got.empty());
      } else {
        EXPECT_EQ(got, want) << "round " << round << " member " << member;
      }
    }
  }
}

TEST(MutationReplay, SeqlockPublishBeforeDataYieldsWrongBytes) {
  run_shm_fan_in(/*mutate=*/true);
  run_shm_fan_in(/*mutate=*/false);
}

// ---------------------------------------------------------------------------
// kSkipDupDiscard: the model's counterexample hands an already-delivered
// sequence number to the app a second time. Replayed with the wire
// duplicating every data envelope (the counterexample's fault class, pinned
// deterministic), the mutated receiver's second delivery is the first
// message again — at-most-once broken with real bytes.
// ---------------------------------------------------------------------------

TEST(MutationReplay, SkipDupDiscardDeliversTheSameMessageTwice) {
  VerifyRequest request;
  request.model = "transport";
  request.transport.messages = 2;
  request.transport.dup_budget = 1;
  request.mutation = ProtocolMutation::kSkipDupDiscard;
  const Counterexample cex = verify::run_verify(request);
  ASSERT_EQ(cex.kind, VerdictKind::kViolation) << cex.invariant;

  fault::FaultPlan plan = cex.plan;  // class-level: duplication on the wire
  plan.dup_prob = 1.0;               // pin: every envelope duplicated
  plan.delay_prob = 0.0;
  plan.max_delay_ms = 0.0;

  runtime::WorldOptions options;
  options.fault_plan = &plan;
  options.reliability.enabled = true;
  options.recv_timeout = milliseconds(10000);
  constexpr std::size_t kBytes = 64;

  {
    fault::ScopedMutation guard(ProtocolMutation::kSkipDupDiscard);
    std::vector<std::vector<std::byte>> got;
    runtime::World::run(2, [&](runtime::Communicator& comm) {
      if (comm.rank() == 0) {
        comm.send(1, 0, pattern_bytes(kBytes, 0));
        comm.send(1, 0, pattern_bytes(kBytes, 1));
      } else {
        // Three receives: the duplicate of message 0 is handed to the app
        // as if it were message 1, shifting the real message 1 to the third
        // delivery (which also acks it so the sender can finish).
        for (int i = 0; i < 3; ++i) {
          std::vector<std::byte> buf(kBytes);
          comm.recv(0, 0, buf);
          got.push_back(std::move(buf));
        }
      }
    }, options);
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0], pattern_bytes(kBytes, 0));
    EXPECT_EQ(got[1], pattern_bytes(kBytes, 0))
        << "second delivery was not the duplicate: at-most-once held";
    EXPECT_EQ(got[2], pattern_bytes(kBytes, 1));
  }
  {
    // Baseline: the same duplicating wire, dedup intact — two receives see
    // exactly the two messages, duplicates discarded.
    std::vector<std::vector<std::byte>> got;
    runtime::World::run(2, [&](runtime::Communicator& comm) {
      if (comm.rank() == 0) {
        comm.send(1, 0, pattern_bytes(kBytes, 0));
        comm.send(1, 0, pattern_bytes(kBytes, 1));
      } else {
        for (int i = 0; i < 2; ++i) {
          std::vector<std::byte> buf(kBytes);
          comm.recv(0, 0, buf);
          got.push_back(std::move(buf));
        }
      }
    }, options);
    ASSERT_EQ(got.size(), 2u);
    EXPECT_EQ(got[0], pattern_bytes(kBytes, 0));
    EXPECT_EQ(got[1], pattern_bytes(kBytes, 1));
  }
}

}  // namespace
}  // namespace gencoll::core
