// Elastic shrink-recovery chaos suite (DESIGN.md section 11).
//
// Under WorldOptions::on_crash = CrashPolicy::kShrink, a rank death must NOT
// poison the World: the survivors revoke the epoch, agree on the survivor
// set, shrink to a densely renumbered p-1 world, and transparently re-execute
// the interrupted collective — with every rebuilt schedule proven by the
// symbolic checker through the registry's auditor hook before it runs. The
// contract exercised here:
//
//   * all 10 Table I generalized (collective, kernel) pairs, crash at a
//     seed-varied op index on a seed-varied victim, complete over the
//     survivors with bit-exact results against core/reference computed for
//     the shrunk parameters — zero kAborted escapes;
//   * hierarchical compositions recover from a leader death during the
//     shared-segment intra phase (members woken out of seqlock waits) and
//     during the leader-level inter phase, repairing the group size or
//     falling back to a flat schedule;
//   * CrashPolicy::kAbort (the default) preserves the historical fail-fast
//     behavior byte for byte.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <tuple>
#include <utility>
#include <vector>

#include "check/check.hpp"
#include "core/elastic.hpp"
#include "core/executor.hpp"
#include "core/reference.hpp"
#include "core/registry.hpp"
#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "runtime/event_pool.hpp"
#include "runtime/world.hpp"

namespace gencoll::core {
namespace {

using gencoll::FaultError;
using gencoll::FaultKind;
using runtime::DataType;
using runtime::ReduceOp;
using std::chrono::steady_clock;

constexpr int kRanks = 8;

struct Pair {
  CollOp op;
  Algorithm alg;
};

/// The 10 generalized implementations of the paper's Table I.
std::vector<Pair> generalized_pairs() {
  std::vector<Pair> pairs;
  for (const KernelInfo& kernel : kernel_table()) {
    for (CollOp op : kernel.ops) pairs.push_back({op, kernel.generalized});
  }
  return pairs;
}

struct CaseShape {
  CollParams params;
  Algorithm alg;
};

/// Same deterministic seed -> shape derivation as the fail-fast chaos suite
/// (tests/fault/chaos_test.cpp), so the two suites sweep identical ground.
CaseShape shape_for(std::uint64_t seed) {
  const auto pairs = generalized_pairs();
  const Pair pair = pairs[seed % pairs.size()];
  CollParams params;
  params.op = pair.op;
  params.p = kRanks;
  params.root = static_cast<int>(seed / pairs.size()) % kRanks;
  constexpr std::size_t kCounts[] = {64, 193, 257};
  params.count = kCounts[(seed / 3) % 3];
  params.elem_size = runtime::datatype_size(DataType::kInt32);
  const auto radixes = candidate_radixes(pair.op, pair.alg, kRanks);
  params.k = radixes[(seed / 7) % radixes.size()];
  for (std::size_t i = 0; !supports_params(pair.alg, params) && i < radixes.size();
       ++i) {
    params.k = radixes[i];
  }
  return {params, pair.alg};
}

/// Scoped prover install: every schedule the registry (or the hierarchical
/// composer) builds while this is alive — including every *shrunk* schedule
/// the elastic driver rebuilds mid-recovery — is proven by the symbolic
/// checker, and counted. The auditor runs on rank threads concurrently, so
/// the counter is atomic; check_schedule itself is a pure function.
class ScopedProver {
 public:
  ScopedProver() {
    previous_ = set_schedule_auditor([this](const Schedule& s, Algorithm alg) {
      check::require_ok(s, check::check_schedule(s, alg));
      proved_.fetch_add(1, std::memory_order_relaxed);
    });
  }
  ~ScopedProver() { set_schedule_auditor(std::move(previous_)); }
  [[nodiscard]] int proved() const {
    return proved_.load(std::memory_order_relaxed);
  }

 private:
  std::atomic<int> proved_{0};
  ScheduleAuditor previous_;
};

runtime::WorldOptions shrink_world_options() {
  runtime::WorldOptions world;
  world.on_crash = fault::CrashPolicy::kShrink;
  world.recv_timeout = std::chrono::milliseconds(5000);
  fault::RecoveryConfig recovery;
  recovery.agree_timeout = std::chrono::milliseconds(2000);
  world.recovery = recovery;
  return world;
}

/// Reconstruct the committed epoch's parameters from a survivor report: p'
/// is the survivor count and the root is remapped exactly like the driver
/// does (dense rank of the original root; lowest survivor when it died).
CollParams shrunk_params(const CollParams& original, const ElasticReport& rep) {
  CollParams cur = original;
  cur.p = rep.final_p;
  int root_orig = original.root;
  int dense = -1;
  for (std::size_t i = 0; i < rep.survivors.size(); ++i) {
    if (rep.survivors[i] == root_orig) dense = static_cast<int>(i);
  }
  cur.root = dense >= 0 ? dense : 0;
  return cur;
}

/// Bit-exact comparison of every survivor's defined result segments against
/// the reference computed over the shrunk parameters.
void expect_survivor_outputs(const CollParams& original,
                             const std::vector<std::vector<std::byte>>& outputs,
                             const std::vector<ElasticReport>& reports,
                             std::uint64_t seed, const std::string& context) {
  // Any survivor's report describes the committed epoch; all must agree.
  int probe = -1;
  for (int r = 0; r < original.p; ++r) {
    if (reports[static_cast<std::size_t>(r)].final_p > 0) probe = r;
  }
  ASSERT_GE(probe, 0) << context << ": no rank committed a result";
  const ElasticReport& rep = reports[static_cast<std::size_t>(probe)];
  const CollParams cur = shrunk_params(original, rep);
  ASSERT_EQ(static_cast<int>(rep.survivors.size()), cur.p) << context;

  const auto inputs = make_inputs(cur, DataType::kInt32, seed);
  const auto want =
      reference_outputs(cur, inputs, DataType::kInt32, ReduceOp::kSum);

  for (int dense = 0; dense < cur.p; ++dense) {
    const int orig = rep.survivors[static_cast<std::size_t>(dense)];
    const ElasticReport& r = reports[static_cast<std::size_t>(orig)];
    ASSERT_EQ(r.final_p, cur.p) << context << " rank " << orig;
    ASSERT_EQ(r.survivors, rep.survivors) << context << " rank " << orig;
    const auto& got = outputs[static_cast<std::size_t>(orig)];
    const auto& ref = want[static_cast<std::size_t>(dense)];
    for (const Seg& seg : result_segments(cur, dense)) {
      ASSERT_GE(got.size(), seg.off + seg.len) << context << " rank " << orig;
      ASSERT_TRUE(
          std::memcmp(got.data() + seg.off, ref.data() + seg.off, seg.len) == 0)
          << context << " rank " << orig << " (dense " << dense
          << ") segment at " << seg.off << ": wrong answer after shrink";
    }
  }
  // Dead ranks must not have produced a result.
  for (int r = 0; r < original.p; ++r) {
    if (reports[static_cast<std::size_t>(r)].final_p == 0) {
      EXPECT_TRUE(outputs[static_cast<std::size_t>(r)].empty())
          << context << ": dead rank " << r << " returned a result";
    }
  }
}

// ---------------------------------------------------------------------------
// Flat 66-seed suite: every Table I pair, seed-varied victim and crash op
// index, under CrashPolicy::kShrink. No catch block: ANY FaultError —
// including the historical kAborted — fails the test.
//
// Each seed runs on BOTH execution engines: the elastic driver's
// revoke/agree/shrink/retry bookkeeping is engine-independent, so a seed
// must shrink the same way and commit the same bit-exact survivor results
// on thread-per-rank and on the event executor.
// ---------------------------------------------------------------------------

using ShrinkParam = std::tuple<std::uint64_t, runtime::ExecutorKind>;

std::string engine_param_name(
    const testing::TestParamInfo<runtime::ExecutorKind>& info) {
  return info.param == runtime::ExecutorKind::kEvent ? "event" : "threaded";
}

std::string shrink_param_name(const testing::TestParamInfo<ShrinkParam>& info) {
  return "seed" + std::to_string(std::get<0>(info.param)) +
         (std::get<1>(info.param) == runtime::ExecutorKind::kEvent
              ? "_event"
              : "_threaded");
}

class ShrinkChaos : public testing::TestWithParam<ShrinkParam> {};

TEST_P(ShrinkChaos, CompletesOverSurvivorsBitExact) {
  const std::uint64_t seed = std::get<0>(GetParam());
  const CaseShape shape = shape_for(seed);
  ASSERT_TRUE(supports_params(shape.alg, shape.params));

  fault::FaultPlan plan;  // pure crash plan: deterministic single death
  plan.seed = seed;
  const int victim = static_cast<int>(seed % kRanks);
  const int after_ops = static_cast<int>((seed / 5) % 7);
  plan.crashes.push_back({victim, after_ops});

  const std::string context = std::string(algorithm_name(shape.alg)) + " " +
                              shape.params.describe() + " victim=" +
                              std::to_string(victim) + " after_ops=" +
                              std::to_string(after_ops);

  ScopedProver prover;
  ElasticOptions options;
  options.alg = shape.alg;
  const InputProvider provider = [seed](const CollParams& cur, int dense) {
    return make_inputs(cur, DataType::kInt32, seed)[static_cast<std::size_t>(dense)];
  };

  runtime::WorldOptions world = shrink_world_options();
  world.executor = std::get<1>(GetParam());
  world.fault_plan = &plan;

  const auto start = steady_clock::now();
  std::vector<ElasticReport> reports;
  const auto outputs = execute_threaded_elastic(
      shape.params, DataType::kInt32, ReduceOp::kSum, options, provider, world,
      &reports);
  // Recovery must be fast — nowhere near the 5 s receive deadline.
  EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(30)) << context;

  expect_survivor_outputs(shape.params, outputs, reports, seed, context);
  EXPECT_GT(prover.proved(), 0) << context;

  // When the crash fired (victim has no committed report), the survivors
  // must have shrunk exactly once to p-1; when the victim's program had
  // fewer ops than the crash countdown, the full-p run simply completes.
  const ElasticReport& victim_rep = reports[static_cast<std::size_t>(victim)];
  for (int r = 0; r < kRanks; ++r) {
    const ElasticReport& rep = reports[static_cast<std::size_t>(r)];
    if (rep.final_p == 0) continue;
    if (victim_rep.final_p == 0) {
      EXPECT_EQ(rep.final_p, kRanks - 1) << context << " rank " << r;
      EXPECT_EQ(rep.shrinks, 1) << context << " rank " << r;
    } else {
      EXPECT_EQ(rep.final_p, kRanks) << context << " rank " << r;
      EXPECT_EQ(rep.shrinks, 0) << context << " rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, ShrinkChaos,
    testing::Combine(testing::Range<std::uint64_t>(0, 66),
                     testing::Values(runtime::ExecutorKind::kThreaded,
                                     runtime::ExecutorKind::kEvent)),
    shrink_param_name);

// ---------------------------------------------------------------------------
// Hierarchical recovery.
// ---------------------------------------------------------------------------

/// Leader death during the shared-segment intra phase: the transport is
/// plain (no fault plan), so the intra phases really run over ShmTree
/// seqlock waits — the members of the dead leader's group are woken out of
/// those waits by the epoch revocation (the hard wakeup path), and p'=7 is
/// prime, forcing the hierarchy to flatten on retry.
TEST(RecoveryHier, LeaderCrashDuringShmIntraPhase) {
  CollParams params;
  params.op = CollOp::kAllreduce;
  params.p = kRanks;
  params.root = 0;
  params.count = 256;
  params.elem_size = runtime::datatype_size(DataType::kInt32);
  params.k = 2;

  ScopedProver prover;
  ElasticOptions options;
  HierSpec spec;
  spec.group_size = 4;
  spec.inter_alg = Algorithm::kRecursiveMultiplying;
  spec.inter_k = 2;
  options.hier = spec;

  constexpr std::uint64_t kSeed = 0xE1A5;
  const InputProvider provider = [](const CollParams& cur, int dense) {
    return make_inputs(cur, DataType::kInt32, kSeed)[static_cast<std::size_t>(dense)];
  };

  const int victim = 4;  // leader of group 1: members 5, 6, 7 wait on it
  std::vector<std::vector<std::byte>> outputs(kRanks);
  std::vector<ElasticReport> reports(kRanks);
  runtime::World::run(
      kRanks,
      [&](runtime::Communicator& comm) {
        if (comm.world_rank() == victim) {
          // Let the group members publish and enter their seqlock waits
          // before the leader "crashes" without ever serving them.
          std::this_thread::sleep_for(std::chrono::milliseconds(30));
          comm.world().announce_death(victim,
                                      "test: leader died during shm intra phase");
          throw FaultError(FaultKind::kRankDeath, victim, -1, -1,
                           "test: leader died during shm intra phase");
        }
        ElasticReport rep;
        std::vector<std::byte> out = execute_rank_elastic(
            comm, params, DataType::kInt32, ReduceOp::kSum, options, provider,
            &rep);
        const auto r = static_cast<std::size_t>(comm.world_rank());
        outputs[r] = std::move(out);
        reports[r] = rep;
      },
      shrink_world_options());

  expect_survivor_outputs(params, outputs, reports, kSeed,
                          "hier shm-intra leader crash");
  EXPECT_GT(prover.proved(), 0);
  EXPECT_EQ(reports[0].final_p, kRanks - 1);
  EXPECT_EQ(reports[0].shrinks, 1);
  // 7 is prime: no group size fits, so the retry must have flattened.
  const Schedule rebuilt =
      build_elastic_schedule(options, shrunk_params(params, reports[0]));
  EXPECT_FALSE(rebuilt.hier.has_value());
}

/// Leader death during the leader-level inter phase, at p=9 with g=3: the
/// shrunk p'=8 does not fit g=3 but does fit g=2, so the retry repairs the
/// hierarchy instead of flattening — and the dense remap promotes surviving
/// ranks into fresh leader positions. Runs on both execution engines (the
/// shm-intra variant above drives World::run directly, which is inherently
/// thread-per-rank, so it has no event leg).
class RecoveryHierExec : public testing::TestWithParam<runtime::ExecutorKind> {};

TEST_P(RecoveryHierExec, LeaderCrashDuringInterPhaseRepairsGroupSize) {
  CollParams params;
  params.op = CollOp::kAllreduce;
  params.p = 9;
  params.root = 0;
  params.count = 192;
  params.elem_size = runtime::datatype_size(DataType::kInt32);
  params.k = 2;

  fault::FaultPlan plan;
  plan.seed = 9;
  // Leader 3's composed program: 2 intra fan-in receives (members 4, 5),
  // then the inter kernel — op index 2 is its first inter-phase operation.
  plan.crashes.push_back({3, 2});

  ScopedProver prover;
  ElasticOptions options;
  HierSpec spec;
  spec.group_size = 3;
  spec.inter_alg = Algorithm::kRecursiveMultiplying;
  spec.inter_k = 2;
  options.hier = spec;  // fault plan active -> composed mailbox path runs

  constexpr std::uint64_t kSeed = 0x91E2;
  const InputProvider provider = [](const CollParams& cur, int dense) {
    return make_inputs(cur, DataType::kInt32, kSeed)[static_cast<std::size_t>(dense)];
  };

  runtime::WorldOptions world = shrink_world_options();
  world.executor = GetParam();
  world.fault_plan = &plan;

  std::vector<ElasticReport> reports;
  const auto outputs = execute_threaded_elastic(
      params, DataType::kInt32, ReduceOp::kSum, options, provider, world,
      &reports);

  expect_survivor_outputs(params, outputs, reports, kSeed,
                          "hier inter-phase leader crash");
  EXPECT_GT(prover.proved(), 0);
  ASSERT_GT(reports[0].final_p, 0);
  EXPECT_EQ(reports[0].final_p, 8);
  EXPECT_EQ(reports[0].shrinks, 1);
  // The rebuilt schedule must be hierarchical again, with the repaired g'=2.
  const Schedule rebuilt =
      build_elastic_schedule(options, shrunk_params(params, reports[0]));
  ASSERT_TRUE(rebuilt.hier.has_value());
  EXPECT_EQ(rebuilt.hier->group_size, 2);
}

INSTANTIATE_TEST_SUITE_P(Engines, RecoveryHierExec,
                         testing::Values(runtime::ExecutorKind::kThreaded,
                                         runtime::ExecutorKind::kEvent),
                         engine_param_name);

// ---------------------------------------------------------------------------
// Rebuild fallback chain unit coverage.
// ---------------------------------------------------------------------------

TEST(ElasticRebuild, FlatRefitsRadixWhenShrunkPDropsSupport) {
  // k-ring needs k | p: k=4 works at p=8 but not at p=7, so the rebuild
  // must re-fit the radix (or fall to another kernel) instead of failing.
  ElasticOptions options;
  options.alg = Algorithm::kKring;
  CollParams params;
  params.op = CollOp::kAllgather;
  params.p = 7;
  params.root = 0;
  params.count = 70;
  params.elem_size = 4;
  params.k = 4;
  const Schedule sched = build_elastic_schedule(options, params);
  EXPECT_EQ(sched.params.p, 7);
}

TEST(ElasticRebuild, RootedOpRebuildKeepsRootInRange) {
  ElasticOptions options;
  options.alg = Algorithm::kKnomial;
  CollParams params;
  params.op = CollOp::kBcast;
  params.p = 5;
  params.root = 4;
  params.count = 64;
  params.elem_size = 4;
  params.k = 3;
  const Schedule sched = build_elastic_schedule(options, params);
  EXPECT_EQ(sched.params.root, 4);
}

// ---------------------------------------------------------------------------
// CrashPolicy::kAbort must preserve the historical fail-fast behavior.
// ---------------------------------------------------------------------------

TEST(AbortPolicy, DefaultStillFailsFastOnCrash) {
  const CaseShape shape = shape_for(11);
  fault::FaultPlan plan;
  plan.seed = 11;
  plan.crashes.push_back({2, 0});

  const Schedule sched = build_schedule(shape.alg, shape.params);
  const auto inputs = make_inputs(shape.params, DataType::kInt32, 11);

  ThreadedExecOptions options;
  options.world.fault_plan = &plan;
  // on_crash left unset and GENCOLL_ON_CRASH not exported: kAbort applies.
  options.world.recv_timeout = std::chrono::seconds(30);

  const auto start = steady_clock::now();
  try {
    execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum, options);
    FAIL() << "rank 2 crashed but the run completed";
  } catch (const FaultError& e) {
    EXPECT_TRUE(e.kind() == FaultKind::kRankDeath ||
                e.kind() == FaultKind::kAborted)
        << e.what();
  }
  EXPECT_LT(steady_clock::now() - start, std::chrono::seconds(15));
}

TEST(AbortPolicy, EnvironmentSelectsShrink) {
  ASSERT_EQ(setenv("GENCOLL_ON_CRASH", "shrink", 1), 0);
  {
    runtime::World world(2);
    EXPECT_EQ(world.crash_policy(), fault::CrashPolicy::kShrink);
  }
  ASSERT_EQ(setenv("GENCOLL_ON_CRASH", "bogus", 1), 0);
  {
    runtime::World world(2);  // unrecognized value warns and falls back
    EXPECT_EQ(world.crash_policy(), fault::CrashPolicy::kAbort);
  }
  ASSERT_EQ(unsetenv("GENCOLL_ON_CRASH"), 0);
  {
    runtime::World world(2);
    EXPECT_EQ(world.crash_policy(), fault::CrashPolicy::kAbort);
  }
}

}  // namespace
}  // namespace gencoll::core
