// Hierarchical composition tests: structure of the composed schedules
// (phase boundaries, tags, leader mapping), rejection of shapes the
// composition cannot express, end-to-end correctness over the threaded
// runtime (shared-segment intra phases) against core/reference, and the
// observability contract (group-stamped spans with intra/inter link
// classes).
#include "core/hierarchy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <string>
#include <vector>

#include "core/algorithms.hpp"
#include "core/executor.hpp"
#include "core/reference.hpp"
#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/world.hpp"

namespace gencoll::core {
namespace {

using runtime::DataType;
using runtime::ReduceOp;

CollParams params_of(CollOp op, int p, std::size_t count, int root = 0) {
  CollParams params;
  params.op = op;
  params.p = p;
  params.count = count;
  params.elem_size = 4;
  params.root = root;
  return params;
}

HierSpec spec_of(int g, Algorithm alg = Algorithm::kRecursiveMultiplying,
                 int k = 2) {
  HierSpec spec;
  spec.group_size = g;
  spec.inter_alg = alg;
  spec.inter_k = k;
  return spec;
}

TEST(Hierarchy, SupportedOpsAndShapes) {
  EXPECT_TRUE(hier_supported_op(CollOp::kBcast));
  EXPECT_TRUE(hier_supported_op(CollOp::kReduce));
  EXPECT_TRUE(hier_supported_op(CollOp::kAllreduce));
  EXPECT_TRUE(hier_supported_op(CollOp::kAllgather));
  EXPECT_FALSE(hier_supported_op(CollOp::kAlltoall));
  EXPECT_FALSE(hier_supported_op(CollOp::kScan));

  const CollParams ok = params_of(CollOp::kAllreduce, 8, 16);
  EXPECT_TRUE(supports_hierarchical(spec_of(4), ok));
  EXPECT_FALSE(supports_hierarchical(spec_of(1), ok));  // g >= 2
  EXPECT_FALSE(supports_hierarchical(spec_of(3), ok));  // p % g != 0
  // g == p is legal: one group, a degenerate single-leader kernel, and a
  // pure shared-segment collective.
  EXPECT_TRUE(supports_hierarchical(spec_of(8), ok));
  // The leader subproblem must itself be supported: recursive multiplying
  // has no reduce kernel, so a hierarchical reduce over it is rejected.
  EXPECT_FALSE(
      supports_hierarchical(spec_of(4), params_of(CollOp::kReduce, 8, 16)));
  // Allgather needs uniform blocks: p must divide count.
  EXPECT_TRUE(
      supports_hierarchical(spec_of(4), params_of(CollOp::kAllgather, 8, 16)));
  EXPECT_FALSE(
      supports_hierarchical(spec_of(4), params_of(CollOp::kAllgather, 8, 17)));
  // Rotated-layout inter kernels are not offset-preserving.
  EXPECT_FALSE(supports_hierarchical(spec_of(4, Algorithm::kBruck), ok));
  EXPECT_THROW(build_hierarchical_schedule(spec_of(3), ok), UnsupportedParams);
}

TEST(Hierarchy, ComposedScheduleStructure) {
  const CollParams params = params_of(CollOp::kAllreduce, 12, 24);
  const Schedule sched =
      build_hierarchical_schedule(spec_of(4, Algorithm::kKnomial, 3), params);

  ASSERT_TRUE(sched.hier.has_value());
  EXPECT_EQ(sched.hier->group_size, 4);
  EXPECT_EQ(sched.hier->inter_alg, Algorithm::kKnomial);
  EXPECT_EQ(sched.name, "hier_g4+knomial_allreduce(k=3)");
  ASSERT_EQ(sched.ranks.size(), 12u);
  ASSERT_EQ(sched.hier->intra_end.size(), 12u);
  ASSERT_EQ(sched.hier->leader_end.size(), 12u);

  for (int r = 0; r < 12; ++r) {
    const auto ur = static_cast<std::size_t>(r);
    const auto& steps = sched.ranks[ur].steps;
    const std::size_t intra_end = sched.hier->intra_end[ur];
    const std::size_t leader_end = sched.hier->leader_end[ur];
    ASSERT_LE(intra_end, leader_end);
    ASSERT_LE(leader_end, steps.size());
    if (r % 4 != 0) {
      // Members take no part in the leader phase, and every comm step of
      // theirs stays inside their own group.
      EXPECT_EQ(intra_end, leader_end) << "rank " << r;
      for (const Step& s : steps) {
        if (s.kind == StepKind::kCopyInput) continue;
        EXPECT_EQ(s.peer / 4, r / 4) << "rank " << r;
      }
    } else {
      // Leader-phase peers are other leaders (multiples of g).
      for (std::size_t i = intra_end; i < leader_end; ++i) {
        if (steps[i].kind == StepKind::kCopyInput) continue;
        EXPECT_EQ(steps[i].peer % 4, 0) << "rank " << r << " step " << i;
      }
    }
    // Phase tags partition: intra/fan-out tags outside, kernel tags inside.
    for (std::size_t i = 0; i < steps.size(); ++i) {
      if (steps[i].kind == StepKind::kCopyInput) continue;
      const bool hier_tag = steps[i].tag >= kHierFaninTag;
      EXPECT_EQ(hier_tag, i < intra_end || i >= leader_end)
          << "rank " << r << " step " << i << " tag " << steps[i].tag;
    }
  }
}

TEST(Hierarchy, SingleGroupAcceptsAnyKernel) {
  // p == g: no leader phase, so neither offset preservation nor leader
  // radix support is required, and nothing is spliced between the phases.
  const CollParams allgather = params_of(CollOp::kAllgather, 4, 8);
  EXPECT_TRUE(supports_hierarchical(spec_of(4, Algorithm::kLinear, 1), allgather));
  EXPECT_TRUE(supports_hierarchical(spec_of(4, Algorithm::kBruck, 1), allgather));
  // k-ring k=4 cannot run over one leader, and need not.
  EXPECT_TRUE(supports_hierarchical(spec_of(4, Algorithm::kKring, 4),
                                    params_of(CollOp::kAllreduce, 4, 16)));
  // Shape rules still hold: a ragged allgather does not compose.
  EXPECT_FALSE(supports_hierarchical(spec_of(4, Algorithm::kLinear, 1),
                                     params_of(CollOp::kAllgather, 4, 6)));

  const Schedule sched =
      build_hierarchical_schedule(spec_of(4, Algorithm::kLinear, 1), allgather);
  EXPECT_EQ(sched.name, "hier_g4+linear");
  ASSERT_TRUE(sched.hier.has_value());
  for (std::size_t r = 0; r < 4; ++r) {
    EXPECT_EQ(sched.hier->intra_end[r], sched.hier->leader_end[r]) << r;
  }
}

struct EndToEndCase {
  CollOp op;
  Algorithm inter;
  int g;
  int root;
};

class HierarchyEndToEnd : public testing::TestWithParam<EndToEndCase> {};

TEST_P(HierarchyEndToEnd, MatchesReferenceOnThreadedRuntime) {
  const EndToEndCase c = GetParam();
  const int p = 8;
  const CollParams params = params_of(c.op, p, 16, c.root);
  HierSpec spec = spec_of(c.g, c.inter, 2);
  ASSERT_TRUE(supports_hierarchical(spec, params))
      << algorithm_name(c.inter) << " g=" << c.g;
  const Schedule sched = build_hierarchical_schedule(spec, params);

  const auto inputs = make_inputs(params, DataType::kInt32, 11);
  const auto want = reference_outputs(params, inputs, DataType::kInt32,
                                      ReduceOp::kSum);
  // execute_threaded dispatches on Schedule::hier to the shared-segment
  // executor; int32 sums must match the reference bit-for-bit.
  const auto got =
      execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum);
  for (int r = 0; r < p; ++r) {
    if (!has_result(params, r)) continue;
    const auto ur = static_cast<std::size_t>(r);
    for (const Seg& seg : result_segments(params, r)) {
      ASSERT_TRUE(std::memcmp(got[ur].data() + seg.off,
                              want[ur].data() + seg.off, seg.len) == 0)
          << sched.name << " rank " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    OpsKernelsGroups, HierarchyEndToEnd,
    testing::Values(
        EndToEndCase{CollOp::kBcast, Algorithm::kRecursiveMultiplying, 2, 5},
        EndToEndCase{CollOp::kBcast, Algorithm::kKnomial, 4, 0},
        EndToEndCase{CollOp::kReduce, Algorithm::kKnomial, 2, 3},
        EndToEndCase{CollOp::kReduce, Algorithm::kKnomial, 4, 6},
        EndToEndCase{CollOp::kAllreduce, Algorithm::kRecursiveMultiplying, 8, 0},
        EndToEndCase{CollOp::kAllreduce, Algorithm::kRecursiveMultiplying, 2, 0},
        EndToEndCase{CollOp::kAllreduce, Algorithm::kKring, 4, 0},
        EndToEndCase{CollOp::kAllgather, Algorithm::kKring, 2, 0},
        EndToEndCase{CollOp::kAllgather, Algorithm::kRecursiveMultiplying, 4,
                     0}));

// ---- multi-level trees (non-empty level vector) --------------------------
//
// Level-vector compositions run the ShmTree single-copy path: partitioned
// concurrent reduction into the leaders' accumulators, fragment pipelining
// between levels, one-hop fan-out from the top leader. Every shape — uniform
// and ragged (g does not divide p) — must be bit-exact against the flat
// reference on both executors, with and without fragmentation.

struct MultiLevelCase {
  CollOp op;
  Algorithm inter;
  int p;
  std::vector<int> levels;
  int root;
  /// Elements; 0 picks the default below.
  int count = 0;
};

class HierarchyMultiLevel : public testing::TestWithParam<MultiLevelCase> {};

/// One element past the one-level unpartitioned bound.
constexpr int kOneLevelPastSmall =
    static_cast<int>(kHierShmSmallBytes / 4) + 1;

TEST_P(HierarchyMultiLevel, BitExactOnBothExecutors) {
  const MultiLevelCase c = GetParam();
  // p does not divide 24 for the ragged shapes on purpose: the chunk
  // partition and the allgather block math must not assume alignment.
  const std::size_t count = c.count != 0 ? static_cast<std::size_t>(c.count)
                            : c.op == CollOp::kAllgather
                                ? static_cast<std::size_t>(3 * c.p)
                                : 25;
  const CollParams params = params_of(c.op, c.p, count, c.root);
  HierSpec spec;
  spec.levels = c.levels;
  spec.inter_alg = c.inter;
  spec.inter_k = 2;
  ASSERT_TRUE(supports_hierarchical(spec, params))
      << algorithm_name(c.inter) << " p=" << c.p;
  const Schedule sched = build_hierarchical_schedule(spec, params);
  ASSERT_TRUE(sched.hier.has_value());
  EXPECT_EQ(sched.hier->levels, hier_canonical_levels(c.levels));

  const auto inputs = make_inputs(params, DataType::kInt32, 13);
  const auto want = reference_outputs(params, inputs, DataType::kInt32,
                                      ReduceOp::kSum);
  const runtime::ExecutorKind executors[] = {runtime::ExecutorKind::kThreaded,
                                             runtime::ExecutorKind::kEvent};
  // 0 = whole-payload (no fragmentation); 24 bytes = 6 int32 elements, so
  // the 25-element payload streams through the levels in 5 fragments (the
  // one-level {4} payloads past kHierShmSmallBytes in 171).
  const std::size_t fragment_bytes[] = {0, 24};
  for (const runtime::ExecutorKind executor : executors) {
    for (const std::size_t frag : fragment_bytes) {
      ThreadedExecOptions options;
      options.world.executor = executor;
      options.tuning.shm_fragment_bytes = frag;
      const auto got = execute_threaded(sched, inputs, DataType::kInt32,
                                        ReduceOp::kSum, options);
      for (int r = 0; r < c.p; ++r) {
        if (!has_result(params, r)) continue;
        const auto ur = static_cast<std::size_t>(r);
        for (const Seg& seg : result_segments(params, r)) {
          ASSERT_TRUE(std::memcmp(got[ur].data() + seg.off,
                                  want[ur].data() + seg.off, seg.len) == 0)
              << sched.name << " rank " << r << " executor "
              << (executor == runtime::ExecutorKind::kEvent ? "event"
                                                            : "threaded")
              << " fragment_bytes " << frag;
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    ShapesOpsExecutors, HierarchyMultiLevel,
    testing::Values(
        // Uniform two- and three-level trees.
        MultiLevelCase{CollOp::kAllreduce, Algorithm::kRecursiveMultiplying, 8,
                       {2, 2}, 0},
        MultiLevelCase{CollOp::kAllreduce, Algorithm::kKring, 8, {2, 2}, 0},
        MultiLevelCase{CollOp::kAllreduce, Algorithm::kRecursiveMultiplying,
                       16, {2, 2, 2}, 0},
        MultiLevelCase{CollOp::kBcast, Algorithm::kKnomial, 8, {2, 2}, 5},
        MultiLevelCase{CollOp::kReduce, Algorithm::kKnomial, 8, {2, 2}, 3},
        MultiLevelCase{CollOp::kReduce, Algorithm::kKnomial, 16, {4, 2}, 9},
        MultiLevelCase{CollOp::kAllgather, Algorithm::kKring, 8, {2, 2}, 0},
        MultiLevelCase{CollOp::kAllgather, Algorithm::kRecursiveMultiplying,
                       16, {2, 4}, 0},
        // Ragged last group: p=12 under 2x4 (tail population 4) and p=6
        // under one-level {4} (tail population 2), roots inside and outside
        // the ragged tail. The {4} fan-in payloads run both one-level
        // strategies: partitioned past kHierShmSmallBytes (1025 elements),
        // the unpartitioned leader fold below it.
        MultiLevelCase{CollOp::kAllreduce, Algorithm::kRecursiveMultiplying,
                       12, {2, 4}, 0},
        MultiLevelCase{CollOp::kReduce, Algorithm::kKnomial, 12, {2, 4}, 11},
        MultiLevelCase{CollOp::kBcast, Algorithm::kKnomial, 12, {2, 4}, 9},
        MultiLevelCase{CollOp::kAllreduce, Algorithm::kRecursiveMultiplying, 6,
                       {4}, 0, kOneLevelPastSmall},
        MultiLevelCase{CollOp::kBcast, Algorithm::kKnomial, 6, {4}, 5},
        MultiLevelCase{CollOp::kReduce, Algorithm::kKnomial, 6, {4}, 5,
                       kOneLevelPastSmall},
        MultiLevelCase{CollOp::kAllreduce, Algorithm::kRecursiveMultiplying, 6,
                       {4}, 0},
        MultiLevelCase{CollOp::kReduce, Algorithm::kKnomial, 6, {4}, 5}));

// ---- one engine, two fan-in strategies ------------------------------------
//
// An empty level vector runs on ShmTree as the one-level tree {g}: payloads
// up to kHierShmSmallBytes fold unpartitioned at the leader, larger ones
// use the partitioned concurrent reduction; allgather gathers at the leader
// up to kHierShmGatherBytes and scatters past it. On both sides of each
// bound and
// on both executors, `hier 4 shm` and `levels {4}` must give bit-identical
// float results, each equal to its own program run over the mailbox (one
// per-byte fold order), exact int32 results against the reference, and one
// span per composed step on every rank.

struct BoundaryCase {
  CollOp op;
  int p;
  int count;
  int root;
};

/// Largest element count on the unpartitioned side, and one past it; the
/// allgather counts keep p | count at p = 4 and 8.
constexpr int kSmallCount = static_cast<int>(kHierShmSmallBytes / 4);
constexpr int kPastSmallCount = kSmallCount + 8;
constexpr int kGatherCount = static_cast<int>(kHierShmGatherBytes / 4);
constexpr int kPastGatherCount = kGatherCount + 8;

class HierarchyShmBoundary : public testing::TestWithParam<BoundaryCase> {};

TEST_P(HierarchyShmBoundary, FlatAndOneLevelTreeAgreeOnBothEngines) {
  const BoundaryCase c = GetParam();
  const CollParams params =
      params_of(c.op, c.p, static_cast<std::size_t>(c.count), c.root);
  const HierSpec flat = spec_of(4, Algorithm::kKnomial, 2);
  HierSpec one_level = flat;
  one_level.levels = {4};
  const Schedule scheds[] = {build_hierarchical_schedule(flat, params),
                             build_hierarchical_schedule(one_level, params)};
  ASSERT_TRUE(scheds[0].hier->levels.empty());

  const auto ints = make_inputs(params, DataType::kInt32, 17);
  const auto want =
      reference_outputs(params, ints, DataType::kInt32, ReduceOp::kSum);
  // Floats spread over many binades, so any change of fold order shows.
  auto floats = make_inputs(params, DataType::kFloat, 17);
  for (std::size_t r = 0; r < floats.size(); ++r) {
    for (std::size_t i = 0; i < floats[r].size() / sizeof(float); ++i) {
      const float v = std::ldexp(1.0F + 0.123F * static_cast<float>(i % 7),
                                 static_cast<int>((5 * r + i) % 40) - 20);
      std::memcpy(floats[r].data() + i * sizeof(float), &v, sizeof(v));
    }
  }
  const auto same_results = [&](const std::vector<std::vector<std::byte>>& a,
                                const std::vector<std::vector<std::byte>>& b) {
    for (int r = 0; r < c.p; ++r) {
      if (!has_result(params, r)) continue;
      const auto ur = static_cast<std::size_t>(r);
      for (const Seg& seg : result_segments(params, r)) {
        if (std::memcmp(a[ur].data() + seg.off, b[ur].data() + seg.off,
                        seg.len) != 0) {
          return false;
        }
      }
    }
    return true;
  };

  for (const runtime::ExecutorKind executor :
       {runtime::ExecutorKind::kThreaded, runtime::ExecutorKind::kEvent}) {
    const char* engine =
        executor == runtime::ExecutorKind::kEvent ? "event" : "threaded";
    ThreadedExecOptions options;
    options.world.executor = executor;
    std::vector<std::vector<std::vector<std::byte>>> float_out;
    for (const Schedule& sched : scheds) {
      EXPECT_TRUE(same_results(execute_threaded(sched, ints, DataType::kInt32,
                                                ReduceOp::kSum, options),
                               want))
          << sched.name << " count " << c.count << " on " << engine;
      float_out.push_back(execute_threaded(sched, floats, DataType::kFloat,
                                           ReduceOp::kSum, options));
      // The same program over the mailbox folds in the program's order. A
      // reliable World is the route production takes there: its transport
      // is not plain, so the composed program runs as-is.
      ThreadedExecOptions reliable = options;
      reliable.world.reliability.enabled = true;
      EXPECT_TRUE(same_results(float_out.back(),
                               execute_threaded(sched, floats, DataType::kFloat,
                                                ReduceOp::kSum, reliable)))
          << sched.name << " shm and mailbox disagree at count " << c.count
          << " on " << engine;

      obs::TraceRecorder rec(c.p);
      ThreadedExecOptions traced = options;
      traced.sink = &rec;
      (void)execute_threaded(sched, ints, DataType::kInt32, ReduceOp::kSum,
                             traced);
      for (int r = 0; r < c.p; ++r) {
        EXPECT_EQ(rec.spans(r).size(),
                  sched.ranks[static_cast<std::size_t>(r)].steps.size())
            << sched.name << " rank " << r << " on " << engine;
      }
    }
    EXPECT_TRUE(same_results(float_out[0], float_out[1]))
        << "hier 4 and levels {4} disagree at count " << c.count << " on "
        << engine;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SmallAndPartitioned, HierarchyShmBoundary,
    testing::Values(
        // One group (no leader phase), then two groups.
        BoundaryCase{CollOp::kBcast, 4, kSmallCount, 2},
        BoundaryCase{CollOp::kBcast, 4, kPastSmallCount, 2},
        BoundaryCase{CollOp::kReduce, 4, kSmallCount, 1},
        BoundaryCase{CollOp::kReduce, 4, kPastSmallCount, 1},
        BoundaryCase{CollOp::kReduce, 4, kSmallCount, 0},
        BoundaryCase{CollOp::kReduce, 4, kPastSmallCount, 0},
        BoundaryCase{CollOp::kAllreduce, 4, kSmallCount, 0},
        BoundaryCase{CollOp::kAllreduce, 4, kPastSmallCount, 0},
        BoundaryCase{CollOp::kAllgather, 4, kGatherCount, 0},
        BoundaryCase{CollOp::kAllgather, 4, kPastGatherCount, 0},
        BoundaryCase{CollOp::kBcast, 8, kSmallCount, 6},
        BoundaryCase{CollOp::kBcast, 8, kPastSmallCount, 6},
        BoundaryCase{CollOp::kReduce, 8, kSmallCount, 5},
        BoundaryCase{CollOp::kReduce, 8, kPastSmallCount, 4},
        BoundaryCase{CollOp::kAllreduce, 8, kSmallCount, 0},
        BoundaryCase{CollOp::kAllreduce, 8, kPastSmallCount, 0},
        BoundaryCase{CollOp::kAllgather, 8, kGatherCount, 0},
        BoundaryCase{CollOp::kAllgather, 8, kPastGatherCount, 0}),
    [](const testing::TestParamInfo<BoundaryCase>& param_info) {
      const BoundaryCase& c = param_info.param;
      return std::string(coll_op_name(c.op)) + "_p" + std::to_string(c.p) +
             "_n" + std::to_string(c.count) + "_root" +
             std::to_string(c.root);
    });

TEST(Hierarchy, MultiLevelSpansCarryLevel) {
  // Multi-level intra hops surface their tree level in SpanEvent::level
  // (derived from the kHierLevelShift tag encoding); inter-group kernel
  // spans stay at the flat sentinel -1.
  const int p = 8;
  const CollParams params = params_of(CollOp::kAllreduce, p, 16);
  HierSpec spec;
  spec.levels = {2, 2};
  spec.inter_alg = Algorithm::kRecursiveMultiplying;
  spec.inter_k = 2;
  const Schedule sched = build_hierarchical_schedule(spec, params);
  const auto inputs = make_inputs(params, DataType::kInt32, 5);

  obs::TraceRecorder rec(p);
  execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum, &rec);
  ASSERT_GT(rec.total_spans(), 0u);

  std::size_t leveled[2] = {0, 0};
  for (int r = 0; r < p; ++r) {
    for (const obs::SpanEvent& ev : rec.spans(r)) {
      if (ev.kind == obs::SpanKind::kCopyInput) continue;
      if (ev.link == obs::LinkClass::kIntra) {
        ASSERT_GE(ev.level, 0) << "rank " << r << " step " << ev.step;
        ASSERT_LT(ev.level, 2) << "rank " << r << " step " << ev.step;
        ++leveled[ev.level];
      } else {
        EXPECT_EQ(ev.level, -1) << "rank " << r << " step " << ev.step;
      }
    }
  }
  // Both tiers of the {2,2} tree appear in the trace.
  EXPECT_GT(leveled[0], 0u);
  EXPECT_GT(leveled[1], 0u);
}

TEST(Hierarchy, RepeatedCollectivesOnOneWorld) {
  // Monotonic segment counters must survive back-to-back collectives on the
  // same World (the API path caches schedules and reuses the shm groups).
  const int p = 8;
  const CollParams params = params_of(CollOp::kAllreduce, p, 32);
  const Schedule sched = build_hierarchical_schedule(spec_of(4), params);
  const auto inputs = make_inputs(params, DataType::kInt32, 3);
  const auto want = reference_outputs(params, inputs, DataType::kInt32,
                                      ReduceOp::kSum);

  runtime::World::run(p, [&](runtime::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    for (int repeat = 0; repeat < 4; ++repeat) {
      std::vector<std::byte> out(output_bytes(params));
      execute_hierarchical(sched, comm, inputs[r], out, DataType::kInt32,
                           ReduceOp::kSum);
      ASSERT_EQ(std::memcmp(out.data(), want[r].data(), out.size()), 0)
          << "repeat " << repeat << " rank " << r;
    }
  });
}

TEST(Hierarchy, SpansCarryGroupAndLinkClass) {
  const int p = 8;
  const CollParams params = params_of(CollOp::kAllreduce, p, 16);
  const Schedule sched = build_hierarchical_schedule(spec_of(4), params);
  const auto inputs = make_inputs(params, DataType::kInt32, 5);

  obs::TraceRecorder rec(p);
  execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum, &rec);
  ASSERT_GT(rec.total_spans(), 0u);

  std::size_t intra = 0;
  std::size_t inter = 0;
  for (int r = 0; r < p; ++r) {
    for (const obs::SpanEvent& ev : rec.spans(r)) {
      EXPECT_EQ(ev.group, r / 4) << "rank " << r;
      if (ev.kind == obs::SpanKind::kCopyInput) continue;
      if (ev.link == obs::LinkClass::kIntra) ++intra;
      if (ev.link == obs::LinkClass::kInter) ++inter;
    }
  }
  // Both phases appear: shared-segment hops inside groups, kernel messages
  // between leaders.
  EXPECT_GT(intra, 0u);
  EXPECT_GT(inter, 0u);

  // And the metrics fold sees the same split (threaded + hierarchical is a
  // topology-carrying stream now).
  const obs::CollectiveMetrics m = obs::collect_metrics(rec);
  EXPECT_GT(m.messages_intra, 0u);
  EXPECT_GT(m.messages_inter, 0u);
  EXPECT_EQ(m.messages, m.messages_intra + m.messages_inter);
}

TEST(Hierarchy, ShmPhaseSpansTileTheirWindow) {
  // A phase over the shared segment runs its steps as one unit; its spans
  // must split the phase window, not each repeat it. The p=4 leader has
  // three receive steps in phase A: repeating the window would make them
  // overlap and count it three times.
  const int p = 4;
  const CollParams params = params_of(CollOp::kAllreduce, p, 64);
  const Schedule sched = build_hierarchical_schedule(spec_of(4), params);
  ASSERT_TRUE(sched.hier);
  const auto inputs = make_inputs(params, DataType::kInt32, 9);

  obs::TraceRecorder rec(p);
  const double t0 = obs::wallclock_us();
  execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum, &rec);
  const double call_us = obs::wallclock_us() - t0;

  for (int r = 0; r < p; ++r) {
    std::vector<obs::SpanEvent> spans = rec.spans(r);
    ASSERT_FALSE(spans.empty()) << "rank " << r;
    std::sort(spans.begin(), spans.end(),
              [](const obs::SpanEvent& a, const obs::SpanEvent& b) {
                return a.begin_us < b.begin_us;
              });
    double sum = 0.0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      EXPECT_EQ(spans[i].group, 0);
      EXPECT_LE(spans[i].begin_us, spans[i].end_us);
      sum += spans[i].end_us - spans[i].begin_us;
      if (i > 0) {
        EXPECT_GE(spans[i].begin_us, spans[i - 1].end_us)
            << "rank " << r << " steps " << spans[i - 1].step << " and "
            << spans[i].step << " overlap";
      }
    }
    EXPECT_LE(sum, spans.back().end_us - spans.front().begin_us + 1e-6)
        << "rank " << r;
    EXPECT_LE(sum, call_us) << "rank " << r;
  }
}

}  // namespace
}  // namespace gencoll::core
