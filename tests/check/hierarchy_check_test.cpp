// The symbolic prover over composed hierarchical schedules: clean proofs
// across ops/groups/inter-kernels, and mutation tests showing the prover
// actually catches broken compositions — a dropped leader fan-out, a
// transposed intra-phase placement, and traffic the closed form does not
// account for.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>

#include "check/check.hpp"
#include "core/hierarchy.hpp"

namespace gencoll::check {
namespace {

using core::Algorithm;
using core::CollOp;
using core::CollParams;
using core::HierSpec;
using core::Schedule;
using core::Step;
using core::StepKind;

CollParams params_of(CollOp op, int p, std::size_t count, int root = 0) {
  CollParams params;
  params.op = op;
  params.p = p;
  params.count = count;
  params.elem_size = 4;
  params.root = root;
  return params;
}

Schedule hier_schedule(CollOp op, int p, int g, Algorithm inter, int k,
                       std::size_t count, int root = 0) {
  HierSpec spec;
  spec.group_size = g;
  spec.inter_alg = inter;
  spec.inter_k = k;
  return core::build_hierarchical_schedule(spec, params_of(op, p, count, root));
}

bool has_violation(const CheckReport& report, ViolationKind kind) {
  return std::any_of(report.violations.begin(), report.violations.end(),
                     [kind](const Violation& v) { return v.kind == kind; });
}

TEST(HierarchyCheck, CleanCompositionsProve) {
  struct Case {
    CollOp op;
    int p;
    int g;
    Algorithm inter;
    int k;
    int root;
  };
  const Case cases[] = {
      {CollOp::kBcast, 16, 4, Algorithm::kKnomial, 3, 5},
      {CollOp::kReduce, 16, 2, Algorithm::kKnomial, 2, 7},
      {CollOp::kAllreduce, 32, 8, Algorithm::kRecursiveMultiplying, 2, 0},
      {CollOp::kAllreduce, 24, 4, Algorithm::kKring, 3, 0},
      {CollOp::kAllgather, 16, 4, Algorithm::kKring, 2, 0},
      {CollOp::kAllgather, 64, 8, Algorithm::kKnomial, 4, 0},
  };
  for (const Case& c : cases) {
    const Schedule sched =
        hier_schedule(c.op, c.p, c.g, c.inter, c.k, 64, c.root);
    const CheckReport report = check_schedule(sched, c.inter);
    EXPECT_TRUE(report.ok()) << sched.name << ": "
                             << (report.violations.empty()
                                     ? ""
                                     : describe(report.violations.front()));
  }
}

Schedule hier_levels_schedule(CollOp op, int p, std::vector<int> levels,
                              Algorithm inter, int k, std::size_t count,
                              int root = 0) {
  HierSpec spec;
  spec.levels = std::move(levels);
  spec.inter_alg = inter;
  spec.inter_k = k;
  return core::build_hierarchical_schedule(spec, params_of(op, p, count, root));
}

TEST(HierarchyCheck, MultiLevelAndRaggedCompositionsProve) {
  // Level-vector trees — partitioned concurrent fan-in, tree fan-out —
  // through the full prover, including the multi-level closed form
  // (conformance dispatches on HierInfo::levels). The last three shapes are
  // ragged (g does not divide p).
  struct Case {
    CollOp op;
    int p;
    std::vector<int> levels;
    Algorithm inter;
    int k;
    int root;
  };
  const Case cases[] = {
      {CollOp::kAllreduce, 32, {2, 4}, Algorithm::kRecursiveMultiplying, 2, 0},
      {CollOp::kBcast, 16, {2, 2}, Algorithm::kKnomial, 2, 5},
      {CollOp::kReduce, 16, {2, 2, 2}, Algorithm::kKnomial, 2, 7},
      {CollOp::kAllgather, 16, {2, 2}, Algorithm::kKring, 2, 0},
      {CollOp::kAllreduce, 12, {2, 4}, Algorithm::kRecursiveMultiplying, 2, 0},
      {CollOp::kReduce, 6, {4}, Algorithm::kKnomial, 2, 5},
      {CollOp::kBcast, 12, {2, 4}, Algorithm::kKnomial, 2, 11},
  };
  for (const Case& c : cases) {
    const Schedule sched =
        hier_levels_schedule(c.op, c.p, c.levels, c.inter, c.k, 64, c.root);
    const CheckReport report = check_schedule(sched, c.inter);
    EXPECT_TRUE(report.ok()) << sched.name << ": "
                             << (report.violations.empty()
                                     ? ""
                                     : describe(report.violations.front()));
  }
}

TEST(HierarchyCheck, SwappedPartitionChunksAreProvenanceViolation) {
  // Partitioned concurrent fan-in on a {4} tree: three members fold three
  // disjoint chunks into the leader. Swapping the landing offsets of two
  // equal-length chunk reduces leaves sizes and totals intact — only the
  // provenance replay sees the bytes fold into the wrong partition.
  Schedule sched = hier_levels_schedule(CollOp::kAllreduce, 8, {4},
                                        Algorithm::kRecursiveMultiplying, 2, 64);
  auto& leader = sched.ranks[0].steps;
  std::vector<std::size_t> chunk_folds;
  for (std::size_t i = 0; i < leader.size(); ++i) {
    if (leader[i].kind == StepKind::kRecvReduce &&
        leader[i].tag >= core::kHierFaninTag &&
        leader[i].tag < core::kHierFanoutTag) {
      chunk_folds.push_back(i);
    }
  }
  bool swapped = false;
  for (std::size_t a = 0; a < chunk_folds.size() && !swapped; ++a) {
    for (std::size_t b = a + 1; b < chunk_folds.size() && !swapped; ++b) {
      Step& sa = leader[chunk_folds[a]];
      Step& sb = leader[chunk_folds[b]];
      if (sa.bytes == sb.bytes && sa.off != sb.off) {
        std::swap(sa.off, sb.off);
        swapped = true;
      }
    }
  }
  ASSERT_TRUE(swapped) << "no equal-length chunk pair to transpose";
  const CheckReport report =
      check_schedule(sched, Algorithm::kRecursiveMultiplying);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_violation(report, ViolationKind::kProvenance))
      << describe(report.violations.front());
}

TEST(HierarchyCheck, MultiLevelConformanceTracksLevelVector) {
  // Byte totals are level-shape independent but chain depth is not: a {2,2}
  // schedule whose metadata lies "flat intra" must fail conformance on the
  // rounds invariant — proving the closed form consumes the level vector.
  Schedule sched = hier_levels_schedule(CollOp::kAllreduce, 16, {2, 2},
                                        Algorithm::kRecursiveMultiplying, 2, 64);
  EXPECT_TRUE(check_schedule(sched, Algorithm::kRecursiveMultiplying).ok());
  ASSERT_TRUE(sched.hier.has_value());
  sched.hier->levels.clear();
  const CheckReport flat =
      check_schedule(sched, Algorithm::kRecursiveMultiplying);
  EXPECT_TRUE(has_violation(flat, ViolationKind::kConformance));
}

TEST(HierarchyCheck, DroppedLeaderFanoutIsProvenanceViolation) {
  // Remove one leader->member fan-out pair from an allreduce: that member
  // ends without the reduced result, which the provenance replay must flag.
  Schedule sched = hier_schedule(CollOp::kAllreduce, 8, 4,
                                 Algorithm::kRecursiveMultiplying, 2, 64);
  auto& leader = sched.ranks[0].steps;
  auto& member = sched.ranks[1].steps;
  const auto send = std::find_if(leader.begin(), leader.end(), [](const Step& s) {
    return s.kind == StepKind::kSend && s.tag >= core::kHierFanoutTag &&
           s.peer == 1;
  });
  ASSERT_NE(send, leader.end());
  leader.erase(send);
  const auto recv = std::find_if(member.begin(), member.end(), [](const Step& s) {
    return s.kind == StepKind::kRecv && s.tag >= core::kHierFanoutTag;
  });
  ASSERT_NE(recv, member.end());
  member.erase(recv);
  // The phase boundaries still index valid prefixes (both erased steps sit in
  // the fan-out tail), so this exercises the prover, not the validator.
  const CheckReport report =
      check_schedule(sched, Algorithm::kRecursiveMultiplying);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_violation(report, ViolationKind::kProvenance))
      << describe(report.violations.front());
}

TEST(HierarchyCheck, TransposedIntraOffsetsAreProvenanceViolation) {
  // Swap the destination offsets of two fan-in receives on an allgather
  // leader: blocks land permuted, sizes and totals unchanged — only the
  // provenance replay can see it.
  Schedule sched =
      hier_schedule(CollOp::kAllgather, 16, 4, Algorithm::kKring, 2, 64);
  auto& leader = sched.ranks[0].steps;
  std::vector<std::size_t> fan_in;
  for (std::size_t i = 0; i < leader.size(); ++i) {
    if (leader[i].kind == StepKind::kRecv &&
        leader[i].tag >= core::kHierFaninTag &&
        leader[i].tag < core::kHierFanoutTag) {
      fan_in.push_back(i);
    }
  }
  ASSERT_GE(fan_in.size(), 2u);
  std::swap(leader[fan_in[0]].off, leader[fan_in[1]].off);
  const CheckReport report = check_schedule(sched, Algorithm::kKring);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_violation(report, ViolationKind::kProvenance))
      << describe(report.violations.front());
}

TEST(HierarchyCheck, DuplicatedFanoutTrafficBreaksConformance) {
  // Append a redundant leader->member copy of the already-correct result:
  // provenance stays right (same bytes, same contributions) but the traffic
  // no longer equals the hierarchical closed form.
  Schedule sched = hier_schedule(CollOp::kAllreduce, 8, 4,
                                 Algorithm::kRecursiveMultiplying, 2, 64);
  const std::size_t n = sched.params.nbytes();
  const int tag = core::kHierFanoutTag + 4242;
  sched.ranks[0].send(1, tag, 0, n);
  sched.ranks[1].recv(0, tag, 0, n);
  const CheckReport report =
      check_schedule(sched, Algorithm::kRecursiveMultiplying);
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(has_violation(report, ViolationKind::kConformance))
      << describe(report.violations.front());
  EXPECT_FALSE(has_violation(report, ViolationKind::kProvenance));
}

TEST(HierarchyCheck, ConformanceTracksHierClosedFormExactly) {
  // The composed totals are an exact invariant: the same schedule checked
  // against the flat closed form (hier metadata stripped) must NOT conform —
  // proving the hierarchical branch of the conformance check is live.
  Schedule sched = hier_schedule(CollOp::kAllreduce, 16, 4,
                                 Algorithm::kRecursiveMultiplying, 2, 64);
  EXPECT_TRUE(check_schedule(sched, Algorithm::kRecursiveMultiplying).ok());
  sched.hier.reset();
  const CheckReport flat =
      check_schedule(sched, Algorithm::kRecursiveMultiplying);
  EXPECT_TRUE(has_violation(flat, ViolationKind::kConformance));
}

}  // namespace
}  // namespace gencoll::check
