#include "core/registry.hpp"

#include <stdexcept>

#include "core/algorithms.hpp"

namespace gencoll::core {

namespace {
ScheduleAuditor& schedule_auditor() {
  static ScheduleAuditor auditor;
  return auditor;
}
}  // namespace

ScheduleAuditor set_schedule_auditor(ScheduleAuditor auditor) {
  ScheduleAuditor previous = std::move(schedule_auditor());
  schedule_auditor() = std::move(auditor);
  return previous;
}

const ScheduleAuditor& current_schedule_auditor() { return schedule_auditor(); }

namespace {
// Static tables, so support queries on the collective hot path allocate
// nothing.
constexpr Algorithm kBcastAlgs[] = {
    Algorithm::kLinear, Algorithm::kBinomial, Algorithm::kKnomial,
    Algorithm::kRecursiveDoubling, Algorithm::kRecursiveMultiplying,
    Algorithm::kRing, Algorithm::kKring, Algorithm::kPipeline};
constexpr Algorithm kRootedAlgs[] = {  // reduce, gather, scatter
    Algorithm::kLinear, Algorithm::kBinomial, Algorithm::kKnomial};
constexpr Algorithm kAllgatherAlgs[] = {
    Algorithm::kLinear, Algorithm::kBinomial, Algorithm::kKnomial,
    Algorithm::kRecursiveDoubling, Algorithm::kRecursiveMultiplying,
    Algorithm::kRing, Algorithm::kKring, Algorithm::kBruck};
constexpr Algorithm kAllreduceAlgs[] = {
    Algorithm::kBinomial, Algorithm::kKnomial,
    Algorithm::kRecursiveDoubling, Algorithm::kRecursiveMultiplying,
    Algorithm::kRing, Algorithm::kKring, Algorithm::kRabenseifner};
constexpr Algorithm kReduceScatterAlgs[] = {Algorithm::kRing,
                                            Algorithm::kRecursiveHalving};
constexpr Algorithm kAlltoallAlgs[] = {Algorithm::kLinear, Algorithm::kPairwise};
constexpr Algorithm kBarrierAlgs[] = {Algorithm::kRecursiveDoubling,
                                      Algorithm::kDissemination};
constexpr Algorithm kScanAlgs[] = {Algorithm::kLinear,
                                   Algorithm::kRecursiveDoubling,
                                   Algorithm::kRecursiveMultiplying};
}  // namespace

std::span<const Algorithm> algorithms_for(CollOp op) {
  switch (op) {
    case CollOp::kBcast: return kBcastAlgs;
    case CollOp::kReduce:
    case CollOp::kGather:
    case CollOp::kScatter: return kRootedAlgs;
    case CollOp::kAllgather: return kAllgatherAlgs;
    case CollOp::kAllreduce: return kAllreduceAlgs;
    case CollOp::kReduceScatter: return kReduceScatterAlgs;
    case CollOp::kAlltoall: return kAlltoallAlgs;
    case CollOp::kBarrier: return kBarrierAlgs;
    case CollOp::kScan: return kScanAlgs;
  }
  return {};
}

bool supports(CollOp op, Algorithm alg) {
  for (Algorithm a : algorithms_for(op)) {
    if (a == alg) return true;
  }
  return false;
}

int effective_radix(Algorithm alg, int k) {
  switch (alg) {
    case Algorithm::kBinomial:
    case Algorithm::kRecursiveDoubling:
      return 2;
    case Algorithm::kRing:
      return 1;
    case Algorithm::kLinear:
    case Algorithm::kRabenseifner:
    case Algorithm::kBruck:
    case Algorithm::kRecursiveHalving:
    case Algorithm::kPairwise:
      return 1;  // radix is meaningless; normalized for cache keys
    case Algorithm::kKnomial:
    case Algorithm::kRecursiveMultiplying:
    case Algorithm::kKring:
    case Algorithm::kDissemination:
    case Algorithm::kPipeline:
      return k;
  }
  return k;
}

bool supports_params(Algorithm alg, const CollParams& params) {
  if (!supports(params.op, alg)) return false;
  const int k = effective_radix(alg, params.k);
  switch (alg) {
    case Algorithm::kKnomial:
    case Algorithm::kRecursiveMultiplying:
    case Algorithm::kDissemination:
      return k >= 2;
    case Algorithm::kKring:
      // Non-uniform groups supported: the last group may be smaller.
      return k >= 1 && k <= params.p;
    case Algorithm::kPipeline:
      return k >= 1;
    case Algorithm::kRecursiveHalving:
      return (params.p & (params.p - 1)) == 0;
    default:
      return true;
  }
}

std::vector<int> candidate_radixes(CollOp op, Algorithm alg, int p) {
  if (!supports(op, alg)) return {};
  switch (alg) {
    case Algorithm::kKnomial:
    case Algorithm::kRecursiveMultiplying:
    case Algorithm::kDissemination: {
      std::vector<int> ks;
      for (int k = 2; k <= p; ++k) ks.push_back(k);
      if (ks.empty()) ks.push_back(2);  // p == 1 degenerate
      return ks;
    }
    case Algorithm::kKring: {
      std::vector<int> ks;
      for (int k = 1; k <= p; ++k) ks.push_back(k);
      return ks;
    }
    case Algorithm::kRecursiveHalving:
      return (p & (p - 1)) == 0 ? std::vector<int>{1} : std::vector<int>{};
    case Algorithm::kPipeline: {
      // Segment counts worth sweeping (independent of p).
      return {1, 2, 4, 8, 16, 32};
    }
    default:
      return {effective_radix(alg, 2)};
  }
}

Schedule build_schedule(Algorithm alg, const CollParams& params) {
  if (!supports(params.op, alg)) {
    throw std::invalid_argument(std::string("no implementation of ") +
                                coll_op_name(params.op) + " for algorithm " +
                                algorithm_name(alg));
  }
  // Fixed-radix baselines are the generalized kernels pinned at their
  // default radix — by construction, not just by analogy (paper §VI-B
  // isolates "the improvement gained by generalization" this way).
  CollParams effective = params;
  effective.k = effective_radix(alg, params.k);
  if (params.op == CollOp::kBarrier) {
    // Barriers carry no payload; normalize so sweeps can probe them with
    // the same size ladder as data collectives.
    effective.count = 0;
    effective.elem_size = 1;
  }
  const Algorithm kernel = generalized_counterpart(alg);

  Schedule sched;
  switch (kernel) {
    case Algorithm::kKnomial:
      switch (params.op) {
        case CollOp::kBcast: sched = build_knomial_bcast(effective); break;
        case CollOp::kReduce: sched = build_knomial_reduce(effective); break;
        case CollOp::kGather: sched = build_knomial_gather(effective); break;
        case CollOp::kAllgather: sched = build_knomial_allgather(effective); break;
        case CollOp::kAllreduce: sched = build_knomial_allreduce(effective); break;
        case CollOp::kScatter: sched = build_knomial_scatter(effective); break;
        default:
          throw std::invalid_argument("k-nomial: unsupported op");
      }
      break;
    case Algorithm::kRecursiveMultiplying:
      switch (params.op) {
        case CollOp::kBcast: sched = build_recmul_bcast(effective); break;
        case CollOp::kAllgather: sched = build_recmul_allgather(effective); break;
        case CollOp::kAllreduce: sched = build_recmul_allreduce(effective); break;
        // The dissemination barrier is this kernel's barrier form (the
        // classic dissemination barrier is its k=2 pin).
        case CollOp::kBarrier: sched = build_dissemination_barrier(effective); break;
        // Likewise the k-ary Hillis-Steele scan generalizes the
        // recursive-doubling scan.
        case CollOp::kScan: sched = build_hillis_steele_scan(effective); break;
        default:
          throw std::invalid_argument("recursive multiplying: unsupported op");
      }
      break;
    case Algorithm::kKring:
      switch (params.op) {
        case CollOp::kBcast: sched = build_kring_bcast(effective); break;
        case CollOp::kAllgather: sched = build_kring_allgather(effective); break;
        case CollOp::kAllreduce: sched = build_kring_allreduce(effective); break;
        case CollOp::kReduceScatter:
          // Reachable via the ring baseline only (k pinned to 1).
          sched = build_ring_reduce_scatter(effective);
          break;
        default:
          throw std::invalid_argument("k-ring: unsupported op");
      }
      break;
    case Algorithm::kLinear:
      switch (params.op) {
        case CollOp::kBcast: sched = build_linear_bcast(effective); break;
        case CollOp::kReduce: sched = build_linear_reduce(effective); break;
        case CollOp::kGather: sched = build_linear_gather(effective); break;
        case CollOp::kAllgather: sched = build_linear_allgather(effective); break;
        case CollOp::kScatter: sched = build_linear_scatter(effective); break;
        case CollOp::kAlltoall: sched = build_direct_alltoall(effective); break;
        case CollOp::kScan: sched = build_linear_scan(effective); break;
        default:
          throw std::invalid_argument("linear: unsupported op");
      }
      break;
    case Algorithm::kRabenseifner:
      sched = build_rabenseifner_allreduce(effective);
      break;
    case Algorithm::kBruck:
      sched = build_bruck_allgather(effective);
      break;
    case Algorithm::kRecursiveHalving:
      sched = build_rechalving_reduce_scatter(effective);
      break;
    case Algorithm::kPairwise:
      sched = build_pairwise_alltoall(effective);
      break;
    case Algorithm::kDissemination:
      sched = build_dissemination_barrier(effective);
      break;
    case Algorithm::kPipeline:
      sched = build_pipeline_bcast(effective);
      break;
    default:
      throw std::invalid_argument("build_schedule: unreachable kernel");
  }
  // Report under the requested (baseline) name so Fig. 7-style comparisons
  // label both sides distinctly.
  if (alg != kernel) sched.name = algorithm_name(alg);
  if (const ScheduleAuditor& audit = schedule_auditor()) audit(sched, alg);
  return sched;
}

Algorithm generalized_counterpart(Algorithm alg) {
  switch (alg) {
    case Algorithm::kBinomial: return Algorithm::kKnomial;
    case Algorithm::kRecursiveDoubling: return Algorithm::kRecursiveMultiplying;
    case Algorithm::kRing: return Algorithm::kKring;
    default: return alg;
  }
}

std::vector<KernelInfo> kernel_table() {
  return {
      // Gather is also implemented (the paper's Fig. 1 walks through it) but
      // Table I's 10 implementations count the four headline collectives.
      {Algorithm::kBinomial,
       Algorithm::kKnomial,
       {CollOp::kReduce, CollOp::kBcast, CollOp::kAllgather, CollOp::kAllreduce}},
      {Algorithm::kRecursiveDoubling,
       Algorithm::kRecursiveMultiplying,
       {CollOp::kBcast, CollOp::kAllgather, CollOp::kAllreduce}},
      {Algorithm::kRing,
       Algorithm::kKring,
       {CollOp::kBcast, CollOp::kAllgather, CollOp::kAllreduce}},
  };
}

}  // namespace gencoll::core
