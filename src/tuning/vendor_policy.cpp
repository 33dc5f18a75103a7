#include "tuning/vendor_policy.hpp"

#include <stdexcept>

#include "core/registry.hpp"

namespace gencoll::tuning {

using core::Algorithm;
using core::CollOp;

AlgorithmChoice vendor_default(CollOp op, int p, std::size_t nbytes) {
  // Ring's p-1 rounds only pay off once the per-rank block (n/p) is big
  // enough to be bandwidth-bound; vendor ladders scale that switch with the
  // communicator size.
  const std::size_t block = nbytes / static_cast<std::size_t>(std::max(p, 1));
  constexpr std::size_t kRingBlockBytes = 64u << 10;
  switch (op) {
    case CollOp::kBcast:
      // MPICH lineage: binomial for small payloads or small communicators,
      // scatter + recursive-doubling allgather for medium, scatter + ring
      // allgather once blocks are bandwidth-bound.
      if (nbytes < (12u << 10) || p < 8) return {Algorithm::kBinomial, 2};
      if (block < kRingBlockBytes) return {Algorithm::kRecursiveDoubling, 2};
      return {Algorithm::kRing, 1};
    case CollOp::kReduce:
      // Binomial for small/medium; the vendor's large-message switch lands
      // on the linear algorithm — the mis-selection the paper observed.
      if (nbytes <= (256u << 10)) return {Algorithm::kBinomial, 2};
      return {Algorithm::kLinear, 1};
    case CollOp::kGather:
      return {Algorithm::kBinomial, 2};
    case CollOp::kAllgather:
      // Recursive doubling while latency-bound, ring once bandwidth-bound.
      if (block < kRingBlockBytes) return {Algorithm::kRecursiveDoubling, 2};
      return {Algorithm::kRing, 1};
    case CollOp::kAllreduce:
      // Recursive doubling for short vectors, Rabenseifner beyond.
      if (nbytes <= (2u << 10)) return {Algorithm::kRecursiveDoubling, 2};
      return {Algorithm::kRabenseifner, 2};
    case CollOp::kScatter:
      return {Algorithm::kBinomial, 2};
    case CollOp::kReduceScatter:
      // Recursive halving for power-of-two communicators, ring otherwise.
      if ((p & (p - 1)) == 0 && p > 1) return {Algorithm::kRecursiveHalving, 1};
      return {Algorithm::kRing, 1};
    case CollOp::kAlltoall:
      // Direct spray for small per-pair payloads, pairwise beyond.
      if (nbytes < (32u << 10)) return {Algorithm::kLinear, 1};
      return {Algorithm::kPairwise, 1};
    case CollOp::kBarrier:
      return {Algorithm::kRecursiveDoubling, 2};  // classic dissemination
    case CollOp::kScan:
      return {Algorithm::kRecursiveDoubling, 2};  // Hillis-Steele at k=2
  }
  throw std::invalid_argument("vendor_default: bad op");
}

AlgorithmChoice fixed_radix_baseline(Algorithm generalized) {
  switch (generalized) {
    case Algorithm::kKnomial:
      return {Algorithm::kBinomial, 2};
    case Algorithm::kRecursiveMultiplying:
      return {Algorithm::kRecursiveDoubling, 2};
    case Algorithm::kKring:
      return {Algorithm::kRing, 1};
    default:
      return {generalized, core::effective_radix(generalized, 2)};
  }
}

}  // namespace gencoll::tuning
