// Arm space for online collective selection.
//
// The paper turns collective performance into a selection problem: the best
// (algorithm, k, g) shifts with message size, p, and machine state. The
// online selector (bandit.hpp) treats each candidate configuration as a
// bandit *arm* and keeps independent statistics per *key* — the
// (collective, size-class, tenant) triple — so a tenant's 4 MiB allreduce
// and its 128 B residual norm learn separately, and two tenants with
// different tempos never pollute each other's estimates.
//
// Size classes are power-of-two byte buckets (class c covers [2^c, 2^(c+1))
// bytes; class 0 also absorbs the 0- and 1-byte payloads), matching how
// every tuning table in the repo segments the size axis.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/coll_params.hpp"
#include "tuning/vendor_policy.hpp"

namespace gencoll::service {

/// Power-of-two bucket index of a payload size: floor(log2(nbytes)), with
/// 0- and 1-byte payloads in class 0.
int size_class(std::size_t nbytes);

/// Inclusive lower byte bound of a class (0 for class 0).
std::size_t size_class_min_bytes(int cls);

/// Exclusive upper byte bound of a class (SIZE_MAX for the top class).
std::size_t size_class_max_bytes(int cls);

/// One bandit context: statistics are independent per key.
struct ArmKey {
  core::CollOp op = core::CollOp::kBcast;
  int size_class = 0;
  int tenant = 0;

  friend bool operator<(const ArmKey& a, const ArmKey& b) {
    if (a.op != b.op) return a.op < b.op;
    if (a.size_class != b.size_class) return a.size_class < b.size_class;
    return a.tenant < b.tenant;
  }
  friend bool operator==(const ArmKey& a, const ArmKey& b) {
    return a.op == b.op && a.size_class == b.size_class && a.tenant == b.tenant;
  }

  [[nodiscard]] std::string describe() const;
};

/// One candidate configuration: the tunables the paper's generalized
/// framework exposes, including the hierarchical composition. The transport
/// picks its intra-group route (core/hierarchy.hpp runs_on_shm_tree), so that
/// is not an arm dimension.
struct Arm {
  core::Algorithm algorithm = core::Algorithm::kBinomial;
  int k = 2;
  int group_size = 1;  ///< 1 = flat

  friend bool operator==(const Arm&, const Arm&) = default;

  [[nodiscard]] std::string describe() const;
};

/// Arm <-> selection-config choice mapping (lossless: the fields coincide).
Arm arm_of(const tuning::AlgorithmChoice& choice);
tuning::AlgorithmChoice choice_of(const Arm& arm);

struct ArmSpaceOptions {
  /// Radix candidates to intersect with core::candidate_radixes; empty = a
  /// pruned default ({1, 2, 3, 4, 8, 16}) that keeps per-key arm counts in
  /// the tens so bounded exploration converges inside a soak run.
  std::vector<int> radixes;
  /// Hierarchical group sizes to offer (only divisors of p with >= 2 leaders
  /// survive); empty = {2, 4, 8}.
  std::vector<int> group_sizes;
};

/// Every arm buildable for (op, p) at this exact payload shape: flat arms
/// from the registry (deduplicated by effective radix) plus hierarchical
/// compositions core/hierarchy.hpp supports. Never empty for ops with at
/// least one registered algorithm.
std::vector<Arm> enumerate_arms(core::CollOp op, int p, std::size_t count,
                                std::size_t elem_size,
                                const ArmSpaceOptions& options = {});

}  // namespace gencoll::service
