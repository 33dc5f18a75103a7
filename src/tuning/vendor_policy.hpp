// Emulated vendor-MPI algorithm selection (the paper's Cray MPI baseline).
//
// The paper uses Cray MPI only as a selection-policy baseline: which
// fixed-radix algorithm a production library picks per (op, size, scale).
// This table mirrors the MPICH-lineage defaults a vendor MPI ships,
// including the coarse large-message Reduce switch to the linear algorithm
// that §VI-C pins as the source of the >4.5x speedup outlier.
#pragma once

#include <cstddef>
#include <vector>

#include "core/coll_params.hpp"

namespace gencoll::tuning {

struct AlgorithmChoice {
  core::Algorithm algorithm = core::Algorithm::kBinomial;
  int k = 2;  ///< effective radix (informational for fixed-radix baselines)
  /// Hierarchical composition (core/hierarchy.hpp): group ranks in blocks of
  /// group_size and run `algorithm` over the leaders. 1 = flat (default).
  /// The intra-group route is not part of the choice: the transport picks it
  /// (core/hierarchy.hpp runs_on_shm_tree).
  int group_size = 1;
  /// Intra-group level vector (core/hierarchy.hpp HierSpec::levels): empty =
  /// the one-level flat fan-in; non-empty = the multi-level tree, and
  /// group_size must equal its product. Kept last so positional aggregate
  /// initialization of the earlier fields stays valid.
  std::vector<int> levels;
  /// A `hier 1` rule clause: flat, and exempt from the co-located default
  /// composition (api/gencoll.hpp).
  bool flat_pinned = false;
};

/// The vendor default for (op, p, nbytes).
AlgorithmChoice vendor_default(core::CollOp op, int p, std::size_t nbytes);

/// The non-generalized MPICH default used as the paper's second baseline
/// ("we fixed MPICH's algorithm selection to the non-generalized version of
/// the comparative algorithm"): the base kernel of `generalized`.
AlgorithmChoice fixed_radix_baseline(core::Algorithm generalized);

}  // namespace gencoll::tuning
