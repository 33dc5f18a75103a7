// Autotuner: exhaustively benchmark every (algorithm, radix) candidate on
// the network simulator and emit a SelectionConfig — the automation the
// paper ships as its new MPICH selection configuration (§VI-G).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/coll_params.hpp"
#include "netsim/machine.hpp"
#include "netsim/simulator.hpp"
#include "tuning/selector.hpp"

namespace gencoll::tuning {

struct AutotuneOptions {
  /// Message sizes to probe (bytes). Consecutive probes become the rule
  /// boundaries; defaults to the OSU sweep when empty.
  std::vector<std::uint64_t> sizes;
  /// Radix candidates per generalized algorithm; empty = a pruned default
  /// set (powers of two plus the machine's port count and ppn) to keep
  /// exhaustive sweeps tractable, mirroring the paper's 1024-node method.
  std::vector<int> radixes;
  /// Hierarchical group sizes to sweep for the ops core/hierarchy.hpp can
  /// compose (group_size 1 — the flat candidates — is always swept). Empty =
  /// {2, 4, 8} plus the machine's ppn; {1} alone disables the hier sweep.
  /// Every swept g also tries its two-factor level splits {a, g/a} (a | g,
  /// both factors >= 2) as multi-level intra-tree candidates, so the tuner
  /// can discover when a NUMA x core shape beats the flat fan-in.
  std::vector<int> group_sizes;
  netsim::SimOptions sim;
};

struct MeasuredPoint {
  core::CollOp op = core::CollOp::kBcast;
  std::size_t nbytes = 0;
  core::Algorithm algorithm = core::Algorithm::kBinomial;
  int k = 2;
  int group_size = 1;  ///< 1 = flat; >1 = hier composition over ceil(p/g) leaders
  double latency_us = 0.0;
  /// Intra-group level vector of a hier candidate (empty = flat fan-in).
  std::vector<int> levels;
};

struct AutotuneReport {
  SelectionConfig config;
  std::vector<MeasuredPoint> winners;      ///< best per (op, size)
  std::vector<MeasuredPoint> all_points;   ///< every candidate measured
};

/// Candidate radix list actually used for (alg, op) on this machine.
std::vector<int> pruned_radixes(core::CollOp op, core::Algorithm alg, int p,
                                const netsim::MachineConfig& machine,
                                const std::vector<int>& requested);

/// Tune one collective operation.
AutotuneReport autotune_op(core::CollOp op, const netsim::MachineConfig& machine,
                           const AutotuneOptions& options = {});

/// Tune all five collectives into one config.
AutotuneReport autotune_all(const netsim::MachineConfig& machine,
                            const AutotuneOptions& options = {});

}  // namespace gencoll::tuning
