// Algorithm registry: which algorithms implement which collectives (the
// paper's Table I plus baselines), parameter support queries, and the
// single dispatch point that compiles CollParams into a Schedule.
#pragma once

#include <functional>
#include <span>
#include <string>
#include <vector>

#include "core/coll_params.hpp"
#include "core/schedule.hpp"

namespace gencoll::core {

/// All algorithms implementing `op`, baselines included (a view of a static
/// table: no allocation).
std::span<const Algorithm> algorithms_for(CollOp op);

/// True if (op, alg) is implemented at all.
bool supports(CollOp op, Algorithm alg);

/// True if the (op, alg) pair can be built with these exact parameters
/// (e.g. k-ring needs k | p; tree/recursive kernels need k >= 2).
bool supports_params(Algorithm alg, const CollParams& params);

/// Radix values worth sweeping for (alg, p): the divisors of p for k-ring,
/// 2..p for the tree/recursive kernels, a singleton for fixed-radix
/// baselines. Never empty for supported pairs.
std::vector<int> candidate_radixes(CollOp op, Algorithm alg, int p);

/// Effective radix a fixed-radix baseline pins (2 for binomial/recursive
/// doubling, 1 for ring); returns params.k for generalized algorithms.
int effective_radix(Algorithm alg, int k);

/// Build the schedule. Throws UnsupportedParams when !supports_params, and
/// std::invalid_argument when (op, alg) is not implemented.
Schedule build_schedule(Algorithm alg, const CollParams& params);

/// Auditor invoked on every schedule build_schedule() produces, after name
/// fix-up — the hook point the symbolic checker (src/check/) uses to prove
/// every compiled schedule, not just the ones a test thought to cover. The
/// second argument is the algorithm the schedule was requested as (baselines
/// keep their own identity even though a generalized kernel built them).
/// Exceptions propagate to the build_schedule caller. Not thread-safe:
/// install before spawning workers. Returns the previous auditor (empty by
/// default) so scoped installs can restore it.
using ScheduleAuditor = std::function<void(const Schedule&, Algorithm)>;
ScheduleAuditor set_schedule_auditor(ScheduleAuditor auditor);

/// The currently installed auditor (may be empty). Exposed so composing
/// builders outside the registry — build_hierarchical_schedule in
/// core/hierarchy.cpp — can submit their finished schedules to the same
/// audit the registry applies.
const ScheduleAuditor& current_schedule_auditor();

/// The generalized kernel corresponding to a fixed-radix baseline
/// (binomial -> knomial, recursive_doubling -> recursive_multiplying,
/// ring -> kring); identity for everything else. Used by the Fig. 7
/// "generalization causes no slowdown" experiment.
Algorithm generalized_counterpart(Algorithm alg);

/// Rows of the paper's Table I: generalized kernel name, base kernel name,
/// and the collectives it implements.
struct KernelInfo {
  Algorithm base;
  Algorithm generalized;
  std::vector<CollOp> ops;
};
std::vector<KernelInfo> kernel_table();

}  // namespace gencoll::core
