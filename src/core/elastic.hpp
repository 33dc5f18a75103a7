// Elastic retry driver: transparently re-executes an interrupted collective
// over the survivors after a shrink recovery (DESIGN.md section 11).
//
// Under runtime::CrashPolicy::kShrink a rank death revokes the membership
// epoch instead of poisoning the World. Every survivor's blocking wait wakes
// with FaultError(kRevoked); this driver catches it, joins the survivor
// agreement (runtime/membership.hpp), adopts the new epoch's dense rank
// numbering (Communicator::apply_epoch), rebuilds the schedule for the
// shrunk p' — hierarchy repaired or flattened, radix re-fit — and retries
// the whole collective from fresh inputs. Every rebuilt schedule goes
// through registry::build_schedule / build_hierarchical_schedule and is
// therefore submitted to the installed schedule auditor: when the tests
// install the symbolic prover there, every shrunk schedule is proven
// (provenance multiset over the survivors) before the retry executes it.
//
// Completion is committed through the membership's commit rendezvous: a rank
// whose step program finishes just before a late peer crash does NOT return
// a full-p result — the rendezvous fails, and it shrinks and retries with
// the rest of the survivors, so all delivered results agree on the epoch.
//
// One phase machine per rank does all of this (start -> execute -> commit,
// recover -> start). The threaded engine and execute_rank_elastic run it to
// completion in blocking mode; the event engine (core/event_exec.hpp)
// advances the same machine in resumable slices, so both engines shrink,
// commit and report identically.
#pragma once

#include <cstddef>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "core/coll_params.hpp"
#include "core/executor.hpp"
#include "core/hierarchy.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/datatype.hpp"
#include "runtime/reduce_op.hpp"
#include "runtime/world.hpp"

namespace gencoll::core {

/// Re-supplies one rank's input before every attempt. Called with the
/// attempt's (possibly shrunk) params and the caller's dense rank; must
/// return exactly input_bytes(params, dense_rank) bytes. ULFM semantics:
/// after a shrink the application re-shards its contribution over the
/// survivors (for p-dependent layouts like Allgather blocks); p-independent
/// ops (Bcast/Reduce/Allreduce/Scan) can simply return the original input.
using InputProvider =
    std::function<std::vector<std::byte>(const CollParams& params, int dense_rank)>;

/// What one rank's elastic execution went through.
struct ElasticReport {
  int attempts = 0;     ///< executions tried, the committed one included
  int shrinks = 0;      ///< epochs installed (recoveries survived)
  int final_p = 0;      ///< survivor count of the committing epoch
  int final_epoch = 0;  ///< epoch the result was committed in
  std::string schedule_name;         ///< committed schedule's name
  double recovery_latency_ms = 0.0;  ///< total revoke-to-retry-ready time
  std::vector<int> survivors;        ///< original ranks of the final epoch
};

/// How to build each attempt's schedule.
struct ElasticOptions {
  /// Preferred flat algorithm. Re-fit per attempt: if (alg, k) does not
  /// support the shrunk p', the driver sweeps candidate_radixes, then every
  /// algorithm registered for the op, before giving up.
  Algorithm alg = Algorithm::kKnomial;
  /// Hierarchical composition. Repaired per attempt: the original group
  /// size is retried first, then g' in {2, 4, 8} dividing p'; when no
  /// composition fits, the driver falls back to a flat schedule built from
  /// spec.inter_alg. A dead leader needs no special case — the dense remap
  /// promotes the next surviving member into the leader position.
  std::optional<HierSpec> hier;
  ExecTuning tuning;
  obs::TraceSink* sink = nullptr;
};

/// Build the schedule for one attempt's parameters following the fallback
/// chain above. Throws UnsupportedParams when nothing fits. Exposed so
/// tests can prove the schedule a shrink rebuilds.
Schedule build_elastic_schedule(const ElasticOptions& options, CollParams params);

/// Run one rank of an elastic collective to commit. `params` describes the
/// ORIGINAL problem (params.p ranks, params.root an original rank); the
/// driver rescales both across shrinks. Returns the committed epoch's output
/// buffer for this rank (output_bytes of the final params). Throws
/// FaultError(kRankDeath) when this rank itself dies or is declared dead,
/// and FaultError(kRetriesExhausted) past the configured recovery cap.
std::vector<std::byte> execute_rank_elastic(runtime::Communicator& comm,
                                            const CollParams& params,
                                            runtime::DataType type,
                                            runtime::ReduceOp op,
                                            const ElasticOptions& options,
                                            const InputProvider& provider,
                                            ElasticReport* report = nullptr);

/// Front end: run params.p ranks under `world_options` (which should resolve
/// to CrashPolicy::kShrink — under kAbort this degenerates to plain
/// fail-fast execution) on the engine it selects (explicit option >
/// GENCOLL_EXECUTOR > threaded), each rank through the phase machine.
/// Returns outputs indexed by ORIGINAL rank; dead ranks' entries are empty.
/// `reports`, when non-null, receives one entry per original rank (dead
/// ranks keep default-constructed reports).
std::vector<std::vector<std::byte>> execute_threaded_elastic(
    const CollParams& params, runtime::DataType type, runtime::ReduceOp op,
    const ElasticOptions& options, const InputProvider& provider,
    const runtime::WorldOptions& world_options,
    std::vector<ElasticReport>* reports = nullptr);

}  // namespace gencoll::core
