// Schedule executor: runs a Schedule on the in-process runtime with real
// buffers, one thread per rank by default or on the event engine
// (core/event_exec.hpp). Both engines step through schedules with the one
// interpreter declared here (exec_detail::ScheduleRunner). This is the
// correctness path — every algorithm's data movement is proven here against
// reference.hpp before its timing is ever reported by the simulator.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "core/schedule.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/datatype.hpp"
#include "runtime/reduce_op.hpp"
#include "runtime/world.hpp"

namespace gencoll::core {

/// Data-plane tuning for schedule execution. MUST be identical on every
/// rank of one collective (execute_threaded guarantees this; callers driving
/// execute_rank_program directly must pass the same tuning on all ranks,
/// since segmentation decisions are made symmetrically from step sizes).
struct ExecTuning {
  /// Post sends as zero-copy views into the local buffers instead of copying
  /// into pooled transport storage. Only sound for schedules the symbolic
  /// prover passes with CheckOptions::zero_copy (zero_copy_races == 0) AND
  /// when no rank touches its buffers before peers released its views.
  /// execute_threaded gets that by joining before returning, with buffers
  /// that outlive the World; a caller on a long-lived communicator must end
  /// with Communicator::fence_views() (retract_views() when it throws), as
  /// gencoll::Collectives does. Ignored — falls back to copying — when
  /// reliability or fault injection is active.
  bool zero_copy = false;
  /// Steps moving at least this many bytes are pipelined into segments so
  /// the receiver's copy/reduce of segment i overlaps delivery of segment
  /// i+1. 0 disables pipelining. Ignored on non-plain transports.
  std::size_t pipeline_threshold = 256 * 1024;
  /// Segment size for pipelined steps (rounded down to an element multiple).
  std::size_t pipeline_segment = 64 * 1024;
  /// Force the scalar reduction backend (benchmark gate's naive mode).
  bool scalar_reduce = false;
  /// Fragment size for multi-level shared-memory fan-in (core/hierarchy.hpp
  /// with a non-empty level vector): payloads stream through the tree levels
  /// in fragments of at most this many bytes, overlapping the levels instead
  /// of store-and-forwarding whole payloads. 0 disables fragmentation (one
  /// fragment). Rounded down to an element multiple (minimum one element).
  std::size_t shm_fragment_bytes = 128 * 1024;
};

/// Knobs for execute_threaded beyond the schedule itself.
struct ThreadedExecOptions {
  /// Tracing sink (see execute_threaded docs); nullptr disables.
  obs::TraceSink* sink = nullptr;
  /// Passed through to the World: fault plan, reliability, recv deadline.
  runtime::WorldOptions world;
  /// Data-plane tuning, applied uniformly to every rank.
  ExecTuning tuning;
};

/// Execute `sched` across World-spawned threads. inputs[r] must hold
/// input_bytes(params, r) bytes. Returns each rank's full output buffer
/// (n bytes each; contents of non-result ranks are whatever the algorithm
/// left as workspace). Throws on schedule/runtime errors, including receive
/// timeouts from malformed schedules.
///
/// When `sink` is non-null, every step emits an obs::SpanEvent (wall-clock
/// timestamps, obs::wallclock_us epoch) plus message post/match instants;
/// the sink sees concurrent calls for distinct ranks (obs::TraceSink
/// contract) and must outlive the call.
std::vector<std::vector<std::byte>> execute_threaded(
    const Schedule& sched, const std::vector<std::vector<std::byte>>& inputs,
    runtime::DataType type, runtime::ReduceOp op, obs::TraceSink* sink = nullptr);

/// As above, with fault injection / reliability wired through: the World is
/// built from `options.world`, so a FaultPlan, reliable transport, or a short
/// receive deadline all apply to this execution. Rank failures surface as the
/// first thrown exception (typically gencoll::FaultError under injection).
std::vector<std::vector<std::byte>> execute_threaded(
    const Schedule& sched, const std::vector<std::vector<std::byte>>& inputs,
    runtime::DataType type, runtime::ReduceOp op,
    const ThreadedExecOptions& options);

/// Execute one rank's program against an existing communicator. `output`
/// must have output_bytes(params) bytes. Exposed so the public API (api/)
/// can run collectives on long-lived communicators, and reused by
/// execute_threaded. `sink`, when non-null, receives this rank's step spans
/// and message instants (pipelined steps emit one span/instant per segment,
/// all carrying the step's index). `tuning` must match across ranks.
void execute_rank_program(const Schedule& sched, runtime::Communicator& comm,
                          std::span<const std::byte> input,
                          std::span<std::byte> output, runtime::DataType type,
                          runtime::ReduceOp op, obs::TraceSink* sink = nullptr,
                          const ExecTuning& tuning = {});

/// Execute only steps [begin_step, end_step) of this rank's program: one
/// blocking pass of the step interpreter (exec_detail::ScheduleRunner),
/// without the validation prologue. The hierarchical executor
/// (core/hierarchy.hpp) uses it to run the leader-level phase of a composed
/// schedule between its shared-segment intra phases. Callers are responsible
/// for buffer validation and for setting the communicator's trace sink.
void execute_step_range(const Schedule& sched, runtime::Communicator& comm,
                        std::span<const std::byte> input,
                        std::span<std::byte> output, runtime::DataType type,
                        runtime::ReduceOp op, obs::TraceSink* sink,
                        const ExecTuning& tuning, std::size_t begin_step,
                        std::size_t end_step);

// The machinery both engines share: the step interpreter, the rank-body
// interface and the engine switch. Not part of the public execution surface.
namespace exec_detail {

/// Emit one span (and message instant) after a step — or one segment of a
/// pipelined step — completed. `bytes` is the segment's size, so per-segment
/// spans of one step sum to the step's bytes. Component fields stay zero:
/// wall-clock execution has no cost model.
void emit_step(obs::TraceSink& sink, int rank, std::size_t step, const Step& s,
               std::size_t bytes, double begin_us, double end_us,
               int group = -1, obs::LinkClass link = obs::LinkClass::kUnknown);

/// Throws std::invalid_argument unless `comm`, `type` and both buffers fit
/// `sched`: the prologue of every rank body.
void check_rank_buffers(const Schedule& sched, const runtime::Communicator& comm,
                        std::span<const std::byte> input,
                        std::span<const std::byte> output, runtime::DataType type);

/// The step interpreter: a cursor (step index, bytes done within the step)
/// over one rank's steps [begin, end). Steps of at least
/// ExecTuning::pipeline_threshold bytes move in segments; both endpoints of
/// a matched message split identically because segmentation depends only on
/// the step's byte count. Each segment emits one span when a sink is set.
///
/// advance() runs in one of two modes. Blocking (the threaded engine and
/// the hierarchy's leader phase): a receive waits in Communicator::recv_msg
/// and the call returns kComplete. Resumable (the event engine): a receive
/// polls with try_recv_msg, ticking crash_check once per segment as the
/// blocking path does; when nothing is deliverable the call returns kParked
/// with its wake time, and it returns kYielded after a fairness budget of
/// segments. The next advance() continues where the last one stopped.
class ScheduleRunner {
 public:
  using clock = std::chrono::steady_clock;
  enum class Run { kComplete, kParked, kYielded };
  struct Outcome {
    Run run = Run::kComplete;
    clock::time_point wake_at = clock::time_point::max();  ///< kParked only
  };

  void reset(const Schedule* sched, std::span<const std::byte> input,
             std::span<std::byte> output, std::size_t begin_step,
             std::size_t end_step, int rank);

  Outcome advance(runtime::Communicator& comm, runtime::DataType type,
                  runtime::ReduceOp op, obs::TraceSink* sink,
                  const ExecTuning& tuning, bool blocking);

 private:
  const Schedule* sched_ = nullptr;
  std::span<const std::byte> input_;
  std::span<std::byte> output_;
  std::size_t step_ = 0;
  std::size_t end_ = 0;
  int rank_ = 0;
  std::size_t done_ = 0;      ///< bytes completed within the current step
  bool seg_polled_ = false;   ///< crash_check already ticked for this segment
  bool deadline_armed_ = false;
  clock::time_point deadline_{};
  double begin_us_ = -1.0;    ///< current segment's span start (-1 = unset)
};

/// Start one rank's run of `sched`. A schedule whose intra phases run over
/// shared segments (runs_on_shm_tree, core/hierarchy.hpp) runs whole through
/// execute_hierarchical, as a managed-blocking region on the event engine
/// (its seqlock waits cannot park); returns true. Otherwise checks the
/// buffers, sets the trace sink and resets `runner` over every step of this
/// rank; returns false.
bool begin_rank_program(ScheduleRunner& runner, const Schedule& sched,
                        runtime::Communicator& comm,
                        std::span<const std::byte> input,
                        std::span<std::byte> output, runtime::DataType type,
                        runtime::ReduceOp op, obs::TraceSink* sink,
                        const ExecTuning& tuning);

/// One rank's body: advance(comm, true) runs it to completion on the
/// calling thread; advance(comm, false) runs it in resumable slices with
/// ScheduleRunner's outcomes. Exceptions escape to the engine, which applies
/// runtime::RankFailures::record.
class RankBody {
 public:
  virtual ~RankBody() = default;
  virtual ScheduleRunner::Outcome advance(runtime::Communicator& comm,
                                          bool blocking) = 0;
};

/// Run `body(r)` as rank r of a fresh World of `p` ranks on `engine`: a
/// thread per rank (blocking mode) or tasks on an event pool (resumable
/// mode). Returns once every body finished, with RankFailures::rethrow
/// as the result. Defined in event_exec.cpp.
void run_ranks(runtime::ExecutorKind engine, int p,
               const runtime::WorldOptions& options,
               const std::function<RankBody&(int rank)>& body);

}  // namespace exec_detail

}  // namespace gencoll::core
