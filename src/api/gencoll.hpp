// gencoll — generalized collective algorithms for the exascale era.
//
// Public facade tying the pieces together for library users:
//
//   gencoll::run_ranks(8, [](gencoll::Collectives& coll) {
//     std::vector<double> v(1024, coll.rank());
//     coll.allreduce(as_bytes(v), gencoll::DataType::kDouble,
//                    gencoll::ReduceOp::kSum);
//   });
//
// A Collectives object wraps one rank's communicator plus a selection
// configuration (autotuned or vendor-default) and executes collectives on
// the in-process runtime. Algorithm and radix can be forced per call (the
// paper's tuning experiments) or resolved automatically from the config
// (the paper's §VI-G turnkey mode).
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <utility>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/coll_params.hpp"
#include "core/executor.hpp"
#include "core/hierarchy.hpp"
#include "core/registry.hpp"
#include "fault/error.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"
#include "runtime/datatype.hpp"
#include "runtime/reduce_op.hpp"
#include "runtime/world.hpp"
#include "tuning/selector.hpp"

namespace gencoll {

namespace service {
class OnlineSelector;  // service/bandit.hpp
}

using runtime::DataType;
using runtime::ReduceOp;
using Algorithm = core::Algorithm;
using CollOp = core::CollOp;

/// Per-call algorithm override. Default: resolve from the selection config.
struct AlgSpec {
  std::optional<Algorithm> algorithm;
  std::optional<int> k;
  /// Hierarchical composition override: >1 groups ranks in blocks of this
  /// size and runs the algorithm over the ceil(p/group_size) leaders
  /// (core/hierarchy.hpp); 1 forces the flat path even when the config or
  /// the co-located default (see Collectives) would go hierarchical. Setting
  /// group_size without `levels` requests the flat intra fan-in.
  std::optional<int> group_size;
  /// Intra-group level vector override (core/hierarchy.hpp HierSpec::levels,
  /// e.g. {2, 4} = NUMA x core): non-empty selects the multi-level intra
  /// tree and implies its product as the group size; an explicit empty
  /// vector forces the flat intra fan-in even when the config would pick a
  /// tree. Takes precedence over group_size.
  std::optional<std::vector<int>> levels;
};

class Collectives {
 public:
  /// Wrap a communicator. `config` follows the gencoll selection-file format
  /// (see tuning/selector.hpp); every rank must use an identical config.
  ///
  /// Hierarchical shape precedence: per-call AlgSpec::levels /
  /// AlgSpec::group_size, then the matching rule's `hier` clause, then the
  /// co-located default below. The shape is all a caller chooses: the
  /// transport picks the intra route (shared segments on a plain World, the
  /// composed program over the mailbox on a reliable or fault-injected one).
  ///
  /// Co-located default: when the config's `machine` line declares ppn >= 2,
  /// the communicator has exactly ppn ranks (one node) and nothing above
  /// sets a shape, bcast, reduce, allreduce and allgather calls whose total
  /// payload is under ExecTuning::pipeline_threshold (256 KiB) on a plain
  /// transport run as `hier <ppn> shm` — the ranks of the node exchange
  /// over shared memory instead of the mailbox. A `hier 1` rule clause or
  /// AlgSpec::group_size = 1 opts out.
  ///
  /// Incompatible shapes (p not a multiple of the group size where
  /// required, non-uniform allgather blocks, ops the composition does not
  /// cover) run the flat schedule; hier_fallbacks() counts those calls.
  ///
  /// Large flat collectives run zero-copy when the symbolic prover clears
  /// their schedule (DESIGN.md section 7): peers read this rank's buffers in
  /// place, and a call returns only once they are done, so the caller may
  /// reuse its buffers as soon as any call returns.
  explicit Collectives(runtime::Communicator& comm,
                       tuning::SelectionConfig config = {});

  [[nodiscard]] int rank() const { return comm_.rank(); }
  [[nodiscard]] int size() const { return comm_.size(); }

  /// Broadcast `buf` (same size on every rank) from `root`.
  void bcast(std::span<std::byte> buf, int root, const AlgSpec& spec = {});

  /// Element-wise reduction of `in` into `out` at `root` (out ignored on
  /// other ranks; may be empty there). in.size() must be identical on all
  /// ranks and a multiple of the datatype size.
  void reduce(std::span<const std::byte> in, std::span<std::byte> out, DataType type,
              ReduceOp op, int root, const AlgSpec& spec = {});

  /// Like reduce, but every rank receives the result.
  void allreduce(std::span<const std::byte> in, std::span<std::byte> out,
                 DataType type, ReduceOp op, const AlgSpec& spec = {});
  /// In-place convenience.
  void allreduce(std::span<std::byte> buf, DataType type, ReduceOp op,
                 const AlgSpec& spec = {});

  /// Concatenate per-rank blocks at `root`. Blocks follow the balanced
  /// element partition of out.size()/sizeof(type) over ranks
  /// (core/partition.hpp); `in` must be exactly this rank's block. `out`
  /// must be sized on every rank (non-roots use it as workspace).
  void gather(std::span<const std::byte> in, std::span<std::byte> out, int root,
              DataType type = DataType::kByte, const AlgSpec& spec = {});

  /// Like gather, but every rank receives the concatenation.
  void allgather(std::span<const std::byte> in, std::span<std::byte> out,
                 DataType type = DataType::kByte, const AlgSpec& spec = {});

  /// Inverse gather: root's `in` (sized on every rank; workspace on
  /// non-roots' out) is split into element-aligned blocks; rank r's block
  /// lands at its block offset of `out`.
  void scatter(std::span<const std::byte> in, std::span<std::byte> out, int root,
               DataType type = DataType::kByte, const AlgSpec& spec = {});

  /// Element-wise reduction of the full vectors, with rank r keeping the
  /// reduced block r (at its block offset of `out`).
  void reduce_scatter(std::span<const std::byte> in, std::span<std::byte> out,
                      DataType type, ReduceOp op, const AlgSpec& spec = {});

  /// Personalized exchange: in/out hold p equal chunks (in.size() == p *
  /// chunk bytes); chunk d of `in` goes to rank d, chunk s of `out` came
  /// from rank s.
  void alltoall(std::span<const std::byte> in, std::span<std::byte> out,
                DataType type = DataType::kByte, const AlgSpec& spec = {});

  /// Inclusive prefix reduction: out on rank r = op(in of ranks 0..r).
  void scan(std::span<const std::byte> in, std::span<std::byte> out, DataType type,
            ReduceOp op, const AlgSpec& spec = {});

  /// Message-based barrier over the selected algorithm (k-dissemination by
  /// default); exercises the network like a real MPI_Barrier.
  void barrier_collective(const AlgSpec& spec = {});

  /// Shared-memory rendezvous (no messages) — cheap synchronization for
  /// tests and timing loops.
  void barrier() { comm_.barrier(); }

  /// The (algorithm, radix) this instance would use for (op, nbytes).
  [[nodiscard]] tuning::AlgorithmChoice resolve(CollOp op, std::size_t nbytes,
                                                const AlgSpec& spec = {}) const;

  /// Number of schedules built so far (cache effectiveness; one per distinct
  /// resolved (op, alg, k, shape, root, size) request).
  [[nodiscard]] std::size_t schedules_built() const { return cache_.size(); }

  /// Cached flat schedules that the zero-copy size gate admitted (a send
  /// step of at least ExecTuning::pipeline_threshold bytes) and the prover
  /// then rejected, so they keep copying every send.
  [[nodiscard]] std::size_t zero_copy_rejections() const {
    return zero_copy_rejections_;
  }

  /// Calls that asked for a hierarchical composition — explicitly or by the
  /// co-located default — and ran the flat schedule because
  /// core::supports_hierarchical rejected the shape.
  [[nodiscard]] std::size_t hier_fallbacks() const { return hier_fallbacks_; }

  /// The wrapped communicator, for its always-on counters (zero-copy views
  /// posted and retracted, fence waits, reliability stats).
  [[nodiscard]] const runtime::Communicator& communicator() const { return comm_; }

  /// Opt-in observability: every subsequent collective's schedule steps emit
  /// obs::SpanEvents (wall-clock) and message instants into `sink`. Pass the
  /// same sink (e.g. one obs::TraceRecorder sized to the world) on every
  /// rank — the sink contract requires tolerating concurrent calls for
  /// distinct ranks only. nullptr disables tracing. The sink must outlive
  /// the traced calls; it is not owned.
  void set_trace_sink(obs::TraceSink* sink) { sink_ = sink; }
  [[nodiscard]] obs::TraceSink* trace_sink() const { return sink_; }

  /// Opt-in online adaptive selection (service/bandit.hpp): subsequent
  /// collectives without a per-call override ask `selector` for the
  /// (algorithm, k, g) arm and feed the measured wall-clock latency
  /// back as the reward. The selector is shared — pass the same instance on
  /// every rank (it is internally locked); `tenant` keys this communicator's
  /// statistics (use the rank's job/tenant id, or leave 0). The config rules
  /// keep acting as the selector's priors only if they were passed to the
  /// selector's constructor; the local config is bypassed while online mode
  /// is on. nullptr switches back to static selection. Not owned; must
  /// outlive the collectives issued under it.
  void use_online_selection(service::OnlineSelector* selector, int tenant = 0);
  [[nodiscard]] service::OnlineSelector* online_selector() const {
    return online_;
  }

 private:
  /// A resolved request, compared field by field, so a cache hit allocates
  /// nothing and repeats no support check.
  struct ScheduleKey {
    CollOp op;
    int p;
    int root;
    std::size_t count;
    std::size_t elem_size;
    int k;
    Algorithm algorithm;  ///< the flat kernel, or the inter-group one
    int group_size = 0;   ///< > 1: hierarchical composition requested
    std::vector<int> levels;  ///< hierarchical intra level vector
    auto operator<=>(const ScheduleKey&) const = default;
  };
  struct CachedSchedule {
    core::Schedule sched;
    /// Prover-gated, decided once at build: post sends as views and fence.
    bool zero_copy = false;
    /// The key asked for a composition that supports_hierarchical rejected.
    bool hier_fallback = false;
  };

  /// Elastic shrink support: when the communicator's membership epoch moved
  /// since the last collective (runtime/membership.hpp), every cached
  /// schedule was compiled for the dead rank space — drop the cache, any
  /// pending online reward, and re-enumerate the online selector's arms for
  /// the survivor count. Called at the top of schedule_for.
  void refresh_epoch();
  const CachedSchedule& schedule_for(CollOp op, std::size_t count,
                                     std::size_t elem_size, int root,
                                     const AlgSpec& spec);
  /// The schedule for a cache miss: hierarchical when key.group_size > 1 and
  /// the shape composes, else the flat kernel (or the vendor default when
  /// the kernel cannot take these parameters), with its zero-copy verdict.
  CachedSchedule build_entry(const ScheduleKey& key);
  /// The zero-copy verdict for a flat schedule: plain transport, a send step
  /// of at least ExecTuning::pipeline_threshold bytes, and a clean proof
  /// under CheckOptions::zero_copy.
  bool zero_copy_verdict(const core::Schedule& sched, Algorithm algorithm);
  void execute(const CachedSchedule& entry, std::span<const std::byte> input,
               std::span<std::byte> output, DataType type, ReduceOp op);
  /// Largest call staged in the persistent buffer. The allocation it saves
  /// is a visible share of a call's cost only for small payloads, while a
  /// larger buffer stays resident in every Collectives: unbounded, it
  /// pinned 32 MB in hier_intra (4 MiB calls, two Collectives on four
  /// ranks), and a 64 KiB bound still raised varied_shapes' peak RSS.
  static constexpr std::size_t kMaxStagingBytes = std::size_t{4} << 10;
  /// `bytes` of staging (in-place allreduce input, bcast root input, reduce
  /// workspace on non-roots): the front of the grow-only staging buffer, or
  /// above kMaxStagingBytes `large`, resized, which the caller keeps alive
  /// for the call.
  std::span<std::byte> staging(std::size_t bytes, std::vector<std::byte>& large);
  /// Copy `data` into staging(data.size(), large) and return the copy.
  std::span<const std::byte> stage(std::span<const std::byte> data,
                                   std::vector<std::byte>& large);

  runtime::Communicator& comm_;
  tuning::SelectionConfig config_;
  obs::TraceSink* sink_ = nullptr;
  int cache_epoch_ = 0;     ///< membership epoch the cache was built under
  std::map<ScheduleKey, CachedSchedule> cache_;
  std::size_t zero_copy_rejections_ = 0;
  std::size_t hier_fallbacks_ = 0;
  std::vector<std::byte> staging_;  ///< grow-only; see staging()
  // Online selection state: the decision taken in schedule_for, awaiting its
  // wall-clock reward from the execute() that immediately follows (one rank
  // == one thread, so a single pending slot suffices).
  service::OnlineSelector* online_ = nullptr;
  int online_tenant_ = 0;
  struct PendingReward {
    CollOp op;
    std::size_t count;
    std::size_t elem_size;
    tuning::AlgorithmChoice choice;
    std::uint64_t round;
  };
  std::optional<PendingReward> pending_;
  /// Per-(op, size-class) round counters: every rank issues the same
  /// collective sequence, so equal counters index the same synchronized
  /// decision in the shared selector (service::OnlineSelector::choose_at).
  std::map<std::pair<CollOp, int>, std::uint64_t> online_rounds_;
};

/// Spawn `ranks` threads, each wrapped in a Collectives over a fresh World.
/// The same `config` is applied on every rank. Exceptions propagate.
void run_ranks(int ranks, const std::function<void(Collectives&)>& body,
               const tuning::SelectionConfig& config = {});

/// As above with explicit World options: fault injection (WorldOptions::
/// fault_plan), reliable transport, and the receive deadline all apply to
/// the spawned World. Failures under injection surface as gencoll::FaultError
/// (re-exported from fault/error.hpp) from the first rank that died.
void run_ranks(int ranks, const std::function<void(Collectives&)>& body,
               const tuning::SelectionConfig& config,
               const runtime::WorldOptions& world_options);

/// One whole collective, described declaratively — the scale-friendly entry
/// point. Where run_ranks hands every rank a callback (and therefore a
/// thread-visible closure), run_collective names the operation once and lets
/// the library drive all `ranks` rank programs on whichever execution engine
/// WorldOptions::executor / GENCOLL_EXECUTOR selects. With the event engine
/// this runs p in the thousands on ~hardware_concurrency worker threads
/// (bench/scale_smoke.cpp runs p=4096 through exactly this surface).
struct CollectiveSpec {
  CollOp op = CollOp::kAllreduce;
  int ranks = 1;
  /// Total element count (per-destination count for Alltoall, 0 for Barrier).
  std::size_t count = 0;
  DataType type = DataType::kInt32;
  ReduceOp reduce = ReduceOp::kSum;  ///< reducing collectives only
  int root = 0;                      ///< rooted collectives only
  /// Unset: first registered algorithm (with a supported radix) for the op.
  std::optional<Algorithm> algorithm;
  std::optional<int> k;  ///< radix; unset = the algorithm's default sweep
};

/// Produces rank `rank`'s input buffer; `bytes` is the exact size the
/// collective's layout requires of that rank (core::input_bytes). Buffers
/// are requested lazily, one rank at a time, so p=4096 never needs all
/// inputs resident before the World exists.
using RankInputFn = std::function<std::vector<std::byte>(int rank, std::size_t bytes)>;

/// Run one collective end to end and return every rank's output buffer
/// (indexed by rank; workspace contents on ranks without a defined result,
/// as in MPI). A null `input` zero-fills every rank. Throws on unsupported
/// shapes and surfaces rank failures like run_ranks. `sink`, when non-null,
/// receives every rank's step spans and message instants.
std::vector<std::vector<std::byte>> run_collective(
    const CollectiveSpec& spec, const RankInputFn& input = {},
    const runtime::WorldOptions& world_options = {},
    obs::TraceSink* sink = nullptr);

/// View any trivially-copyable vector as mutable/const bytes.
template <typename T>
std::span<std::byte> as_bytes(std::vector<T>& v) {
  return {reinterpret_cast<std::byte*>(v.data()), v.size() * sizeof(T)};
}
template <typename T>
std::span<const std::byte> as_const_bytes(const std::vector<T>& v) {
  return {reinterpret_cast<const std::byte*>(v.data()), v.size() * sizeof(T)};
}

}  // namespace gencoll
