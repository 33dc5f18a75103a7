// Hierarchical collectives: intra-group phase -> leader-level generalized
// kernel -> intra-group fan-out.
//
// The paper's machines are deeply hierarchical (8 GPUs/node behind a few
// NICs), yet the flat kernels in core/ pay the inter-group alpha/beta even
// between ranks that share an address space. build_hierarchical_schedule
// composes any supported inter-group kernel over the group *leaders* with
// dense intra-group phases, modeling ppn with a configurable group size g
// (ranks are grouped in consecutive blocks [j*g, (j+1)*g), leader j*g):
//
//   Bcast      root -> its leader (one hop, if distinct), leader-level
//              bcast, every leader fans out to its members.
//   Reduce     members send inputs to their leader (leader reduces in member
//              order — deterministic, bit-exact), leader-level reduce, one
//              final hop leader(root) -> root if distinct.
//   Allreduce  intra reduce, leader-level allreduce, intra fan-out.
//   Allgather  members send their block to the leader (requires p | count so
//              group blocks are contiguous), leader-level allgather over
//              g-sized superblocks, full-result fan-out.
//
// The intra tier's program shape is selected by HierSpec::levels:
//
//   levels empty (the original one-level composition): flat fan-in — every
//   member exchanges directly with the group leader, one message each.
//
//   levels = {L0, L1, ...} (each >= 2, product == group_size, e.g. "2x4" =
//   NUMA x core): an XHC-style multi-level tree inside each group. Fan-in
//   runs deepest level first; at every level the members of a subgroup
//   reduce *concurrently into their leader's buffer*, each owning a disjoint
//   contiguous chunk of the payload (the chunk boundaries are
//   runtime::seqlock::chunk_begin/chunk_end), and large payloads stream
//   through the levels in fragments (ExecTuning::shm_fragment_bytes) so the
//   tiers pipeline instead of store-and-forwarding. Fan-out is single-copy:
//   the top leader publishes once and *every* descendant copies directly
//   from that one buffer, regardless of depth. Multi-level groups may be
//   ragged — the last group keeps s = p - j*g < g ranks (PPN mismatch, e.g.
//   p = 12 with g = 2x4) — for Bcast/Reduce/Allreduce.
//
// The composed Schedule is complete and flat — any executor can run it over
// the mailbox transport, and the symbolic prover (src/check/) verifies its
// provenance and cost like any other schedule. Schedule::hier records the
// phase boundaries; execute_hierarchical additionally replaces the intra
// phases with shared-segment copies whenever the transport is plain. One
// engine runs them for every shape (runtime/shm_group.hpp ShmTree, zero
// mailbox traffic): an empty level vector runs as the one-level tree {g},
// and one-level groups fold payloads of at most kHierShmSmallBytes
// unpartitioned at the leader (allgather: gather up to kHierShmGatherBytes).
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "core/coll_params.hpp"
#include "core/executor.hpp"
#include "core/schedule.hpp"
#include "obs/trace.hpp"
#include "runtime/comm.hpp"

namespace gencoll::core {

/// Tag bases for the composed phases: high multiples of the kernels' phase
/// stride (1 << 20), above every flat kernel's tag space (they use at most
/// 3 strides) yet below the schedule validator's 1 << 24 tag ceiling, so
/// spliced leader-kernel tags can never collide with the fan-in/fan-out hops.
/// Multi-level compositions add (level << kHierLevelShift) + chunk to the
/// fan-in/fan-out bases; level and chunk stay far below 1 << 20, so the
/// encoded tags never leave their base's stride.
inline constexpr int kHierFaninTag = 8 << 20;
inline constexpr int kHierFanoutTag = 9 << 20;
inline constexpr int kHierRootHopTag = 10 << 20;
inline constexpr int kHierLevelShift = 12;

/// Largest payload (the call's total bytes, CollParams::nbytes) that a
/// one-level shared-memory group folds unpartitioned: the top leader copies
/// its own input and reduces each member's in rank order, in one fragment. Larger payloads, and every multi-level
/// group, use the partitioned concurrent reduction. A fixed bound, not a
/// knob: measured on a 4-vCPU guest (p=4, one group of 4, float sum,
/// back-to-back calls, median of three runs), allreduce is faster
/// unpartitioned up to 4 KiB (3.4 vs 3.8 us) and partitioned from 8 KiB
/// (4.7 vs 4.9 us; 15 vs 22 us at 64 KiB); reduce crosses between 8 KiB
/// (2.1 vs 3.0 us) and 16 KiB (3.6 vs 3.4 us).
inline constexpr std::size_t kHierShmSmallBytes = 4096;

/// Largest allgather payload (total bytes) that a one-level shared-memory
/// group gathers at the leader, which copies each member's block in rank
/// order; larger ones, and every multi-level group, scatter: each member
/// stores its own block into the leader's output concurrently. Measured like
/// kHierShmSmallBytes (p=4, median of eight runs), gather / scatter read
/// 2.06 / 2.51 us at 64 B, 2.34 / 2.60 at 1 KiB, 2.47 / 2.67 at 1.5 KiB,
/// 2.95 / 2.84 at 2 KiB and 3.88 / 3.08 at 4 KiB.
inline constexpr std::size_t kHierShmGatherBytes = 1024;

/// How a hierarchical composition is configured: the group size g (modeling
/// processes-per-node) and the generalized kernel + radix that runs over the
/// group leaders. It names the composed program only; the transport picks
/// how the intra phases run (runs_on_shm_tree).
struct HierSpec {
  int group_size = 1;
  Algorithm inter_alg = Algorithm::kRecursiveMultiplying;
  int inter_k = 2;
  /// Intra-group level vector (see file comment). It selects the composed
  /// program's shape only, not the engine: empty = one-level flat
  /// fan-in/fan-out, which the shared-memory path runs as the tree {g}.
  /// Non-empty entries must each be >= 2 after hier_canonical_levels();
  /// group_size is then ignored and taken as the product of the levels.
  std::vector<int> levels;
};

// ---- level-vector topology (pure helpers) ---------------------------------
//
// Within one group of nominal size g = product(levels) and actual population
// s (s == g except for a ragged last group), ranks are addressed by their
// relative id rel in [0, s). Level 0 is the top (coarsest) tier, the last
// level the leaf tier. stride(i) = product of levels deeper than i; rel
// participates at level i iff stride(i) divides rel, and leads its level-i
// subgroup iff stride(i) * levels[i] divides rel. Every rel != 0 is a
// *member* (non-leader participant) at exactly one level; rel 0 leads every
// level it touches. These helpers are the single source of truth shared by
// the schedule builder, the shared-memory executor and the cost model.

/// Drop 1-entries; returns the canonical vector (empty if the product < 2).
[[nodiscard]] std::vector<int> hier_canonical_levels(std::vector<int> levels);

/// Product of the entries (1 for an empty vector).
[[nodiscard]] int hier_levels_product(const std::vector<int>& levels);

/// "2x4"-style rendering ("" for an empty vector).
[[nodiscard]] std::string hier_format_levels(const std::vector<int>& levels);

/// Parse a "2x4"-style level vector ("8" parses to {8}). Returns nullopt on
/// malformed text, any factor < 1, or a product that overflows int.
[[nodiscard]] std::optional<std::vector<int>> hier_parse_levels(
    std::string_view text);

/// stride(i) for every level: product of the levels deeper than i (the leaf
/// level has stride 1).
[[nodiscard]] std::vector<int> hier_level_strides(
    const std::vector<int>& levels);

/// One level-i subgroup: its leader and the members actually present among
/// the group's s ranks (a ragged group truncates members to rel < s).
struct HierLevelGroup {
  int leader = 0;
  std::vector<int> members;
};

/// The level-`level` subgroup containing participant `rel` (requires
/// strides[level] | rel and rel < s).
[[nodiscard]] HierLevelGroup hier_level_group(const std::vector<int>& levels,
                                              const std::vector<int>& strides,
                                              int level, int rel, int s);

/// The unique level at which rel (in [1, s)) is a member.
[[nodiscard]] int hier_member_level(const std::vector<int>& levels,
                                    const std::vector<int>& strides, int rel);

/// Members of rel's shallowest non-empty led subgroup strictly deeper than
/// `below_level` (pass rel's member level; -1 for rel == 0). Empty when rel
/// leads nothing populated below that level — rel's contribution at
/// below_level is then its raw input ("prime" leaf), otherwise its
/// accumulator. Awaiting exactly these members transitively covers every
/// deeper contributor, because each member's own progress counter is only
/// bumped after it awaited *its* gate.
[[nodiscard]] std::vector<int> hier_child_gate(const std::vector<int>& levels,
                                               const std::vector<int>& strides,
                                               int rel, int below_level, int s);

/// Collectives the hierarchical composition implements.
[[nodiscard]] bool hier_supported_op(CollOp op);

/// True when build_hierarchical_schedule(spec, params) would succeed:
/// supported op, g >= 2, count >= 1, an inter kernel that supports the
/// leader subproblem with offset-preserving composition, and g | p — except
/// that a non-empty level vector relaxes the divisibility to a ragged last
/// group for Bcast/Reduce/Allreduce (Allgather always needs g | p and
/// p | count). A single group (p <= g) has no leader phase, so it accepts
/// any inter kernel.
[[nodiscard]] bool supports_hierarchical(const HierSpec& spec,
                                         const CollParams& params);

/// Compose the hierarchical schedule. Throws UnsupportedParams (with
/// reason) when unsupported. The result carries Schedule::hier and is
/// submitted to the registry's schedule auditor, like every registry-built
/// schedule.
Schedule build_hierarchical_schedule(const HierSpec& spec,
                                     const CollParams& params);

/// True when execute_hierarchical runs `sched`'s intra phases over shared
/// segments: a hierarchical schedule with groups of at least two on a plain
/// transport. This is the only switch between the two routes: a reliable or
/// fault-injected World runs the composed program over the mailbox. The
/// shared phases are seqlock waits between group members that cannot park.
[[nodiscard]] bool runs_on_shm_tree(const Schedule& sched,
                                    const runtime::Communicator& comm);

/// Execute one rank of a hierarchical schedule. On a plain transport the
/// intra phases run over the group's ShmTree —
/// direct memcpy / apply_reduce from the publishers' buffers, zero mailbox
/// traffic: an unpartitioned leader fold for small one-level payloads
/// (kHierShmSmallBytes), otherwise partitioned concurrent reduction with
/// fragment pipelining, and a single-copy fan-out. An empty level vector
/// runs as the one-level tree {g}. Only the leader-level phase touches the
/// mailbox. If a shared phase throws, no peer still uses `input` or
/// `output` once the error leaves this call (ShmTree::retract). Otherwise
/// the flat composed program is executed as-is, so fault injection and
/// reliability keep working unchanged. Non-hier schedules fall through to
/// execute_rank_program.
void execute_hierarchical(const Schedule& sched, runtime::Communicator& comm,
                          std::span<const std::byte> input,
                          std::span<std::byte> output, runtime::DataType type,
                          runtime::ReduceOp op, obs::TraceSink* sink = nullptr,
                          const ExecTuning& tuning = {});

}  // namespace gencoll::core
