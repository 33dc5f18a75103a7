#include "core/hierarchy.hpp"

#include <algorithm>
#include <charconv>
#include <cstring>
#include <exception>
#include <stdexcept>
#include <string>

#include "core/algorithms.hpp"
#include "core/registry.hpp"
#include "core/validate.hpp"
#include "runtime/shm_group.hpp"
#include "runtime/world.hpp"

namespace gencoll::core {

// ---- level-vector topology ------------------------------------------------

std::vector<int> hier_canonical_levels(std::vector<int> levels) {
  std::erase(levels, 1);
  return levels;
}

int hier_levels_product(const std::vector<int>& levels) {
  int prod = 1;
  for (int l : levels) prod *= l;
  return prod;
}

std::string hier_format_levels(const std::vector<int>& levels) {
  std::string out;
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (i > 0) out += 'x';
    out += std::to_string(levels[i]);
  }
  return out;
}

std::optional<std::vector<int>> hier_parse_levels(std::string_view text) {
  if (text.empty()) return std::nullopt;
  std::vector<int> out;
  const char* cur = text.data();
  const char* const end = text.data() + text.size();
  for (;;) {
    int value = 0;
    const auto [ptr, ec] = std::from_chars(cur, end, value);
    if (ec != std::errc{} || value < 1) return std::nullopt;
    out.push_back(value);
    if (hier_levels_product(out) <= 0) return std::nullopt;  // overflowed
    if (ptr == end) return out;
    if (*ptr != 'x' || ptr + 1 == end) return std::nullopt;
    cur = ptr + 1;
  }
}

std::vector<int> hier_level_strides(const std::vector<int>& levels) {
  std::vector<int> strides(levels.size(), 1);
  for (std::size_t i = levels.size(); i-- > 1;) {
    strides[i - 1] = strides[i] * levels[i];
  }
  return strides;
}

HierLevelGroup hier_level_group(const std::vector<int>& levels,
                                const std::vector<int>& strides, int level,
                                int rel, int s) {
  const int stride = strides[static_cast<std::size_t>(level)];
  const int span = stride * levels[static_cast<std::size_t>(level)];
  HierLevelGroup out;
  out.leader = rel - rel % span;
  for (int t = 1; t < levels[static_cast<std::size_t>(level)]; ++t) {
    const int member = out.leader + t * stride;
    if (member >= s) break;
    out.members.push_back(member);
  }
  return out;
}

int hier_member_level(const std::vector<int>& levels,
                      const std::vector<int>& strides, int rel) {
  for (std::size_t i = 0; i < levels.size(); ++i) {
    if (rel % strides[i] != 0) continue;
    if (rel % (strides[i] * levels[i]) != 0) return static_cast<int>(i);
  }
  throw std::logic_error("hier_member_level: rel 0 has no member level");
}

std::vector<int> hier_child_gate(const std::vector<int>& levels,
                                 const std::vector<int>& strides, int rel,
                                 int below_level, int s) {
  for (int i = below_level + 1; i < static_cast<int>(levels.size()); ++i) {
    HierLevelGroup lg = hier_level_group(levels, strides, i, rel, s);
    if (lg.leader != rel) break;  // rel is a member at this level, not deeper
    if (!lg.members.empty()) return std::move(lg.members);
  }
  return {};
}

namespace {

/// Inter-group kernels whose schedules compose soundly: every CopyInput
/// writes the rank's own contribution at its *absolute* output offset (so
/// the intra phase primes exactly the same image) and every SendInput reads
/// the contribution at its absolute input offset. Bruck-style rotated
/// layouts are excluded; the symbolic prover would reject them anyway.
bool offset_preserving_inter(Algorithm alg) {
  switch (alg) {
    case Algorithm::kBinomial:
    case Algorithm::kRecursiveDoubling:
    case Algorithm::kRing:
    case Algorithm::kKnomial:
    case Algorithm::kRecursiveMultiplying:
    case Algorithm::kKring:
      return true;
    default:
      return false;
  }
}

/// Canonical form: 1-entries dropped from the level vector; a non-empty
/// vector overrides group_size with its product.
HierSpec normalized(const HierSpec& spec) {
  HierSpec out = spec;
  out.levels = hier_canonical_levels(spec.levels);
  if (!out.levels.empty()) {
    out.group_size = hier_levels_product(out.levels);
  }
  return out;
}

/// The leader-level subproblem: the same collective over the group leaders
/// (ceil(p/g) of them when the last group is ragged).
CollParams leader_params(const HierSpec& spec, const CollParams& params) {
  CollParams lp = params;
  lp.p = (params.p + spec.group_size - 1) / spec.group_size;
  lp.root = params.root / spec.group_size;
  lp.k = spec.inter_k;
  return lp;
}

/// `spec` must be normalized().
const char* reject(const HierSpec& spec, const CollParams& params) {
  if (!hier_supported_op(params.op)) return "op has no hierarchical composition";
  if (spec.group_size < 2) return "group_size must be >= 2";
  if (spec.levels.empty()) {
    if (params.p % spec.group_size != 0) return "group_size must divide p";
  } else {
    for (int l : spec.levels) {
      if (l < 2) return "level entries must be >= 2";
      if (l > (1 << kHierLevelShift)) return "level entry exceeds tag budget";
    }
    // Ragged last group (g does not divide p) is supported for every op but
    // Allgather, whose contiguous-superblock splice needs uniform groups.
    if (params.op == CollOp::kAllgather && params.p % spec.group_size != 0) {
      return "allgather composition requires uniform groups (g | p)";
    }
  }
  if (params.count < 1) return "count must be >= 1";
  if (params.op == CollOp::kAllgather &&
      params.count % static_cast<std::size_t>(params.p) != 0) {
    return "allgather composition requires p | count (uniform blocks)";
  }
  // One group (p <= g) has no leader phase: the inter kernel never runs, so
  // any kernel composes.
  if (params.p <= spec.group_size) return nullptr;
  if (!offset_preserving_inter(spec.inter_alg)) {
    return "inter kernel is not offset-preserving";
  }
  if (!supports_params(spec.inter_alg, leader_params(spec, params))) {
    return "inter kernel does not support the leader subproblem";
  }
  return nullptr;
}

}  // namespace

bool hier_supported_op(CollOp op) {
  switch (op) {
    case CollOp::kBcast:
    case CollOp::kReduce:
    case CollOp::kAllreduce:
    case CollOp::kAllgather:
      return true;
    default:
      return false;
  }
}

bool supports_hierarchical(const HierSpec& spec, const CollParams& params) {
  return reject(normalized(spec), params) == nullptr;
}

Schedule build_hierarchical_schedule(const HierSpec& rawspec,
                                     const CollParams& params) {
  const HierSpec spec = normalized(rawspec);
  if (const char* why = reject(spec, params)) {
    throw unsupported_params("hierarchical", params, why);
  }
  const int p = params.p;
  const int g = spec.group_size;
  const int G = (p + g - 1) / g;  // == p / g unless the last group is ragged
  const std::vector<int>& lv = spec.levels;
  const std::vector<int> strides = hier_level_strides(lv);
  const int depth = static_cast<int>(lv.size());
  const std::size_t n = params.nbytes();
  const std::size_t es = params.elem_size;
  const std::size_t bb = n / static_cast<std::size_t>(p);  // allgather block
  const int root = params.root;
  const int root_leader = (root / g) * g;

  Schedule sub;
  if (G > 1) {
    sub = build_schedule(spec.inter_alg, leader_params(spec, params));
  } else {
    // One group: the leader phase is empty, whatever kernel was named.
    sub.params = leader_params(spec, params);
    sub.params.k = effective_radix(spec.inter_alg, sub.params.k);
    sub.name = algorithm_name(spec.inter_alg);
    sub.ranks.resize(1);
  }

  Schedule out;
  out.params = params;
  out.params.k = sub.params.k;  // effective inter radix, for reports
  out.name = "hier_g" +
             (lv.empty() ? std::to_string(g) : hier_format_levels(lv)) + "+" +
             sub.name;
  out.ranks.resize(static_cast<std::size_t>(p));
  const auto rk = [&out](int r) -> RankProgram& {
    return out.ranks[static_cast<std::size_t>(r)];
  };

  HierInfo info;
  info.group_size = g;
  info.inter_alg = spec.inter_alg;
  info.inter_k = sub.params.k;
  info.levels = lv;
  info.intra_end.resize(static_cast<std::size_t>(p));
  info.leader_end.resize(static_cast<std::size_t>(p));

  const auto group_pop = [&](int j) {
    return std::min(g, p - j * g);  // ragged last group keeps p - j*g ranks
  };

  // ---- phase A: intra-group fan-in -------------------------------------
  switch (params.op) {
    case CollOp::kBcast:
      // Only the root's group acts: stage the payload at its leader.
      if (root != root_leader) {
        rk(root).send_input(root_leader, kHierFaninTag, 0, n);
        rk(root_leader).recv(root, kHierFaninTag, 0, n);
      } else {
        rk(root).copy_input(0, 0, n);
      }
      break;
    case CollOp::kReduce:
    case CollOp::kAllreduce:
      if (lv.empty()) {
        for (int j = 0; j < G; ++j) {
          const int leader = j * g;
          rk(leader).copy_input(0, 0, n);
          for (int m = 1; m < g; ++m) {
            const int r = leader + m;
            rk(r).send_input(leader, kHierFaninTag, 0, n);
            rk(leader).recv_reduce(r, kHierFaninTag, 0, n);
          }
        }
      } else {
        // Multi-level tree fan-in, deepest level first. Per subgroup the
        // leader folds member contributions in member order; each member's
        // full-payload contribution travels as |members| element-aligned
        // chunks (the same seqlock::chunk_begin/chunk_end partition the
        // shared-memory path reduces concurrently), tagged with its level
        // and chunk index. A sub-leader's contribution is its accumulated
        // partial (kSend from output); a leaf's is its raw input.
        for (int j = 0; j < G; ++j) {
          const int base = j * g;
          const int s = group_pop(j);
          std::vector<char> primed(static_cast<std::size_t>(s), 0);
          for (int i = depth - 1; i >= 0; --i) {
            const int stride = strides[static_cast<std::size_t>(i)];
            const int span = stride * lv[static_cast<std::size_t>(i)];
            for (int lead = 0; lead < s; lead += span) {
              const HierLevelGroup lg =
                  hier_level_group(lv, strides, i, lead, s);
              if (lg.members.empty()) continue;
              if (!primed[static_cast<std::size_t>(lead)]) {
                rk(base + lead).copy_input(0, 0, n);
                primed[static_cast<std::size_t>(lead)] = 1;
              }
              const std::size_t c = lg.members.size();
              for (std::size_t mi = 0; mi < c; ++mi) {
                const int mrel = lg.members[mi];
                const bool partial = primed[static_cast<std::size_t>(mrel)];
                for (std::size_t jx = 0; jx < c; ++jx) {
                  const std::size_t e0 =
                      runtime::seqlock::chunk_begin(jx, c, params.count);
                  const std::size_t e1 =
                      runtime::seqlock::chunk_end(jx, c, params.count);
                  if (e1 == e0) continue;
                  const int tag = kHierFaninTag + (i << kHierLevelShift) +
                                  static_cast<int>(jx);
                  const std::size_t off = e0 * es;
                  const std::size_t len = (e1 - e0) * es;
                  if (partial) {
                    rk(base + mrel).send(base + lead, tag, off, len);
                  } else {
                    rk(base + mrel).send_input(base + lead, tag, off, len);
                  }
                  rk(base + lead).recv_reduce(base + mrel, tag, off, len);
                }
              }
            }
          }
          if (!primed[0]) {
            rk(base).copy_input(0, 0, n);  // singleton ragged group
          }
        }
      }
      break;
    case CollOp::kAllgather:
      for (int j = 0; j < G; ++j) {
        const int leader = j * g;
        rk(leader).copy_input(0, static_cast<std::size_t>(leader) * bb, bb);
        for (int m = 1; m < g; ++m) {
          const int r = leader + m;
          rk(r).send_input(leader, kHierFaninTag, 0, bb);
          rk(leader).recv(r, kHierFaninTag,
                                 static_cast<std::size_t>(r) * bb, bb);
        }
      }
      break;
    default:
      break;  // unreachable: reject() filtered
  }
  for (int r = 0; r < p; ++r) {
    info.intra_end[static_cast<std::size_t>(r)] = rk(r).steps.size();
  }

  // ---- phase B: the leader-level kernel, spliced in place ---------------
  // The intra phase primed every leader's output with exactly the image the
  // sub-kernel's CopyInput steps would have written, so those are dropped;
  // SendInput steps become plain sends of the corresponding output region
  // (for Allgather, leader j's sub-input is its superblock at j*g*bb).
  // Leader-kernel peers map q -> q*g; tags are already disjoint from the
  // kHier* bases. The provenance prover re-verifies this transform for every
  // composed schedule the sweep emits.
  for (int j = 0; j < G; ++j) {
    const int leader = j * g;
    const std::size_t input_base =
        params.op == CollOp::kAllgather
            ? static_cast<std::size_t>(j) * static_cast<std::size_t>(g) * bb
            : 0;
    for (const Step& s : sub.ranks[static_cast<std::size_t>(j)].steps) {
      Step t = s;
      if (t.peer >= 0) t.peer = t.peer * g;
      switch (s.kind) {
        case StepKind::kCopyInput:
          continue;
        case StepKind::kSendInput:
          t.kind = StepKind::kSend;
          t.off = input_base + s.src_off;
          t.src_off = 0;
          break;
        default:
          break;
      }
      rk(leader).steps.push_back(t);
    }
  }
  for (int r = 0; r < p; ++r) {
    info.leader_end[static_cast<std::size_t>(r)] = rk(r).steps.size();
  }

  // ---- phase C: intra-group fan-out / final root hop --------------------
  switch (params.op) {
    case CollOp::kBcast:
    case CollOp::kAllreduce:
    case CollOp::kAllgather:
      if (lv.empty()) {
        for (int j = 0; j < G; ++j) {
          const int leader = j * g;
          for (int m = 1; m < g; ++m) {
            const int r = leader + m;
            rk(leader).send(r, kHierFanoutTag, 0, n);
            rk(r).recv(leader, kHierFanoutTag, 0, n);
          }
        }
      } else {
        // Tree fan-out, top level first: every member's recv (at its unique
        // member level) precedes its own forwarding sends at deeper levels.
        // The shared-memory path collapses this to one single-copy
        // publication by the top leader; the tree shape is what the mailbox
        // fallback and the cost model see.
        for (int j = 0; j < G; ++j) {
          const int base = j * g;
          const int s = group_pop(j);
          for (int i = 0; i < depth; ++i) {
            const int span = strides[static_cast<std::size_t>(i)] *
                             lv[static_cast<std::size_t>(i)];
            for (int lead = 0; lead < s; lead += span) {
              const HierLevelGroup lg =
                  hier_level_group(lv, strides, i, lead, s);
              const int tag = kHierFanoutTag + (i << kHierLevelShift);
              for (const int mrel : lg.members) {
                rk(base + lead).send(base + mrel, tag, 0, n);
                rk(base + mrel).recv(base + lead, tag, 0, n);
              }
            }
          }
        }
      }
      break;
    case CollOp::kReduce:
      if (root != root_leader) {
        rk(root_leader).send(root, kHierRootHopTag, 0, n);
        rk(root).recv(root_leader, kHierRootHopTag, 0, n);
      }
      break;
    default:
      break;  // unreachable: reject() filtered
  }

  out.hier = std::move(info);
  validate_schedule(out);  // bounds, matching, FIFO, progress — like any build
  if (const ScheduleAuditor& audit = current_schedule_auditor()) {
    audit(out, spec.inter_alg);
  }
  return out;
}

namespace {

obs::SpanKind shm_span_kind(StepKind kind) {
  switch (kind) {
    case StepKind::kCopyInput: return obs::SpanKind::kCopyInput;
    case StepKind::kSend: return obs::SpanKind::kSend;
    case StepKind::kSendInput: return obs::SpanKind::kSendInput;
    case StepKind::kRecv: return obs::SpanKind::kRecv;
    case StepKind::kRecvReduce: return obs::SpanKind::kRecvReduce;
  }
  return obs::SpanKind::kSend;
}

/// Emit the span for one intra step executed over the shared segment. The
/// flat step program is the source of truth for kind/peer/tag/bytes, so
/// traces of the shm path and the mailbox path line up step for step; only
/// the transport differs (and shm steps post no message instants — there is
/// no message).
void emit_shm_step(obs::TraceSink* sink, const Schedule& sched, int rank,
                   int group, std::size_t step_idx, double begin_us,
                   double end_us) {
  if (sink == nullptr) return;
  const Step& s = sched.ranks[static_cast<std::size_t>(rank)].steps[step_idx];
  obs::SpanEvent ev;
  ev.kind = shm_span_kind(s.kind);
  ev.rank = rank;
  ev.step = static_cast<std::int32_t>(step_idx);
  ev.bytes = s.bytes;
  ev.begin_us = begin_us;
  ev.end_us = end_us;
  ev.group = group;
  if (s.kind != StepKind::kCopyInput) {
    ev.peer = s.peer;
    ev.tag = s.tag;
    ev.link = obs::LinkClass::kIntra;
    // Multi-level compositions encode the tree level in the intra/fan-out
    // tag (kHierLevelShift); surface it so traces attribute each hop.
    if (sched.hier && !sched.hier->levels.empty()) {
      if (s.tag >= kHierFaninTag && s.tag < kHierFanoutTag) {
        ev.level = (s.tag - kHierFaninTag) >> kHierLevelShift;
      } else if (s.tag >= kHierFanoutTag && s.tag < kHierRootHopTag) {
        ev.level = (s.tag - kHierFanoutTag) >> kHierLevelShift;
      }
    }
  }
  if (obs::is_send(ev.kind)) ev.post_us = end_us;
  sink->span(ev);
}

/// Emit the steps [first, last) of one shared-segment phase. The phase runs
/// its steps as one unit, so they split its window [begin_us, end_us) into
/// equal consecutive slices: the spans tile the window, and per-step span
/// sums count the phase's time once.
void emit_shm_phase(obs::TraceSink* sink, const Schedule& sched, int rank,
                    int group, std::size_t first, std::size_t last,
                    double begin_us, double end_us) {
  if (sink == nullptr || last <= first) return;
  const double slice = (end_us - begin_us) / static_cast<double>(last - first);
  const auto at = [&](std::size_t k) {
    return k == last ? end_us : begin_us + slice * static_cast<double>(k - first);
  };
  for (std::size_t idx = first; idx < last; ++idx) {
    emit_shm_step(sink, sched, rank, group, idx, at(idx), at(idx + 1));
  }
}

/// Shared-memory (ShmTree) execution of the intra phases, for every group
/// shape: a level vector, or the one-level tree {g} when the vector is
/// empty. The composed flat program stays the source of truth for spans;
/// data moves by direct loads and stores on the publishers' buffers:
///
///   fan-in    small payloads on one-level groups (kHierShmSmallBytes): the
///             top leader copies its own input and folds each member's
///             published input in rank order (allgather, up to
///             kHierShmGatherBytes: copies each member's block) — one
///             fragment, no partitioning, no per-call allocation.
///             Otherwise, per level, deepest first, the members of each
///             subgroup reduce concurrently *into their leader's
///             accumulator*, each owning a disjoint chunk
///             (seqlock::chunk_begin/chunk_end) — the leader itself does no
///             fold work. Those payloads stream through the
///             levels in fragments (ExecTuning::shm_fragment_bytes):
///             per-fragment done counters (seqlock::fragment_target) gate a
///             chunk's fold on the deeper contributors of that fragment
///             only, so level i+1 works on fragment f+1 while level i folds
///             fragment f.
///   fan-out   one publication by the top leader; every descendant copies
///             straight from that single buffer, regardless of tree depth.
///
/// Per-byte fold order is leader ⊕ member_1 ⊕ member_2 ⊕ ... per level,
/// deepest level first — identical to the flat program's CopyInput +
/// member-major RecvReduce order (for an empty level vector too), so the shm
/// path and the mailbox path of the same schedule are bit-exact for every
/// datatype.
///
/// Counter discipline: every rank publishes its buffers exactly once per
/// collective and commits its done counter to base + Q on exit
/// (seqlock::commit_target, Q uniform per op: fan-in ops F + 1, others 2),
/// so the group's monotonic counters are equal at every collective boundary
/// and back-to-back collectives overlap safely. Exit fences guarantee nobody
/// still reads a rank's buffers when it returns: the fan-out acks (top
/// leader); the fan-out, or in a reduce without a root hop the leader's done
/// counter, for a small-path member; the member-group peers' final fragment
/// (partitioning member) or the top child gate (partitioning leader). A
/// rank that throws instead retracts its buffers (ShmTree::retract).
void execute_tree_hier(const Schedule& sched, runtime::Communicator& comm,
                       std::span<const std::byte> input,
                       std::span<std::byte> output, runtime::DataType type,
                       runtime::ReduceOp op, obs::TraceSink* sink,
                       const ExecTuning& tuning) {
  namespace sl = runtime::seqlock;
  const HierInfo& h = *sched.hier;
  const CollParams& pr = sched.params;
  const int rank = comm.rank();
  const int g = h.group_size;
  const int group = rank / g;
  const int base = group * g;
  const int s = std::min(g, pr.p - base);
  const int rel = rank - base;
  const std::size_t n = pr.nbytes();
  const std::size_t es = pr.elem_size;
  const std::size_t bb = n / static_cast<std::size_t>(pr.p);
  const int root = pr.root;
  const int root_leader = (root / g) * g;
  const auto reduce_fn =
      tuning.scalar_reduce ? runtime::apply_reduce_scalar : runtime::apply_reduce;
  const auto now = [&] { return sink != nullptr ? obs::wallclock_us() : 0.0; };
  const auto& my_steps = sched.ranks[static_cast<std::size_t>(rank)].steps;
  const std::size_t intra_end = h.intra_end[static_cast<std::size_t>(rank)];
  const std::size_t leader_end = h.leader_end[static_cast<std::size_t>(rank)];

  // Uniform across the group: derived from the schedule and tuning only
  // (ExecTuning must match across ranks).
  const bool one_level = h.levels.size() <= 1;
  const bool small = one_level && n <= kHierShmSmallBytes;
  const bool gather = one_level && n <= kHierShmGatherBytes;
  std::size_t F = 1;
  if (!small && tuning.shm_fragment_bytes > 0) {
    const std::size_t frag_elems =
        std::max<std::size_t>(1, tuning.shm_fragment_bytes / es);
    F = (pr.count + frag_elems - 1) / frag_elems;
  }
  const bool fan_in_op =
      pr.op == CollOp::kReduce || pr.op == CollOp::kAllreduce;
  const std::uint64_t quantum = fan_in_op ? F + 1 : 2;

  const double a_begin = now();
  if (s == 1) {
    // Singleton ragged group: no peers, no counters — just prime the
    // contribution (the composed program's CopyInput) and fall through to
    // the leader-level kernel.
    if (fan_in_op || (pr.op == CollOp::kBcast && rank == root)) {
      std::memcpy(output.data(), input.data(), n);
    }
    const double a_end = now();
    emit_shm_phase(sink, sched, rank, group, 0, intra_end, a_begin, a_end);
    execute_step_range(sched, comm, input, output, type, op, sink, tuning,
                       intra_end, leader_end);
    return;  // no fan-out: [leader_end, end) is empty for a singleton
  }

  runtime::ShmTree& tree = comm.world().shm_tree(base, s);
  const std::uint64_t gen = tree.publish_buffers(rel, input, output.first(n));
  const std::uint64_t dbase = tree.done_base(rel);
  // A throw from here on (abort, revocation or deadline in any wait) skips
  // the exit fences below: retract this rank's buffers and wait out the
  // peers still using them before the caller may free them.
  struct RetractOnThrow {
    runtime::ShmTree& tree;
    int rel;
    std::uint64_t gen;
    std::uint64_t exit_done;
    int uncaught = std::uncaught_exceptions();
    ~RetractOnThrow() {
      if (std::uncaught_exceptions() > uncaught) {
        tree.retract(rel, gen, exit_done);
      }
    }
  } const retract_on_throw{tree, rel, gen, sl::commit_target(dbase, quantum)};

  // ---- phase A over the shared tree -------------------------------------
  switch (pr.op) {
    case CollOp::kReduce:
    case CollOp::kAllreduce:
      if (small) {
        // Unpartitioned: members only publish; their inputs stay put until
        // phase C's fence shows the leader has read them.
        if (rel == 0) {
          std::memcpy(output.data(), input.data(), n);
          for (int m = 1; m < s; ++m) {
            const auto mb = tree.buffers_of(m, gen, rank);
            reduce_fn(op, type, output.first(n),
                      std::span<const std::byte>(mb.src, n), pr.count);
          }
          tree.bump_done(0, sl::fragment_target(dbase, 0));
        }
        break;
      }
      {
        const std::vector<int> lv =
            h.levels.empty() ? std::vector<int>{g} : h.levels;
        const std::vector<int> strides = hier_level_strides(lv);
        if (rel == 0) {
          // Top leader: the members build this rank's accumulator; await
          // the final fragment of the shallowest child gate (transitively
          // covers every deeper contributor) before the inter kernel may
          // read or mutate the output.
          for (const int x : hier_child_gate(lv, strides, 0, -1, s)) {
            tree.await_done(x, sl::fragment_target(dbase, F - 1), rank);
          }
          break;
        }
        const int ml = hier_member_level(lv, strides, rel);
        const HierLevelGroup lg = hier_level_group(lv, strides, ml, rel, s);
        const std::size_t c = lg.members.size();
        std::size_t my_idx = 0;
        while (lg.members[my_idx] != rel) ++my_idx;
        // Contributors in fold order: the subgroup leader, then members
        // ascending. A contributor whose child gate (below this level) is
        // empty is "prime": its contribution is its raw input; otherwise
        // its accumulator, gated per fragment on that child gate.
        struct Contrib {
          bool prime = true;
          runtime::ShmTree::Buffers buf;
          std::vector<int> gate;
        };
        std::vector<Contrib> contribs;
        contribs.reserve(c + 1);
        const auto add_contrib = [&](int x) {
          Contrib ct;
          ct.gate = hier_child_gate(lv, strides, x, ml, s);
          ct.prime = ct.gate.empty();
          ct.buf = tree.buffers_of(x, gen, rank);
          contribs.push_back(std::move(ct));
        };
        add_contrib(lg.leader);
        for (const int m : lg.members) add_contrib(m);
        const runtime::ShmTree::Buffers qb = contribs.front().buf;
        for (std::size_t f = 0; f < F; ++f) {
          for (const Contrib& ct : contribs) {
            for (const int t : ct.gate) {
              tree.await_done(t, sl::fragment_target(dbase, f), rank);
            }
          }
          const std::size_t f0 = pr.count * f / F;
          const std::size_t f1 = pr.count * (f + 1) / F;
          const std::size_t c0 = f0 + sl::chunk_begin(my_idx, c, f1 - f0);
          const std::size_t c1 = f0 + sl::chunk_end(my_idx, c, f1 - f0);
          if (c1 > c0) {
            const std::size_t off = c0 * es;
            const std::size_t len = (c1 - c0) * es;
            std::byte* const dst = qb.acc + off;
            if (contribs.front().prime) {
              std::memcpy(dst, qb.src + off, len);
            }
            for (std::size_t mi = 1; mi < contribs.size(); ++mi) {
              const Contrib& ct = contribs[mi];
              const std::byte* const src =
                  (ct.prime ? ct.buf.src : ct.buf.acc) + off;
              reduce_fn(op, type, std::span<std::byte>(dst, len),
                        std::span<const std::byte>(src, len), c1 - c0);
            }
          }
          tree.bump_done(rel, sl::fragment_target(dbase, f));
        }
        // Exit fence: the member-group peers each fold a chunk of *this*
        // rank's contribution; they are done with it once they bumped the
        // final fragment.
        for (const int m : lg.members) {
          if (m != rel) {
            tree.await_done(m, sl::fragment_target(dbase, F - 1), rank);
          }
        }
      }
      break;
    case CollOp::kBcast:
      // The root's group leader stages the payload. A root that is not the
      // leader needs no fence here: it waits on the fan-out in phase C,
      // which the leader raises only after this copy.
      if (group == root / g && rel == 0) {
        if (root != base) {
          const auto rb = tree.buffers_of(root - base, gen, rank);
          std::memcpy(output.data(), rb.src, n);
        } else {
          std::memcpy(output.data(), input.data(), n);
        }
      }
      break;
    case CollOp::kAllgather:
      // Small payloads (kHierShmGatherBytes): the leader gathers every
      // member's block. Otherwise a single-copy scatter: every member stores
      // its own block directly into the leader's output at its absolute
      // offset. Both move the same bytes as the flat program's member send +
      // leader recv.
      if (rel == 0) {
        std::memcpy(output.data() + static_cast<std::size_t>(base) * bb,
                    input.data(), bb);
        for (int m = 1; m < s; ++m) {
          if (gather) {
            const auto mb = tree.buffers_of(m, gen, rank);
            std::memcpy(output.data() + static_cast<std::size_t>(base + m) * bb,
                        mb.src, bb);
          } else {
            tree.await_done(m, dbase + 1, rank);
          }
        }
      } else if (!gather) {
        const auto lb = tree.buffers_of(0, gen, rank);
        std::memcpy(lb.acc + static_cast<std::size_t>(base + rel) * bb,
                    input.data(), bb);
        tree.bump_done(rel, dbase + 1);
      }
      break;
    default:
      throw std::logic_error("execute_tree_hier: unsupported op in schedule");
  }
  const double a_end = now();
  emit_shm_phase(sink, sched, rank, group, 0, intra_end, a_begin, a_end);

  // ---- phase B: leader-level kernel over the mailbox --------------------
  execute_step_range(sched, comm, input, output, type, op, sink, tuning,
                     intra_end, leader_end);

  // ---- phase C over the shared tree -------------------------------------
  const double c_begin = now();
  switch (pr.op) {
    case CollOp::kBcast:
    case CollOp::kAllreduce:
    case CollOp::kAllgather:
      // Single-copy fan-out: one publication by the top leader, every
      // descendant copies directly from its buffer — the tree levels of the
      // flat program collapse into one concurrent read.
      if (rel == 0) {
        const std::uint64_t seq = tree.fanout_publish();
        tree.await_fanout_acks(seq, rank);
      } else {
        const auto lb = tree.await_fanout(rel, rank);
        std::memcpy(output.data(), lb.acc, n);
        tree.ack_fanout(rel);
      }
      break;
    case CollOp::kReduce:
      // Final hop to the root; non-recipient members still acknowledge so
      // the group's fan-out counters stay in lockstep.
      if (root != root_leader && group == root / g) {
        if (rel == 0) {
          const std::uint64_t seq = tree.fanout_publish();
          tree.await_fanout_acks(seq, rank);
        } else {
          const auto lb = tree.await_fanout(rel, rank);
          if (rank == root) {
            std::memcpy(output.data(), lb.acc, n);
          }
          tree.ack_fanout(rel);
        }
      } else if (small && rel != 0) {
        // No fan-out to wait on: fence on the leader having folded our input.
        tree.await_done(0, sl::fragment_target(dbase, 0), rank);
      }
      break;
    default:
      break;  // unreachable
  }
  tree.bump_done(rel, sl::commit_target(dbase, quantum));
  const double c_end = now();
  emit_shm_phase(sink, sched, rank, group, leader_end, my_steps.size(),
                 c_begin, c_end);
}

}  // namespace

bool runs_on_shm_tree(const Schedule& sched, const runtime::Communicator& comm) {
  return sched.hier && sched.hier->group_size >= 2 && comm.plain_transport();
}

void execute_hierarchical(const Schedule& sched, runtime::Communicator& comm,
                          std::span<const std::byte> input,
                          std::span<std::byte> output, runtime::DataType type,
                          runtime::ReduceOp op, obs::TraceSink* sink,
                          const ExecTuning& tuning) {
  // The shm fast path needs the plain transport: under fault injection or
  // reliability the flat composed program runs over the mailbox, so crashes
  // and corruption surface through the existing fault machinery.
  if (!runs_on_shm_tree(sched, comm)) {
    execute_rank_program(sched, comm, input, output, type, op, sink, tuning);
    return;
  }
  exec_detail::check_rank_buffers(sched, comm, input, output, type);
  comm.set_trace_sink(sink);
  execute_tree_hier(sched, comm, input, output, type, op, sink, tuning);
}

}  // namespace gencoll::core
