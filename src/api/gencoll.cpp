#include "api/gencoll.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <vector>

#include "check/check.hpp"
#include "service/bandit.hpp"

namespace gencoll {

namespace {

double wallclock_us() {
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace

Collectives::Collectives(runtime::Communicator& comm, tuning::SelectionConfig config)
    : comm_(comm),
      config_(std::move(config)),
      cache_epoch_(comm.epoch()) {}

tuning::AlgorithmChoice Collectives::resolve(CollOp op, std::size_t nbytes,
                                             const AlgSpec& spec) const {
  tuning::AlgorithmChoice choice;
  if (spec.algorithm) {
    choice.algorithm = *spec.algorithm;
    choice.k = core::effective_radix(*spec.algorithm, spec.k.value_or(2));
  } else {
    choice = config_.choose(op, comm_.size(), nbytes);
    if (spec.k) choice.k = core::effective_radix(choice.algorithm, *spec.k);
  }
  if (spec.levels) {
    // Explicit per-call shape: a non-empty vector selects the multi-level
    // intra tree (group size = its product); an explicit empty vector
    // forces the flat intra fan-in at whatever group size is in effect.
    choice.levels = core::hier_canonical_levels(*spec.levels);
    if (!choice.levels.empty()) {
      choice.group_size = core::hier_levels_product(choice.levels);
    } else if (spec.group_size) {
      choice.group_size = *spec.group_size;
    }
  } else if (spec.group_size) {
    choice.group_size = *spec.group_size;
    choice.levels.clear();
  } else if (choice.group_size <= 1 && !choice.flat_pinned && config_.ppn >= 2 &&
             comm_.size() == config_.ppn && core::hier_supported_op(op) &&
             nbytes < core::ExecTuning{}.pipeline_threshold &&
             comm_.plain_transport()) {
    // Co-located default: the World is one node of ppn ranks, so its
    // traffic goes over shared memory in a single group. Multi-group
    // Worlds keep the rule's flat kernel: nothing has measured the
    // composed leader phase against it. The gate is on the call's total
    // payload (for allgather, the whole output), with the zero-copy
    // threshold as its bound: large calls keep the flat zero-copy path.
    // Non-plain transports keep the mailbox.
    choice.group_size = config_.ppn;
  }
  return choice;
}

void Collectives::use_online_selection(service::OnlineSelector* selector,
                                       int tenant) {
  online_ = selector;
  online_tenant_ = tenant;
  pending_.reset();
  online_rounds_.clear();
}

void Collectives::refresh_epoch() {
  if (comm_.epoch() == cache_epoch_) return;
  cache_epoch_ = comm_.epoch();
  // A shrink installed a new epoch underneath this facade: the cached
  // schedules (and any half-charged online round) describe the pre-shrink
  // dense rank space. Start clean over the survivors.
  cache_.clear();
  pending_.reset();
  online_rounds_.clear();
  if (online_ != nullptr) online_->rescale_world(comm_.size());
}

const Collectives::CachedSchedule& Collectives::schedule_for(
    CollOp op, std::size_t count, std::size_t elem_size, int root,
    const AlgSpec& spec) {
  refresh_epoch();
  tuning::AlgorithmChoice choice;
  // Per-call overrides beat online mode: the tuning experiments must be able
  // to pin an algorithm even on a communicator running adaptively.
  if (online_ != nullptr && !spec.algorithm && !spec.k && !spec.group_size &&
      !spec.levels) {
    // Round-synchronized decision: all ranks present the same per-key round
    // counter, so the shared selector hands every rank the same arm — a
    // per-rank epsilon draw could otherwise split the communicator across
    // two different schedules and deadlock the exchange.
    const service::ArmKey akey{op, service::size_class(count * elem_size),
                               online_tenant_};
    const std::uint64_t round = online_rounds_[{op, akey.size_class}]++;
    choice = service::choice_of(
        online_->choose_at(akey, op, count, elem_size, round, wallclock_us()));
    // The reward is charged to the *chosen* arm even when an unsupported
    // choice falls through to a fallback schedule below — the arm honestly
    // earns whatever latency asking for it produced.
    pending_ = PendingReward{op, count, elem_size, choice, round};
  } else {
    choice = resolve(op, count * elem_size, spec);
  }

  // The cache is keyed on the request: whether it composes hierarchically,
  // runs flat or needs the vendor fallback is decided once, on the miss.
  const bool hier = choice.group_size > 1;
  ScheduleKey key{op,
                  comm_.size(),
                  root,
                  count,
                  elem_size,
                  choice.k,
                  choice.algorithm,
                  hier ? choice.group_size : 0,
                  hier ? std::move(choice.levels) : std::vector<int>{}};
  auto it = cache_.find(key);
  if (it == cache_.end()) {
    CachedSchedule entry = build_entry(key);
    it = cache_.emplace(std::move(key), std::move(entry)).first;
  }
  if (it->second.hier_fallback) ++hier_fallbacks_;
  return it->second;
}

Collectives::CachedSchedule Collectives::build_entry(const ScheduleKey& key) {
  core::CollParams params;
  params.op = key.op;
  params.p = key.p;
  params.root = key.root;
  params.count = key.count;
  params.elem_size = key.elem_size;
  params.k = key.k;
  CachedSchedule entry;
  if (key.group_size > 1) {
    const core::HierSpec hspec{key.group_size, key.algorithm, key.k, key.levels};
    if (core::supports_hierarchical(hspec, params)) {
      entry.sched = core::build_hierarchical_schedule(hspec, params);
      return entry;
    }
    // Shapes the composition cannot express (p % g != 0, ragged allgather
    // blocks, uncovered ops) run the flat schedule below.
    entry.hier_fallback = true;
  }
  Algorithm algorithm = key.algorithm;
  if (!core::supports_params(algorithm, params)) {
    // Selection config may request e.g. k-ring with k not dividing p; fall
    // back to the vendor default rather than failing the collective.
    const tuning::AlgorithmChoice fallback =
        tuning::vendor_default(key.op, key.p, params.nbytes());
    algorithm = fallback.algorithm;
    params.k = fallback.k;
  }
  entry.sched = core::build_schedule(algorithm, params);
  entry.zero_copy = zero_copy_verdict(entry.sched, algorithm);
  return entry;
}

bool Collectives::zero_copy_verdict(const core::Schedule& sched,
                                    Algorithm algorithm) {
  if (!comm_.plain_transport()) return false;
  // Size gate: small schedules gain little from skipping a copy and never
  // pay for a proof.
  const std::size_t threshold = core::ExecTuning{}.pipeline_threshold;
  const auto large_send = [threshold](const core::Step& s) {
    return (s.kind == core::StepKind::kSend || s.kind == core::StepKind::kSendInput) &&
           s.bytes >= threshold;
  };
  if (std::none_of(sched.ranks.begin(), sched.ranks.end(),
                   [&](const core::RankProgram& prog) {
                     return std::any_of(prog.steps.begin(), prog.steps.end(),
                                        large_send);
                   })) {
    return false;
  }
  check::CheckOptions options;
  options.zero_copy = true;
  options.conformance = false;
  if (check::check_schedule(sched, algorithm, options).ok()) return true;
  ++zero_copy_rejections_;
  return false;
}

void Collectives::execute(const CachedSchedule& entry,
                          std::span<const std::byte> input,
                          std::span<std::byte> output, DataType type, ReduceOp op) {
  const core::Schedule& sched = entry.sched;
  const bool feed_online = online_ != nullptr && pending_.has_value();
  const double begin_us = feed_online ? wallclock_us() : 0.0;
  if (sched.hier) {
    core::execute_hierarchical(sched, comm_, input, output, type, op, sink_);
  } else {
    core::ExecTuning tuning;
    tuning.zero_copy = entry.zero_copy;
    try {
      core::execute_rank_program(sched, comm_, input, output, type, op, sink_,
                                 tuning);
      // Under zero-copy peers read this rank's buffers in place: the caller
      // gets them back only once every posted view has been released.
      comm_.fence_views();
    } catch (...) {
      comm_.retract_views();
      throw;
    }
  }
  if (feed_online) {
    const service::ArmKey akey{
        pending_->op,
        service::size_class(pending_->count * pending_->elem_size),
        online_tenant_};
    online_->record_at(akey, pending_->round, service::arm_of(pending_->choice),
                       wallclock_us() - begin_us, comm_.size());
    pending_.reset();
  }
}

std::span<std::byte> Collectives::staging(std::size_t bytes,
                                          std::vector<std::byte>& large) {
  if (bytes > kMaxStagingBytes) {
    large.resize(bytes);
    return large;
  }
  // Reuse across calls is sound because execute() returns only after
  // fence_views() (or retract_views() on a throw): no peer still reads a
  // view of the previous call's staging bytes.
  if (staging_.size() < bytes) staging_.resize(bytes);
  return std::span<std::byte>(staging_).first(bytes);
}

std::span<const std::byte> Collectives::stage(std::span<const std::byte> data,
                                              std::vector<std::byte>& large) {
  const std::span<std::byte> staged = staging(data.size(), large);
  if (!data.empty()) std::memcpy(staged.data(), data.data(), data.size());
  return staged;
}

void Collectives::bcast(std::span<std::byte> buf, int root, const AlgSpec& spec) {
  const CachedSchedule& entry =
      schedule_for(CollOp::kBcast, buf.size(), 1, root, spec);
  if (comm_.rank() == root) {
    // The schedule copies input -> output; stage the root payload so the
    // user can pass one in-place buffer.
    std::vector<std::byte> large;
    execute(entry, stage(buf, large), buf, DataType::kByte, ReduceOp::kSum);
  } else {
    execute(entry, {}, buf, DataType::kByte, ReduceOp::kSum);
  }
}

void Collectives::reduce(std::span<const std::byte> in, std::span<std::byte> out,
                         DataType type, ReduceOp op, int root, const AlgSpec& spec) {
  const std::size_t es = runtime::datatype_size(type);
  if (in.size() % es != 0) {
    throw std::invalid_argument("reduce: buffer not a multiple of datatype size");
  }
  const CachedSchedule& entry =
      schedule_for(CollOp::kReduce, in.size() / es, es, root, spec);
  std::vector<std::byte> large;
  std::span<std::byte> work = out;
  if (comm_.rank() != root || out.size() < in.size()) {
    // Non-root ranks need workspace even though they produce no result.
    work = staging(in.size(), large);
  }
  execute(entry, in, work, type, op);
}

void Collectives::allreduce(std::span<const std::byte> in, std::span<std::byte> out,
                            DataType type, ReduceOp op, const AlgSpec& spec) {
  const std::size_t es = runtime::datatype_size(type);
  if (in.size() % es != 0 || out.size() != in.size()) {
    throw std::invalid_argument("allreduce: in/out sizes must match datatype layout");
  }
  const CachedSchedule& entry =
      schedule_for(CollOp::kAllreduce, in.size() / es, es, 0, spec);
  execute(entry, in, out, type, op);
}

void Collectives::allreduce(std::span<std::byte> buf, DataType type, ReduceOp op,
                            const AlgSpec& spec) {
  std::vector<std::byte> large;
  allreduce(stage(buf, large), buf, type, op, spec);
}

void Collectives::gather(std::span<const std::byte> in, std::span<std::byte> out,
                         int root, DataType type, const AlgSpec& spec) {
  // The blocks are element-aligned so they match what a typed caller holds;
  // `out` must be sized to the total payload on every rank (non-roots use it
  // as workspace).
  const std::size_t es = runtime::datatype_size(type);
  if (out.empty() || out.size() % es != 0) {
    throw std::invalid_argument(
        "gather: out must be sized to the total payload (a multiple of the "
        "datatype size) on every rank");
  }
  const CachedSchedule& entry =
      schedule_for(CollOp::kGather, out.size() / es, es, root, spec);
  execute(entry, in, out, type, ReduceOp::kSum);
}

void Collectives::allgather(std::span<const std::byte> in, std::span<std::byte> out,
                            DataType type, const AlgSpec& spec) {
  const std::size_t es = runtime::datatype_size(type);
  if (out.empty() || out.size() % es != 0) {
    throw std::invalid_argument(
        "allgather: out must be sized to the total payload (a multiple of "
        "the datatype size) on every rank");
  }
  const CachedSchedule& entry =
      schedule_for(CollOp::kAllgather, out.size() / es, es, 0, spec);
  execute(entry, in, out, type, ReduceOp::kSum);
}

void Collectives::scatter(std::span<const std::byte> in, std::span<std::byte> out,
                          int root, DataType type, const AlgSpec& spec) {
  const std::size_t es = runtime::datatype_size(type);
  if (out.empty() || out.size() % es != 0) {
    throw std::invalid_argument(
        "scatter: out must be sized to the total payload (a multiple of the "
        "datatype size) on every rank");
  }
  const CachedSchedule& entry =
      schedule_for(CollOp::kScatter, out.size() / es, es, root, spec);
  execute(entry, in, out, type, ReduceOp::kSum);
}

void Collectives::reduce_scatter(std::span<const std::byte> in,
                                 std::span<std::byte> out, DataType type, ReduceOp op,
                                 const AlgSpec& spec) {
  const std::size_t es = runtime::datatype_size(type);
  if (in.size() % es != 0 || out.size() != in.size()) {
    throw std::invalid_argument(
        "reduce_scatter: in/out must match and be datatype-aligned");
  }
  const CachedSchedule& entry =
      schedule_for(CollOp::kReduceScatter, in.size() / es, es, 0, spec);
  execute(entry, in, out, type, op);
}

void Collectives::alltoall(std::span<const std::byte> in, std::span<std::byte> out,
                           DataType type, const AlgSpec& spec) {
  const std::size_t es = runtime::datatype_size(type);
  const auto p = static_cast<std::size_t>(comm_.size());
  if (in.size() != out.size() || in.size() % (es * p) != 0) {
    throw std::invalid_argument(
        "alltoall: in/out must match and hold p datatype-aligned chunks");
  }
  // CollParams.count is the per-destination element count.
  const CachedSchedule& entry =
      schedule_for(CollOp::kAlltoall, in.size() / es / p, es, 0, spec);
  execute(entry, in, out, type, ReduceOp::kSum);
}

void Collectives::scan(std::span<const std::byte> in, std::span<std::byte> out,
                       DataType type, ReduceOp op, const AlgSpec& spec) {
  const std::size_t es = runtime::datatype_size(type);
  if (in.size() % es != 0 || out.size() != in.size()) {
    throw std::invalid_argument("scan: in/out must match and be datatype-aligned");
  }
  const CachedSchedule& entry =
      schedule_for(CollOp::kScan, in.size() / es, es, 0, spec);
  execute(entry, in, out, type, op);
}

void Collectives::barrier_collective(const AlgSpec& spec) {
  const CachedSchedule& entry = schedule_for(CollOp::kBarrier, 0, 1, 0, spec);
  std::byte token{};
  execute(entry, {}, std::span<std::byte>(&token, 1), DataType::kByte,
          ReduceOp::kSum);
}

std::vector<std::vector<std::byte>> run_collective(
    const CollectiveSpec& spec, const RankInputFn& input,
    const runtime::WorldOptions& world_options, obs::TraceSink* sink) {
  core::CollParams params;
  params.op = spec.op;
  params.p = spec.ranks;
  params.root = spec.root;
  params.count = spec.count;
  params.elem_size = runtime::datatype_size(spec.type);
  core::check_params(params);

  // Resolve (algorithm, k): an explicit pair is taken at face value (build
  // throws UnsupportedParams if it cannot run this shape); otherwise sweep
  // the candidate radixes of the requested — or each registered — algorithm
  // and take the first supported combination, mirroring the elastic
  // driver's fallback chain.
  const auto try_with_radixes = [&](Algorithm alg) -> std::optional<core::Schedule> {
    if (spec.k) {
      params.k = *spec.k;
      if (core::supports_params(alg, params)) {
        return core::build_schedule(alg, params);
      }
      return std::nullopt;
    }
    for (int k : core::candidate_radixes(spec.op, alg, params.p)) {
      params.k = k;
      if (core::supports_params(alg, params)) {
        return core::build_schedule(alg, params);
      }
    }
    return std::nullopt;
  };
  std::optional<core::Schedule> sched;
  if (spec.algorithm) {
    sched = try_with_radixes(*spec.algorithm);
  } else {
    for (Algorithm alg : core::algorithms_for(spec.op)) {
      sched = try_with_radixes(alg);
      if (sched) break;
    }
  }
  if (!sched) {
    throw std::invalid_argument(
        "run_collective: no supported (algorithm, k) for " + params.describe());
  }

  std::vector<std::vector<std::byte>> inputs(static_cast<std::size_t>(params.p));
  for (int r = 0; r < params.p; ++r) {
    const std::size_t bytes = core::input_bytes(params, r);
    auto& buf = inputs[static_cast<std::size_t>(r)];
    if (input) {
      buf = input(r, bytes);
      if (buf.size() != bytes) {
        throw std::invalid_argument(
            "run_collective: input provider returned " +
            std::to_string(buf.size()) + " bytes for rank " + std::to_string(r) +
            ", layout requires " + std::to_string(bytes));
      }
    } else {
      buf.assign(bytes, std::byte{});
    }
  }

  core::ThreadedExecOptions options;
  options.sink = sink;
  options.world = world_options;
  // execute_threaded dispatches on options.world.executor / GENCOLL_EXECUTOR,
  // so the event engine is one WorldOptions field away.
  return core::execute_threaded(*sched, inputs, spec.type, spec.reduce, options);
}

void run_ranks(int ranks, const std::function<void(Collectives&)>& body,
               const tuning::SelectionConfig& config) {
  run_ranks(ranks, body, config, runtime::WorldOptions{});
}

void run_ranks(int ranks, const std::function<void(Collectives&)>& body,
               const tuning::SelectionConfig& config,
               const runtime::WorldOptions& world_options) {
  runtime::World::run(
      ranks,
      [&](runtime::Communicator& comm) {
        Collectives coll(comm, config);
        body(coll);
      },
      world_options);
}

}  // namespace gencoll
