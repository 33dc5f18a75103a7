#include "core/elastic.hpp"

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <utility>

#include "core/algorithms.hpp"
#include "core/registry.hpp"
#include "fault/error.hpp"
#include "runtime/event_pool.hpp"

namespace gencoll::core {

namespace {

using steady_clock = std::chrono::steady_clock;

/// Flat fallback chain: the hint as-is, the hint across its candidate
/// radixes, then every registered algorithm across its radixes.
Schedule build_flat(Algorithm hint, CollParams params) {
  if (supports_params(hint, params)) return build_schedule(hint, params);
  for (int k : candidate_radixes(params.op, hint, params.p)) {
    params.k = k;
    if (supports_params(hint, params)) return build_schedule(hint, params);
  }
  for (Algorithm alg : algorithms_for(params.op)) {
    for (int k : candidate_radixes(params.op, alg, params.p)) {
      params.k = k;
      if (supports_params(alg, params)) return build_schedule(alg, params);
    }
  }
  throw unsupported_params("elastic", params,
                           "no registered algorithm supports the shrunk world");
}

void emit_instant(obs::TraceSink* sink, obs::InstantKind kind, int rank,
                  int peer, int tag) {
  if (sink == nullptr) return;
  obs::InstantEvent ev;
  ev.kind = kind;
  ev.rank = rank;
  ev.peer = peer;
  ev.tag = tag;
  ev.time_us = obs::wallclock_us();
  sink->instant(ev);
}

bool recoverable(FaultKind kind) {
  // kRevoked: a peer's death (or suspicion) revoked our epoch. kTimeout /
  // kRetriesExhausted: we suspect a loss ourselves — revoke and let the
  // agreement decide who is actually gone. Everything else (own kRankDeath,
  // abort poison, schedule bugs) is not survivable by shrinking.
  return kind == FaultKind::kRevoked || kind == FaultKind::kTimeout ||
         kind == FaultKind::kRetriesExhausted;
}

}  // namespace

Schedule build_elastic_schedule(const ElasticOptions& options, CollParams params) {
  check_params(params);
  if (options.hier) {
    // Hierarchy repair: the original group size first (shape preserved when
    // it still divides p'), then small standard groups. The inter kernel and
    // radix travel unchanged; supports_hierarchical re-validates them
    // against the shrunk leader count.
    std::vector<int> groups{options.hier->group_size, 2, 4, 8};
    for (std::size_t i = 0; i < groups.size(); ++i) {
      const int g = groups[i];
      if (std::find(groups.begin(), groups.begin() + static_cast<std::ptrdiff_t>(i),
                    g) != groups.begin() + static_cast<std::ptrdiff_t>(i)) {
        continue;  // duplicate of an earlier candidate
      }
      HierSpec spec = *options.hier;
      spec.group_size = g;
      if (i != 0) {
        // Fallback group sizes replace the original shape wholesale: a level
        // vector's product would contradict the candidate g, so shrink to the
        // flat composition (level vectors are a steady-state optimization,
        // not worth preserving across a repair).
        spec.levels.clear();
      }
      if (supports_hierarchical(spec, params)) {
        return build_hierarchical_schedule(spec, params);
      }
    }
    return build_flat(options.hier->inter_alg, params);
  }
  return build_flat(options.alg, params);
}

namespace {

using exec_detail::ScheduleRunner;

/// One rank of an elastic collective: the phase machine
/// start -> execute -> commit, with recover -> start after any survivable
/// failure. A shared-memory composition runs whole inside start. Run to completion in blocking mode by the
/// threaded engine and execute_rank_elastic; advanced in resumable slices
/// by the event engine, where only the execute phase parks or yields.
class ElasticRank final : public exec_detail::RankBody {
 public:
  /// The committed output lands in `out`, the report in `*report`.
  ElasticRank(const CollParams& params, runtime::DataType type,
              runtime::ReduceOp op, const ElasticOptions& options,
              const InputProvider& provider, std::vector<std::byte>& out,
              ElasticReport* report)
      : params_(params), type_(type), op_(op), options_(options),
        provider_(provider), out_(out), report_(report),
        root_orig_(params.root) {}

  ScheduleRunner::Outcome advance(runtime::Communicator& comm,
                                  bool blocking) override {
    runtime::World& world = comm.world();
    if (!started_) {
      started_ = true;
      view_ = world.membership().view();
    }
    // Each case sets the next phase or returns. A FaultError of the first
    // three phases enters recovery when recoverable; recover() itself runs
    // outside the try, so its errors (own death, recovery cap) escape to
    // the engine.
    for (;;) {
      try {
        switch (phase_) {
          case Phase::kStart: start(comm); break;
          case Phase::kExecute: {
            const auto o = runner_.advance(comm, type_, op_, options_.sink,
                                           options_.tuning, blocking);
            if (o.run != ScheduleRunner::Run::kComplete) return o;
            rep_.schedule_name = sched_.name;
            phase_ = Phase::kCommit;
            break;
          }
          case Phase::kCommit: {
            // Commit rendezvous: the result stands only when every member of
            // this epoch finished (managed blocking inside try_commit). A
            // false return means the epoch was revoked under us (late peer
            // crash) — recover and retry like any mid-flight revoke.
            if (world.membership().try_commit(comm.world_rank(), comm.epoch(),
                                              world.membership().config().agree_timeout)) {
              rep_.final_p = cur_.p;
              rep_.final_epoch = comm.epoch();
              rep_.survivors = view_.survivors;
              out_ = std::move(output_);
              if (report_ != nullptr) *report_ = rep_;
              return {};
            }
            phase_ = Phase::kRecover;
            break;
          }
          case Phase::kRecover: break;
        }
      } catch (const FaultError& e) {
        if (!recoverable(e.kind())) throw;
        // Make sure the epoch really is revoked so every survivor converges
        // on the agreement (no-op when the crash site already revoked it).
        if (e.kind() != FaultKind::kRevoked) {
          emit_instant(options_.sink, obs::InstantKind::kRevoke,
                       comm.world_rank(), -1, comm.epoch());
          world.revoke(comm.epoch(), comm.world_rank(), e.what());
        }
        phase_ = Phase::kRecover;
      }
      if (phase_ == Phase::kRecover) recover(comm);
    }
  }

 private:
  enum class Phase { kStart, kExecute, kCommit, kRecover };

  /// Rescale the problem to this epoch, build its schedule, fetch fresh
  /// input and begin the program.
  void start(runtime::Communicator& comm) {
    cur_ = params_;
    cur_.p = comm.size();
    const int root_dense = view_.dense_rank(root_orig_);
    cur_.root = root_dense >= 0 ? root_dense : 0;
    output_.assign(output_bytes(cur_), std::byte{});
    if (cur_.p == 1) {
      // Degenerate single-survivor world: every collective reduces to an
      // input -> output copy (nothing left to exchange).
      const std::vector<std::byte> input = provider_(cur_, comm.rank());
      const std::size_t n = std::min(input.size(), output_.size());
      if (n != 0) std::memcpy(output_.data(), input.data(), n);
      rep_.schedule_name = "identity(p=1)";
      ++rep_.attempts;
      phase_ = Phase::kCommit;
      return;
    }
    sched_ = build_elastic_schedule(options_, cur_);
    input_ = provider_(cur_, comm.rank());
    ++rep_.attempts;
    if (exec_detail::begin_rank_program(runner_, sched_, comm, input_, output_,
                                        type_, op_, options_.sink,
                                        options_.tuning)) {
      rep_.schedule_name = sched_.name;
      phase_ = Phase::kCommit;
    } else {
      phase_ = Phase::kExecute;
    }
  }

  /// Agree on the survivors and enter the new epoch (managed blocking inside
  /// agree_and_shrink). Throws FaultError(kRankDeath) when this rank was
  /// declared dead, which the engine's failure policy absorbs.
  void recover(runtime::Communicator& comm) {
    runtime::World& world = comm.world();
    const int self = comm.world_rank();
    const auto t0 = steady_clock::now();
    emit_instant(options_.sink, obs::InstantKind::kAgree, self, -1, comm.epoch());
    view_ = world.join_recovery(comm.epoch(), self);
    comm.apply_epoch(view_);
    ++rep_.shrinks;
    rep_.recovery_latency_ms +=
        std::chrono::duration<double, std::milli>(steady_clock::now() - t0).count();
    emit_instant(options_.sink, obs::InstantKind::kShrink, self, view_.size(),
                 view_.epoch);
    const fault::RecoveryConfig& cfg = world.membership().config();
    if (rep_.shrinks > cfg.max_recoveries) {
      throw FaultError(FaultKind::kRetriesExhausted, self, -1, -1,
                       "elastic recovery cap reached after " +
                           std::to_string(rep_.shrinks) + " shrink(s) (cap " +
                           std::to_string(cfg.max_recoveries) + ")");
    }
    // The root died (or was already gone): promote the lowest survivor.
    if (view_.dense_rank(root_orig_) < 0) root_orig_ = view_.survivors.front();
    phase_ = Phase::kStart;
  }

  const CollParams& params_;
  runtime::DataType type_;
  runtime::ReduceOp op_;
  const ElasticOptions& options_;
  const InputProvider& provider_;
  std::vector<std::byte>& out_;
  ElasticReport* report_;

  Phase phase_ = Phase::kStart;
  bool started_ = false;
  ElasticReport rep_;
  // Rooted ops track the root as an ORIGINAL rank across shrinks; when the
  // root itself dies the lowest-ranked survivor inherits the role (dense
  // rank 0 after the remap, by the ascending-survivor ordering).
  int root_orig_;
  runtime::EpochView view_;
  CollParams cur_;
  Schedule sched_;
  std::vector<std::byte> input_;
  std::vector<std::byte> output_;
  ScheduleRunner runner_;
};

/// execute_threaded_elastic on a given engine.
std::vector<std::vector<std::byte>> run_elastic(
    runtime::ExecutorKind engine, const CollParams& params, runtime::DataType type,
    runtime::ReduceOp op, const ElasticOptions& options,
    const InputProvider& provider, const runtime::WorldOptions& world_options,
    std::vector<ElasticReport>* reports) {
  check_params(params);
  const auto p = static_cast<std::size_t>(params.p);
  std::vector<std::vector<std::byte>> outputs(p);
  if (reports != nullptr) reports->assign(p, ElasticReport{});
  std::vector<ElasticRank> bodies;
  bodies.reserve(p);
  for (std::size_t r = 0; r < p; ++r) {
    bodies.emplace_back(params, type, op, options, provider, outputs[r],
                        reports != nullptr ? &(*reports)[r] : nullptr);
  }
  exec_detail::run_ranks(engine, params.p, world_options,
                         [&](int r) -> exec_detail::RankBody& {
                           return bodies[static_cast<std::size_t>(r)];
                         });
  return outputs;
}

}  // namespace

std::vector<std::byte> execute_rank_elastic(runtime::Communicator& comm,
                                            const CollParams& params,
                                            runtime::DataType type,
                                            runtime::ReduceOp op,
                                            const ElasticOptions& options,
                                            const InputProvider& provider,
                                            ElasticReport* report) {
  check_params(params);
  std::vector<std::byte> out;
  ElasticRank body(params, type, op, options, provider, out, report);
  body.advance(comm, /*blocking=*/true);
  return out;
}

std::vector<std::vector<std::byte>> execute_threaded_elastic(
    const CollParams& params, runtime::DataType type, runtime::ReduceOp op,
    const ElasticOptions& options, const InputProvider& provider,
    const runtime::WorldOptions& world_options,
    std::vector<ElasticReport>* reports) {
  // Engine dispatch: explicit option > GENCOLL_EXECUTOR > thread-per-rank.
  return run_elastic(runtime::resolve_executor(world_options.executor), params,
                     type, op, options, provider, world_options, reports);
}

}  // namespace gencoll::core
