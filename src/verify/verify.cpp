#include "verify/verify.hpp"

#include <stdexcept>
#include <utility>

namespace gencoll::verify {

namespace {

Counterexample explore_membership(const MembershipConfig& config,
                                  fault::ProtocolMutation mutation,
                                  const ExploreOptions& options) {
  const MembershipModel model(config, mutation);
  Explorer<MembershipModel> explorer(model, options);
  return make_counterexample(model, explorer.run());
}

Counterexample explore_seqlock(const SeqlockConfig& config,
                               fault::ProtocolMutation mutation,
                               const ExploreOptions& options) {
  const SeqlockModel model(config, mutation);
  Explorer<SeqlockModel> explorer(model, options);
  return make_counterexample(model, explorer.run());
}

Counterexample explore_partition(const PartitionConfig& config,
                                 fault::ProtocolMutation mutation,
                                 const ExploreOptions& options) {
  const PartitionModel model(config, mutation);
  Explorer<PartitionModel> explorer(model, options);
  return make_counterexample(model, explorer.run());
}

Counterexample explore_transport(const TransportConfig& config,
                                 fault::ProtocolMutation mutation,
                                 const ExploreOptions& options) {
  const TransportModel model(config, mutation);
  Explorer<TransportModel> explorer(model, options);
  return make_counterexample(model, explorer.run());
}

void note(const std::function<void(const std::string&)>& progress,
          const Counterexample& cex) {
  if (!progress) return;
  progress(cex.model + " [" + cex.config + "] mutation=" + cex.mutation +
           " -> " + verdict_name(cex.kind) + " (" +
           std::to_string(cex.stats.states) + " states)");
}

/// Phase 1 helper: run a clean scope and file anything non-kOk as a
/// sweep failure.
void sweep_clean(SweepOutcome& out,
                 const std::function<void(const std::string&)>& progress,
                 Counterexample cex) {
  note(progress, cex);
  ++out.clean_configs;
  out.states += cex.stats.states;
  if (cex.kind != VerdictKind::kOk) out.failures.push_back(std::move(cex));
}

/// Phase 2 helper: a seeded mutant MUST produce a counterexample; a clean
/// mutant is a blind spot in the invariants and fails the sweep.
void sweep_mutant(SweepOutcome& out,
                  const std::function<void(const std::string&)>& progress,
                  Counterexample cex) {
  note(progress, cex);
  ++out.mutants;
  out.states += cex.stats.states;
  if (cex.kind == VerdictKind::kViolation) {
    out.counterexamples.push_back(std::move(cex));
  } else {
    cex.invariant = "seeded mutation '" + cex.mutation +
                    "' produced no counterexample (verdict " +
                    verdict_name(cex.kind) +
                    "): the invariants have a blind spot";
    out.failures.push_back(std::move(cex));
  }
}

}  // namespace

Counterexample run_verify(const VerifyRequest& request) {
  if (request.model == "membership") {
    return explore_membership(request.membership, request.mutation,
                              request.options);
  }
  if (request.model == "seqlock") {
    return explore_seqlock(request.seqlock, request.mutation,
                           request.options);
  }
  if (request.model == "partition") {
    return explore_partition(request.partition, request.mutation,
                             request.options);
  }
  if (request.model == "transport") {
    return explore_transport(request.transport, request.mutation,
                             request.options);
  }
  throw std::invalid_argument(
      "unknown model '" + request.model +
      "' (expected membership|seqlock|partition|transport)");
}

SweepOutcome run_sweep(
    const ExploreOptions& base,
    const std::function<void(const std::string&)>& progress) {
  using fault::ProtocolMutation;
  SweepOutcome out;

  // ---- phase 1: clean small-scope exhaustion ---------------------------
  for (int p = 2; p <= 5; ++p) {
    for (int crashes = 0; crashes <= 2; ++crashes) {
      if (crashes >= p) continue;  // someone must survive to install
      // Crash alphabets: announced deaths, silent hangs, and both racing.
      struct Alphabet {
        bool announced;
        bool silent;
      };
      const Alphabet alphabets[] = {{true, false}, {false, true}, {true, true}};
      const int n_alphabets = crashes == 0 ? 1 : 3;
      for (int i = 0; i < n_alphabets; ++i) {
        // The combined alphabet's space is a strict superset of each
        // restricted one; at the largest scope run only the superset to
        // keep the sweep inside its CI time budget (no coverage lost).
        if (p == 5 && crashes > 0 && !(alphabets[i].announced &&
                                       alphabets[i].silent)) {
          continue;
        }
        MembershipConfig cfg;
        cfg.p = p;
        cfg.max_crashes = crashes;
        cfg.announced_crashes = alphabets[i].announced;
        cfg.silent_crashes = alphabets[i].silent;
        sweep_clean(out, progress,
                    explore_membership(cfg, ProtocolMutation::kNone, base));
      }
    }
  }
  for (const bool no_fanout : {false, true}) {
    for (int g = 2; g <= 5; ++g) {
      for (int rounds = 1; rounds <= 2; ++rounds) {
        for (int crashes = 0; crashes <= 1; ++crashes) {
          SeqlockConfig cfg;
          cfg.g = g;
          cfg.rounds = rounds;
          cfg.max_crashes = crashes;
          cfg.no_fanout = no_fanout;
          sweep_clean(out, progress,
                      explore_seqlock(cfg, ProtocolMutation::kNone, base));
        }
      }
    }
  }
  {
    // Partitioned concurrent-reduce scopes: flat-partitioned ({4}), the
    // two-level tree ({2,2}), and the ragged two-level tree (population 3
    // of a nominal 4 — the PPN-mismatch last group). Fragment pipelining
    // and a crash racing the fragment gates are swept in every shape.
    struct Shape {
      std::vector<int> levels;
      int population;
    };
    const Shape shapes[] = {{{4}, 4}, {{2, 2}, 4}, {{2, 2}, 3}};
    for (const Shape& shape : shapes) {
      for (int fragments = 1; fragments <= 2; ++fragments) {
        for (int crashes = 0; crashes <= 1; ++crashes) {
          PartitionConfig cfg;
          cfg.levels = shape.levels;
          cfg.population = shape.population;
          cfg.fragments = fragments;
          cfg.max_crashes = crashes;
          sweep_clean(out, progress,
                      explore_partition(cfg, ProtocolMutation::kNone, base));
        }
      }
    }
  }
  {
    // Budget alphabets: each wire fault alone, then all of them combined.
    struct Budgets {
      int drop, dup, delay;
    };
    const Budgets budget_sets[] = {
        {0, 0, 0}, {1, 0, 0}, {0, 1, 0}, {0, 0, 1}, {1, 1, 1}, {2, 1, 2}};
    for (int messages = 1; messages <= 3; ++messages) {
      for (int attempts = 2; attempts <= 3; ++attempts) {
        if (messages == 3 && attempts == 3) {
          // Dropped, not sampled-silently: this corner alone is ~10x the
          // rest of the matrix combined, and every protocol rule it
          // exercises (retransmit racing, dedup, reorder) is already
          // exhausted at messages<=2 x attempts=3 and messages=3 x
          // attempts=2.
          if (progress) {
            progress("transport [messages=3 attempts=3] skipped: covered by "
                     "the adjacent scopes (state budget)");
          }
          continue;
        }
        for (const Budgets& b : budget_sets) {
          TransportConfig cfg;
          cfg.messages = messages;
          cfg.max_attempts = attempts;
          cfg.drop_budget = b.drop;
          cfg.dup_budget = b.dup;
          cfg.delay_budget = b.delay;
          sweep_clean(out, progress,
                      explore_transport(cfg, ProtocolMutation::kNone, base));
        }
      }
    }
  }

  // ---- phase 2: every seeded mutation must be caught -------------------
  {
    MembershipConfig cfg;
    cfg.p = 3;
    cfg.max_crashes = 1;
    sweep_mutant(
        out, progress,
        explore_membership(cfg, ProtocolMutation::kSkipCommitRendezvous,
                           base));
    sweep_mutant(out, progress,
                 explore_membership(cfg, ProtocolMutation::kSkipInstallPurge,
                                    base));
  }
  {
    // The watermark regress needs a second, later revocation racing a
    // zombie's stale revoke call: two crashes, silent hangs included.
    MembershipConfig cfg;
    cfg.p = 4;
    cfg.max_crashes = 2;
    sweep_mutant(
        out, progress,
        explore_membership(cfg, ProtocolMutation::kRegressRevokeWatermark,
                           base));
  }
  {
    SeqlockConfig cfg;
    cfg.g = 3;
    cfg.rounds = 1;
    cfg.max_crashes = 0;
    sweep_mutant(
        out, progress,
        explore_seqlock(cfg, ProtocolMutation::kSeqlockPublishBeforeData,
                        base));
  }
  {
    // The same publish-before-data breach, transplanted onto partitioned
    // done counters: a member releases its fragment counter before the
    // chunk write lands; the first reader through the gate must catch it
    // in both the two-level and the flat-partitioned shape.
    PartitionConfig cfg;
    cfg.levels = {2, 2};
    cfg.population = 4;
    cfg.fragments = 1;
    cfg.max_crashes = 0;
    sweep_mutant(
        out, progress,
        explore_partition(cfg, ProtocolMutation::kSeqlockPublishBeforeData,
                          base));
    cfg.levels = {4};
    cfg.fragments = 2;
    sweep_mutant(
        out, progress,
        explore_partition(cfg, ProtocolMutation::kSeqlockPublishBeforeData,
                          base));
  }
  {
    TransportConfig cfg;
    cfg.messages = 2;
    cfg.max_attempts = 2;
    cfg.drop_budget = 0;
    cfg.dup_budget = 1;
    cfg.delay_budget = 1;
    sweep_mutant(out, progress,
                 explore_transport(cfg, ProtocolMutation::kSkipDupDiscard,
                                   base));
  }

  return out;
}

}  // namespace gencoll::verify
