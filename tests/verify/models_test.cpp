// Protocol-model tests (src/verify/): clean small-scope exhaustion of the
// membership, seqlock, partition, and transport models; POR vs
// full-interleaving
// cross-validation; and the counterexample plumbing (trace replay, FaultPlan
// round-trip, JSON emission).
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <vector>

#include "fault/mutation.hpp"
#include "fault/plan.hpp"
#include "verify/counterexample.hpp"
#include "verify/explorer.hpp"
#include "verify/membership_model.hpp"
#include "verify/partition_model.hpp"
#include "verify/seqlock_model.hpp"
#include "verify/transport_model.hpp"
#include "verify/verify.hpp"

namespace gencoll::verify {
namespace {

using fault::ProtocolMutation;

template <typename Model>
Verdict<Model> explore(const Model& model, bool por = true) {
  ExploreOptions options;
  options.por = por;
  Explorer<Model> explorer(model, options);
  return explorer.run();
}

template <typename Model>
typename Model::State replay(const Model& model,
                             const std::vector<typename Model::Action>& trace) {
  typename Model::State s = model.initial();
  for (const auto& a : trace) s = model.apply(s, a);
  return s;
}

// ---------------------------------------------------------------------------
// Clean exhaustion: every honest small scope must verify kOk (no violation,
// no deadlock, no livelock). The CI sweep runs the full matrix; these keep
// the signal in the unit suite with sub-second scopes.
// ---------------------------------------------------------------------------

TEST(MembershipModelTest, CleanScopesExhaustOk) {
  for (int p = 2; p <= 4; ++p) {
    const int max_c = p == 4 ? 1 : 2;  // p=4 x 2 crashes runs in the sweep
    for (int crashes = 0; crashes <= max_c && crashes < p; ++crashes) {
      MembershipConfig cfg;
      cfg.p = p;
      cfg.max_crashes = crashes;
      const auto verdict = explore(MembershipModel(cfg));
      EXPECT_EQ(verdict.kind, VerdictKind::kOk)
          << "p=" << p << " crashes=" << crashes << ": " << verdict.detail;
      EXPECT_TRUE(verdict.stats.complete);
    }
  }
}

TEST(MembershipModelTest, RestrictedCrashAlphabetsExhaustOk) {
  for (const bool announced : {true, false}) {
    MembershipConfig cfg;
    cfg.p = 3;
    cfg.max_crashes = 1;
    cfg.announced_crashes = announced;
    cfg.silent_crashes = !announced;
    const auto verdict = explore(MembershipModel(cfg));
    EXPECT_EQ(verdict.kind, VerdictKind::kOk)
        << (announced ? "announced" : "silent") << ": " << verdict.detail;
  }
}

TEST(SeqlockModelTest, CleanScopesExhaustOk) {
  // Fan-out rounds, and reduces without a root hop (done-counter fence).
  for (const bool no_fanout : {false, true}) {
    for (int g = 2; g <= 4; ++g) {
      for (int rounds = 1; rounds <= 2; ++rounds) {
        for (int crashes = 0; crashes <= 1; ++crashes) {
          SeqlockConfig cfg;
          cfg.g = g;
          cfg.rounds = rounds;
          cfg.max_crashes = crashes;
          cfg.no_fanout = no_fanout;
          const auto verdict = explore(SeqlockModel(cfg));
          EXPECT_EQ(verdict.kind, VerdictKind::kOk)
              << "g=" << g << " rounds=" << rounds << " crashes=" << crashes
              << " no_fanout=" << no_fanout << ": " << verdict.detail;
        }
      }
    }
  }
}

TEST(PartitionModelTest, CleanScopesExhaustOk) {
  // Flat-partitioned {4}, the two-level tree {2,2}, and the ragged two-level
  // tree (population 3 of a nominal 4), each with fragment pipelining and a
  // crash racing the fragment gates.
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
        const auto verdict = explore(PartitionModel(cfg));
        EXPECT_EQ(verdict.kind, VerdictKind::kOk)
            << "s=" << shape.population << " fragments=" << fragments
            << " crashes=" << crashes << ": " << verdict.detail;
        EXPECT_TRUE(verdict.stats.complete);
      }
    }
  }
}

TEST(PartitionModelTest, RejectsBadScopes) {
  PartitionConfig cfg;
  cfg.levels = {1};  // canonical product < 2
  EXPECT_THROW((void)PartitionModel(cfg), std::invalid_argument);
  cfg.levels = {2, 2};
  cfg.population = 5;  // exceeds the nominal group size
  EXPECT_THROW((void)PartitionModel(cfg), std::invalid_argument);
  cfg.population = 4;
  cfg.fragments = 4;  // beyond the modeled pipeline depth
  EXPECT_THROW((void)PartitionModel(cfg), std::invalid_argument);
}

TEST(TransportModelTest, CleanScopesExhaustOk) {
  for (int messages = 1; messages <= 2; ++messages) {
    TransportConfig cfg;
    cfg.messages = messages;
    cfg.max_attempts = 2;
    const auto verdict = explore(TransportModel(cfg));
    EXPECT_EQ(verdict.kind, VerdictKind::kOk)
        << "messages=" << messages << ": " << verdict.detail;
  }
  TransportConfig deep;
  deep.messages = 2;
  deep.max_attempts = 3;
  deep.drop_budget = 2;
  deep.dup_budget = 1;
  deep.delay_budget = 2;
  const auto verdict = explore(TransportModel(deep));
  EXPECT_EQ(verdict.kind, VerdictKind::kOk) << verdict.detail;
}

// ---------------------------------------------------------------------------
// POR soundness: the ample-set reduction must agree with full interleaving
// on every verdict and only ever shrink the state count.
// ---------------------------------------------------------------------------

TEST(CrossValidation, MembershipPorAgreesWithFullInterleaving) {
  MembershipConfig cfg;
  cfg.p = 3;
  cfg.max_crashes = 1;
  const MembershipModel model(cfg);
  const auto reduced = explore(model, true);
  const auto full = explore(model, false);
  EXPECT_EQ(reduced.kind, VerdictKind::kOk) << reduced.detail;
  EXPECT_EQ(full.kind, VerdictKind::kOk) << full.detail;
  EXPECT_LE(reduced.stats.states, full.stats.states);
  EXPECT_GT(reduced.stats.ample_states, 0u);
}

TEST(CrossValidation, SeqlockPorAgreesWithFullInterleaving) {
  SeqlockConfig cfg;
  cfg.g = 3;
  cfg.rounds = 2;
  cfg.max_crashes = 1;
  const SeqlockModel model(cfg);
  const auto reduced = explore(model, true);
  const auto full = explore(model, false);
  EXPECT_EQ(reduced.kind, VerdictKind::kOk) << reduced.detail;
  EXPECT_EQ(full.kind, VerdictKind::kOk) << full.detail;
  EXPECT_LE(reduced.stats.states, full.stats.states);
}

TEST(CrossValidation, PartitionPorAgreesWithFullInterleaving) {
  PartitionConfig cfg;
  cfg.levels = {2, 2};
  cfg.population = 4;
  cfg.fragments = 2;
  cfg.max_crashes = 1;
  const PartitionModel model(cfg);
  const auto reduced = explore(model, true);
  const auto full = explore(model, false);
  EXPECT_EQ(reduced.kind, VerdictKind::kOk) << reduced.detail;
  EXPECT_EQ(full.kind, VerdictKind::kOk) << full.detail;
  EXPECT_LE(reduced.stats.states, full.stats.states);
}

TEST(CrossValidation, TransportHasNoLocalActionsSoPorIsIdentity) {
  TransportConfig cfg;
  cfg.messages = 2;
  const TransportModel model(cfg);
  const auto reduced = explore(model, true);
  const auto full = explore(model, false);
  EXPECT_EQ(reduced.kind, VerdictKind::kOk) << reduced.detail;
  EXPECT_EQ(full.kind, VerdictKind::kOk) << full.detail;
  // Every transport action touches shared channel state: the ample set is
  // never a singleton, so both modes explore the identical space.
  EXPECT_EQ(reduced.stats.states, full.stats.states);
  EXPECT_EQ(reduced.stats.ample_states, 0u);
}

TEST(CrossValidation, MutantViolationSurvivesDisablingPor) {
  MembershipConfig cfg;
  cfg.p = 3;
  cfg.max_crashes = 1;
  const MembershipModel model(cfg, ProtocolMutation::kSkipCommitRendezvous);
  EXPECT_EQ(explore(model, true).kind, VerdictKind::kViolation);
  EXPECT_EQ(explore(model, false).kind, VerdictKind::kViolation);
}

// ---------------------------------------------------------------------------
// Counterexample plumbing.
// ---------------------------------------------------------------------------

TEST(Counterexamples, MembershipMutantTraceReplaysToTheViolation) {
  MembershipConfig cfg;
  cfg.p = 3;
  cfg.max_crashes = 1;
  const MembershipModel model(cfg, ProtocolMutation::kSkipCommitRendezvous);
  const auto verdict = explore(model);
  ASSERT_EQ(verdict.kind, VerdictKind::kViolation);
  ASSERT_FALSE(verdict.trace.empty());
  const auto bad = replay(model, verdict.trace);
  const auto violated = model.check(bad);
  ASSERT_TRUE(violated.has_value());
  EXPECT_EQ(*violated, verdict.detail);
}

TEST(Counterexamples, SeqlockMutantTraceReplaysToTheViolation) {
  SeqlockConfig cfg;
  cfg.g = 3;
  cfg.rounds = 1;
  cfg.max_crashes = 0;
  const SeqlockModel model(cfg, ProtocolMutation::kSeqlockPublishBeforeData);
  const auto verdict = explore(model);
  ASSERT_EQ(verdict.kind, VerdictKind::kViolation);
  const auto violated = model.check(replay(model, verdict.trace));
  ASSERT_TRUE(violated.has_value());
  EXPECT_EQ(*violated, verdict.detail);
}

TEST(Counterexamples, PartitionMutantTraceReplaysToTheViolation) {
  // A member releasing its fragment counter before the chunk write lands —
  // the partitioned transplant of publish-before-data. The first reader
  // through the stale gate must catch it, in the tree and the flat shape.
  for (const std::vector<int>& levels :
       {std::vector<int>{2, 2}, std::vector<int>{4}}) {
    PartitionConfig cfg;
    cfg.levels = levels;
    cfg.population = 4;
    cfg.fragments = levels.size() == 1 ? 2 : 1;
    cfg.max_crashes = 0;
    const PartitionModel model(cfg,
                               ProtocolMutation::kSeqlockPublishBeforeData);
    const auto verdict = explore(model);
    ASSERT_EQ(verdict.kind, VerdictKind::kViolation);
    const auto violated = model.check(replay(model, verdict.trace));
    ASSERT_TRUE(violated.has_value());
    EXPECT_EQ(*violated, verdict.detail);
  }
}

TEST(Counterexamples, TransportMutantTraceReplaysToTheViolation) {
  TransportConfig cfg;
  cfg.messages = 2;
  cfg.dup_budget = 1;
  const TransportModel model(cfg, ProtocolMutation::kSkipDupDiscard);
  const auto verdict = explore(model);
  ASSERT_EQ(verdict.kind, VerdictKind::kViolation);
  const auto violated = model.check(replay(model, verdict.trace));
  ASSERT_TRUE(violated.has_value());
  EXPECT_EQ(*violated, verdict.detail);
}

TEST(Counterexamples, FaultPlanRoundTripsThroughDescribeAndParse) {
  VerifyRequest request;
  request.model = "membership";
  request.membership.p = 3;
  request.membership.max_crashes = 1;
  request.mutation = ProtocolMutation::kSkipCommitRendezvous;
  const Counterexample cex = run_verify(request);
  ASSERT_EQ(cex.kind, VerdictKind::kViolation);
  EXPECT_FALSE(cex.trace.empty());
  std::string error;
  const auto parsed = fault::FaultPlan::parse(cex.plan.describe(), &error);
  ASSERT_TRUE(parsed.has_value())
      << "spec '" << cex.plan.describe() << "': " << error;
  EXPECT_EQ(parsed->describe(), cex.plan.describe());
}

TEST(Counterexamples, JsonCarriesTheReplayPlanAndTrace) {
  VerifyRequest request;
  request.model = "transport";
  request.transport.messages = 2;
  request.mutation = ProtocolMutation::kSkipDupDiscard;
  const Counterexample cex = run_verify(request);
  ASSERT_EQ(cex.kind, VerdictKind::kViolation);
  const std::string json = cex.to_json();
  EXPECT_NE(json.find("\"model\""), std::string::npos);
  EXPECT_NE(json.find("\"verdict\""), std::string::npos);
  EXPECT_NE(json.find("\"invariant\""), std::string::npos);
  EXPECT_NE(json.find("\"fault_plan\""), std::string::npos);
  EXPECT_NE(json.find("\"trace\""), std::string::npos);
  EXPECT_NE(json.find("transport"), std::string::npos);
}

TEST(RunVerify, UnknownModelThrows) {
  VerifyRequest request;
  request.model = "bogus";
  EXPECT_THROW((void)run_verify(request), std::invalid_argument);
}

TEST(RunVerify, CleanRequestReportsOkWithEmptyTrace) {
  VerifyRequest request;
  request.model = "seqlock";
  request.seqlock.g = 2;
  request.seqlock.rounds = 1;
  request.seqlock.max_crashes = 0;
  const Counterexample cex = run_verify(request);
  EXPECT_EQ(cex.kind, VerdictKind::kOk) << cex.invariant;
  EXPECT_TRUE(cex.trace.empty());
  EXPECT_EQ(cex.mutation, "none");
}

}  // namespace
}  // namespace gencoll::verify
