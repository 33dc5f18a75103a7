// OnlineSelector unit tests against synthetic latency landscapes: prior
// seeding, convergence, shift re-adaptation, round synchronization, rule
// export, and determinism. Every test drives the bandit with a *functional*
// reward (latency as a pure function of the arm), so outcomes are exact for
// a fixed seed.
#include "service/bandit.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <vector>

namespace gencoll::service {
namespace {

constexpr int kRanks = 8;
const ArmKey kKey{core::CollOp::kAllreduce, size_class(1024 * 4), 0};

std::vector<Arm> arm_space(const OnlineSelectorConfig& config) {
  return enumerate_arms(core::CollOp::kAllreduce, kRanks, 1024, 4, config.arms);
}

/// Drive `rounds` decisions where arm `cheap` costs `lo` and all others `hi`.
void drive(OnlineSelector& sel, const Arm& cheap, double lo, double hi,
           int rounds) {
  for (int i = 0; i < rounds; ++i) {
    const Arm arm = sel.choose(kKey, core::CollOp::kAllreduce, 1024, 4,
                               static_cast<double>(i));
    sel.record(kKey, arm, arm == cheap ? lo : hi);
  }
}

TEST(Bandit, PriorSeedsTheFirstExploitChoice) {
  OnlineSelectorConfig config;
  config.seed = 3;
  config.epsilon0 = 0.0;  // no exploration: the first choice IS the exploit
  config.epsilon_floor = 0.0;
  const auto arms = arm_space(config);
  ASSERT_GE(arms.size(), 3u);
  const Arm prior = arms[arms.size() / 2];

  tuning::SelectionRule rule;
  rule.op = core::CollOp::kAllreduce;
  rule.algorithm = prior.algorithm;
  rule.k = prior.k;
  rule.group_size = prior.group_size;
  config.priors.add_rule(rule);

  OnlineSelector sel(config, kRanks);
  const Arm first = sel.choose(kKey, core::CollOp::kAllreduce, 1024, 4, 0.0);
  EXPECT_TRUE(first == prior) << first.describe() << " vs " << prior.describe();
  const auto best = sel.best_arm(kKey);
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(*best == prior);
}

TEST(Bandit, UnseenKeyHasNoBestArm) {
  OnlineSelector sel(OnlineSelectorConfig{}, kRanks);
  EXPECT_FALSE(sel.best_arm(kKey).has_value());
  EXPECT_TRUE(sel.stats(kKey).empty());
  EXPECT_EQ(sel.keys(), 0u);
}

TEST(Bandit, ConvergesToTheCheapestArm) {
  OnlineSelectorConfig config;
  config.seed = 5;
  const auto arms = arm_space(config);
  ASSERT_GE(arms.size(), 3u);
  const Arm cheap = arms[1];

  OnlineSelector sel(config, kRanks);
  drive(sel, cheap, 100.0, 300.0, 600);

  const auto best = sel.best_arm(kKey);
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(*best == cheap) << best->describe();

  // With epsilon at the floor, the vast majority of recent decisions are the
  // cheap arm (deterministic for the fixed seed).
  int hits = 0;
  for (int i = 0; i < 100; ++i) {
    const Arm arm = sel.choose(kKey, core::CollOp::kAllreduce, 1024, 4, 0.0);
    if (arm == cheap) ++hits;
    sel.record(kKey, arm, arm == cheap ? 100.0 : 300.0);
  }
  EXPECT_GE(hits, 80);
  EXPECT_EQ(sel.keys(), 1u);
  EXPECT_EQ(sel.decisions(), 700u);
}

TEST(Bandit, ShiftDetectionReAdaptsToANewRegime) {
  OnlineSelectorConfig config;
  config.seed = 9;
  const auto arms = arm_space(config);
  ASSERT_GE(arms.size(), 3u);
  const Arm first_best = arms[1];
  const Arm second_best = arms[2];

  OnlineSelector sel(config, kRanks);
  drive(sel, first_best, 100.0, 300.0, 500);
  ASSERT_TRUE(sel.best_arm(kKey).has_value());
  ASSERT_TRUE(*sel.best_arm(kKey) == first_best);
  EXPECT_EQ(sel.shifts_detected(), 0u);

  // Regime flip: the incumbent degrades 5x, a different arm becomes cheap.
  // The selector is told nothing — its own fast/slow EWMA must notice.
  for (int i = 0; i < 800; ++i) {
    const Arm arm = sel.choose(kKey, core::CollOp::kAllreduce, 1024, 4, 0.0);
    double latency = 300.0;
    if (arm == first_best) latency = 500.0;
    if (arm == second_best) latency = 80.0;
    sel.record(kKey, arm, latency);
  }
  EXPECT_GE(sel.shifts_detected(), 1u);
  const auto best = sel.best_arm(kKey);
  ASSERT_TRUE(best.has_value());
  EXPECT_TRUE(*best == second_best) << best->describe();
}

TEST(Bandit, ChooseAtSynchronizesAllCallersOfARound) {
  OnlineSelectorConfig config;
  config.seed = 21;
  OnlineSelector sel(config, kRanks);

  for (std::uint64_t round = 0; round < 20; ++round) {
    const Arm first = sel.choose_at(kKey, core::CollOp::kAllreduce, 1024, 4,
                                    round, 0.0);
    // Every other "rank" presenting the same round reads the same arm, and
    // the extra calls are not new decisions.
    const std::uint64_t decisions = sel.decisions();
    for (int r = 1; r < kRanks; ++r) {
      const Arm other = sel.choose_at(kKey, core::CollOp::kAllreduce, 1024, 4,
                                      round, 0.0);
      EXPECT_TRUE(other == first) << "round " << round << " rank " << r;
    }
    EXPECT_EQ(sel.decisions(), decisions);
    for (int r = 0; r < kRanks; ++r) {
      sel.record_at(kKey, round, first, 100.0 + r, kRanks);
    }
  }
  EXPECT_EQ(sel.decisions(), 20u);
}

TEST(Bandit, RecordAtFeedsTheMaxAcrossRanksExactlyOnce) {
  OnlineSelectorConfig config;
  config.seed = 2;
  config.epsilon0 = 0.0;
  config.epsilon_floor = 0.0;
  OnlineSelector sel(config, 4);

  const Arm arm = sel.choose_at(kKey, core::CollOp::kAllreduce, 1024, 4, 0, 0.0);
  auto pulls_total = [&] {
    std::uint64_t total = 0;
    for (const ArmStats& s : sel.stats(kKey)) total += s.pulls;
    return total;
  };
  // Partial reports must not feed the statistics.
  sel.record_at(kKey, 0, arm, 50.0, 4);
  sel.record_at(kKey, 0, arm, 220.0, 4);
  sel.record_at(kKey, 0, arm, 90.0, 4);
  EXPECT_EQ(pulls_total(), 0u);
  // The last participant commits exactly one observation: the slowest rank.
  sel.record_at(kKey, 0, arm, 10.0, 4);
  EXPECT_EQ(pulls_total(), 1u);
  for (const ArmStats& s : sel.stats(kKey)) {
    if (s.pulls > 0) {
      EXPECT_DOUBLE_EQ(s.mean_us, 220.0);
    }
  }
  // A retired round falls back to a direct record instead of dropping the
  // signal (e.g. a straggler after the sweep).
  sel.record_at(kKey, 0, arm, 100.0, 4);
  EXPECT_EQ(pulls_total(), 2u);
}

TEST(Bandit, ExportRulesRoundTripsThroughTheConfigFormat) {
  OnlineSelectorConfig config;
  config.seed = 7;
  const auto arms = arm_space(config);
  ASSERT_GE(arms.size(), 2u);
  const Arm cheap = arms[0];

  OnlineSelector sel(config, kRanks);
  drive(sel, cheap, 120.0, 400.0, 600);

  const tuning::SelectionConfig learned = sel.export_rules();
  ASSERT_FALSE(learned.rules().empty());
  const auto choice = learned.lookup(core::CollOp::kAllreduce, 1024 * 4);
  ASSERT_TRUE(choice.has_value());
  EXPECT_TRUE(arm_of(*choice) == cheap) << arm_of(*choice).describe();

  // The export must survive the selection-file format: a soak's outcome can
  // seed the next service start as priors.
  std::stringstream file;
  learned.save(file);
  const tuning::SelectionConfig loaded = tuning::SelectionConfig::load(file);
  ASSERT_EQ(loaded.rules().size(), learned.rules().size());
  const auto reloaded = loaded.lookup(core::CollOp::kAllreduce, 1024 * 4);
  ASSERT_TRUE(reloaded.has_value());
  EXPECT_TRUE(arm_of(*reloaded) == cheap);
}

TEST(Bandit, DeterministicForAFixedSeed) {
  OnlineSelectorConfig config;
  config.seed = 1234;
  OnlineSelector a(config, kRanks);
  OnlineSelector b(config, kRanks);
  for (int i = 0; i < 300; ++i) {
    const Arm arm_a = a.choose(kKey, core::CollOp::kAllreduce, 1024, 4, 0.0);
    const Arm arm_b = b.choose(kKey, core::CollOp::kAllreduce, 1024, 4, 0.0);
    ASSERT_TRUE(arm_a == arm_b) << "diverged at decision " << i;
    const double latency = 100.0 + 10.0 * (i % 7);
    a.record(kKey, arm_a, latency);
    b.record(kKey, arm_b, latency);
  }
  EXPECT_EQ(a.arm_switches(), b.arm_switches());
  EXPECT_EQ(a.shifts_detected(), b.shifts_detected());
}

TEST(Bandit, TenantsLearnIndependently) {
  OnlineSelectorConfig config;
  config.seed = 11;
  const auto arms = arm_space(config);
  ASSERT_GE(arms.size(), 2u);
  OnlineSelector sel(config, kRanks);

  const ArmKey t0{core::CollOp::kAllreduce, size_class(1024 * 4), 0};
  const ArmKey t1{core::CollOp::kAllreduce, size_class(1024 * 4), 1};
  // Opposite landscapes per tenant: arm 0 cheap for tenant 0, arm 1 cheap
  // for tenant 1.
  for (int i = 0; i < 600; ++i) {
    const Arm a0 = sel.choose(t0, core::CollOp::kAllreduce, 1024, 4, 0.0);
    sel.record(t0, a0, a0 == arms[0] ? 90.0 : 280.0);
    const Arm a1 = sel.choose(t1, core::CollOp::kAllreduce, 1024, 4, 0.0);
    sel.record(t1, a1, a1 == arms[1] ? 90.0 : 280.0);
  }
  EXPECT_EQ(sel.keys(), 2u);
  ASSERT_TRUE(sel.best_arm(t0).has_value());
  ASSERT_TRUE(sel.best_arm(t1).has_value());
  EXPECT_TRUE(*sel.best_arm(t0) == arms[0]);
  EXPECT_TRUE(*sel.best_arm(t1) == arms[1]);
}

TEST(Bandit, RescaleWorldReenumeratesArmsForTheShrunkP) {
  OnlineSelectorConfig config;
  config.seed = 7;
  config.epsilon0 = 0.0;  // deterministic exploit so arm picks are inspectable
  config.epsilon_floor = 0.0;
  OnlineSelector sel(config, kRanks);
  drive(sel, arm_space(config)[0], 90.0, 280.0, 50);
  EXPECT_EQ(sel.keys(), 1u);
  EXPECT_EQ(sel.world_size(), kRanks);

  // A shrink to p' = 7 (prime): hierarchical arms and most radixes vanish.
  sel.rescale_world(7);
  EXPECT_EQ(sel.world_size(), 7);
  EXPECT_EQ(sel.keys(), 0u);  // learned state dropped with the old arm space
  EXPECT_FALSE(sel.best_arm(kKey).has_value());

  // Survivors all report the same shrink: repeated calls are no-ops.
  sel.rescale_world(7);
  const Arm arm = sel.choose(kKey, core::CollOp::kAllreduce, 1024, 4, 0.0);
  const auto shrunk = enumerate_arms(core::CollOp::kAllreduce, 7, 1024, 4,
                                     config.arms);
  EXPECT_NE(std::find(shrunk.begin(), shrunk.end(), arm), shrunk.end())
      << arm.describe() << " is not buildable at p=7";
  for (const Arm& a : shrunk) {
    EXPECT_EQ(a.group_size, 1) << "no group size divides a prime world";
  }
}

}  // namespace
}  // namespace gencoll::service
