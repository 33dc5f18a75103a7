#include "tuning/autotune.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>

#include "core/registry.hpp"
#include "netsim/simulator.hpp"

namespace gencoll::tuning {
namespace {

using core::Algorithm;
using core::CollOp;

AutotuneOptions quick_options() {
  AutotuneOptions options;
  options.sizes = {64, 4096, 262144};
  return options;
}

TEST(Autotune, ProducesMergedRulesAndAllWinners) {
  const auto machine = netsim::frontier_like(16, 1);
  const AutotuneReport report = autotune_op(CollOp::kAllreduce, machine, quick_options());
  // One winner per probed size; adjacent same-choice rules merge.
  EXPECT_EQ(report.winners.size(), 3u);
  EXPECT_GE(report.config.rules().size(), 1u);
  EXPECT_LE(report.config.rules().size(), 3u);
  EXPECT_EQ(report.config.machine, "frontier");
}

TEST(Autotune, AdjacentSameWinnersMergeToOneRule) {
  // A single probed size trivially yields one rule; two sizes with the same
  // winner must merge (same machine, adjacent ladder points).
  const auto machine = netsim::frontier_like(16, 1);
  AutotuneOptions options;
  options.sizes = {1u << 20, 2u << 20};  // both large: same winner expected
  const AutotuneReport report = autotune_op(CollOp::kReduce, machine, options);
  ASSERT_EQ(report.winners.size(), 2u);
  if (report.winners[0].algorithm == report.winners[1].algorithm &&
      report.winners[0].k == report.winners[1].k) {
    EXPECT_EQ(report.config.rules().size(), 1u);
    EXPECT_EQ(report.config.rules()[0].min_bytes, 0u);
    EXPECT_EQ(report.config.rules()[0].max_bytes, SIZE_MAX);
  }
}

TEST(Autotune, RulesTileTheSizeAxis) {
  const auto machine = netsim::frontier_like(16, 1);
  const AutotuneReport report = autotune_op(CollOp::kBcast, machine, quick_options());
  const auto& rules = report.config.rules();
  ASSERT_FALSE(rules.empty());
  EXPECT_EQ(rules.front().min_bytes, 0u);
  EXPECT_EQ(rules.back().max_bytes, SIZE_MAX);
  for (std::size_t i = 1; i < rules.size(); ++i) {
    EXPECT_EQ(rules[i].min_bytes, rules[i - 1].max_bytes)
        << "rules must tile without gaps";
  }
  // Every size must resolve to exactly the probed winner.
  for (std::size_t i = 0; i < report.winners.size(); ++i) {
    const auto choice = report.config.lookup(CollOp::kBcast, report.winners[i].nbytes);
    ASSERT_TRUE(choice.has_value());
    EXPECT_EQ(choice->algorithm, report.winners[i].algorithm);
    EXPECT_EQ(choice->k, report.winners[i].k);
  }
}

TEST(Autotune, WinnerIsActuallyFastestAmongMeasured) {
  const auto machine = netsim::frontier_like(16, 1);
  const AutotuneReport report = autotune_op(CollOp::kAllreduce, machine, quick_options());
  for (const MeasuredPoint& winner : report.winners) {
    for (const MeasuredPoint& point : report.all_points) {
      if (point.nbytes == winner.nbytes) {
        EXPECT_LE(winner.latency_us, point.latency_us);
      }
    }
  }
}

TEST(Autotune, GeneralizedAlgorithmsWinSomewhere) {
  // The headline claim: the tuned config actually uses the generalized
  // kernels (otherwise the whole exercise would be pointless).
  const auto machine = netsim::frontier_like(32, 1);
  AutotuneOptions options;
  options.sizes = {64, 1024, 16384, 262144};
  const AutotuneReport report = autotune_all(machine, options);
  bool generalized_won = false;
  for (const MeasuredPoint& winner : report.winners) {
    if (core::is_generalized(winner.algorithm) && winner.k != 2 && winner.k != 1) {
      generalized_won = true;
    }
  }
  EXPECT_TRUE(generalized_won);
}

TEST(Autotune, AllOpsCovered) {
  const auto machine = netsim::frontier_like(8, 1);
  AutotuneOptions options;
  options.sizes = {1024};
  const AutotuneReport report = autotune_all(machine, options);
  for (CollOp op : core::kAllCollOps) {
    EXPECT_TRUE(report.config.lookup(op, 1024).has_value()) << core::coll_op_name(op);
  }
}

TEST(Autotune, PrunedRadixesRespectRequest) {
  const auto machine = netsim::frontier_like(16, 1);
  const auto ks = pruned_radixes(CollOp::kAllreduce, Algorithm::kRecursiveMultiplying,
                                 16, machine, {3, 5});
  EXPECT_EQ(ks, (std::vector<int>{3, 5}));
}

TEST(Autotune, PrunedRadixesDefaultIncludesHardwareHints) {
  const auto machine = netsim::frontier_like(16, 8);  // p = 128
  const auto ks = pruned_radixes(CollOp::kAllgather, Algorithm::kKring, 128, machine, {});
  // ppn (8) must be present — the hardware-suggested k-ring group size.
  EXPECT_NE(std::find(ks.begin(), ks.end(), 8), ks.end());
  for (int k : ks) {
    EXPECT_GE(k, 1);
    EXPECT_LE(k, 128);
  }
}

TEST(Autotune, BaselinesSingletonRadix) {
  const auto machine = netsim::frontier_like(16, 1);
  const auto ks = pruned_radixes(CollOp::kBcast, Algorithm::kRing, 16, machine, {});
  EXPECT_EQ(ks, (std::vector<int>{1}));
}

TEST(Autotune, ConfigRoundTripsThroughFile) {
  const auto machine = netsim::frontier_like(8, 1);
  AutotuneOptions options;
  options.sizes = {64, 65536};
  const AutotuneReport report = autotune_all(machine, options);
  const std::string path = testing::TempDir() + "/gencoll_autotune_test.conf";
  report.config.save_file(path);
  const SelectionConfig loaded = SelectionConfig::load_file(path);
  EXPECT_EQ(loaded.rules().size(), report.config.rules().size());
}


TEST(Autotune, FlatWinnersOverPpnGroupsRoundTripAsHier1) {
  // p = 16 over 4 ranks per node: every composable op also simulates
  // `hier 4`. A flat winner that beat it is pinned (`hier 1`), so the API's
  // co-located default cannot override the measured choice.
  const auto machine = netsim::polaris_like(4, 4);
  AutotuneOptions options;
  options.sizes = {64, 4096, 65536, 1u << 20};
  const AutotuneReport report = autotune_all(machine, options);
  std::size_t pinned = 0;
  for (const MeasuredPoint& winner : report.winners) {
    const bool ppn_measured = std::any_of(
        report.all_points.begin(), report.all_points.end(),
        [&](const MeasuredPoint& point) {
          return point.op == winner.op && point.nbytes == winner.nbytes &&
                 point.group_size == machine.ppn;
        });
    const auto choice = report.config.lookup(winner.op, winner.nbytes);
    ASSERT_TRUE(choice.has_value());
    EXPECT_EQ(choice->flat_pinned, winner.group_size <= 1 && ppn_measured)
        << core::coll_op_name(winner.op) << " " << winner.nbytes << " B";
    if (choice->flat_pinned) ++pinned;
  }
  ASSERT_GT(pinned, 0u) << "no flat winner over a measured hier 4";

  std::stringstream text;
  report.config.save(text);
  EXPECT_NE(text.str().find(" hier 1\n"), std::string::npos) << text.str();
  const SelectionConfig loaded = SelectionConfig::load(text);
  ASSERT_EQ(loaded.rules().size(), report.config.rules().size());
  for (std::size_t i = 0; i < loaded.rules().size(); ++i) {
    EXPECT_EQ(loaded.rules()[i].flat_pinned, report.config.rules()[i].flat_pinned);
    EXPECT_EQ(loaded.rules()[i].group_size, report.config.rules()[i].group_size);
  }
}

TEST(Autotune, NoPinWithoutAMeasuredPpnGroup) {
  // One rank per node: no `hier <ppn>` candidate exists, so nothing pins.
  const AutotuneReport report =
      autotune_all(netsim::frontier_like(8, 1), quick_options());
  for (const SelectionRule& rule : report.config.rules()) {
    EXPECT_FALSE(rule.flat_pinned) << core::coll_op_name(rule.op);
  }
}

}  // namespace
}  // namespace gencoll::tuning
