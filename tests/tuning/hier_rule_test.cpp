// The `hier <g|LxM...> shm` and `hier 1` rule clauses: save/load
// round-trips, lookup surfacing group_size, and strict rejection of every
// malformed-clause shape (a truncated or misspelled clause silently parsed
// as flat would make a tuned config lie about what it runs), including the
// `mailbox` transport word, whose route the transport picks on its own.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "tuning/selector.hpp"

namespace gencoll::tuning {
namespace {

using core::Algorithm;
using core::CollOp;

TEST(HierRule, SaveLoadRoundTripsHierAndFlatRules) {
  SelectionConfig config;
  config.machine = "frontier";
  config.nodes = 16;
  config.ppn = 8;
  config.add_rule({CollOp::kAllreduce, 0, 65536, Algorithm::kKnomial, 4});
  config.add_rule({CollOp::kAllreduce, 65536, SIZE_MAX,
                   Algorithm::kRecursiveMultiplying, 2, 8});
  config.add_rule({CollOp::kBcast, 0, SIZE_MAX, Algorithm::kKring, 4, 4});

  std::stringstream ss;
  config.save(ss);
  // The hier clause appears only on hierarchical rules.
  const std::string text = ss.str();
  EXPECT_NE(text.find("hier 8 shm"), std::string::npos) << text;
  EXPECT_NE(text.find("hier 4 shm"), std::string::npos) << text;
  EXPECT_EQ(text.find("hier 1"), std::string::npos) << text;

  const SelectionConfig loaded = SelectionConfig::load(ss);
  ASSERT_EQ(loaded.rules().size(), 3u);
  EXPECT_EQ(loaded.rules()[0].group_size, 1);
  EXPECT_EQ(loaded.rules()[1].group_size, 8);
  EXPECT_EQ(loaded.rules()[2].group_size, 4);
  EXPECT_EQ(loaded.rules()[2].algorithm, Algorithm::kKring);

  // Round-tripping again is byte-stable.
  std::stringstream again;
  loaded.save(again);
  EXPECT_EQ(again.str(), text);
}

TEST(HierRule, LookupCarriesGroupSize) {
  SelectionConfig config;
  config.add_rule({CollOp::kAllreduce, 1024, SIZE_MAX,
                   Algorithm::kRecursiveMultiplying, 2, 8});
  const auto hit = config.lookup(CollOp::kAllreduce, 4096);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->algorithm, Algorithm::kRecursiveMultiplying);
  EXPECT_EQ(hit->k, 2);
  EXPECT_EQ(hit->group_size, 8);
  // Below the range: no rule; vendor fallback is always flat.
  EXPECT_FALSE(config.lookup(CollOp::kAllreduce, 512).has_value());
  EXPECT_EQ(config.choose(CollOp::kAllreduce, 64, 512).group_size, 1);
}

TEST(HierRule, LevelVectorShapeRoundTrips) {
  // An 'x'-joined shape selects the multi-level intra tree: the clause
  // renders as "hier 2x4 shm", loads back with both the level vector and
  // its product as group_size, and lookup surfaces the levels so the API
  // layer builds the tree, not the flat fan-in.
  SelectionConfig config;
  config.add_rule({CollOp::kAllreduce, 65536, SIZE_MAX,
                   Algorithm::kRecursiveMultiplying, 2, 8, {2, 4}});
  config.add_rule({CollOp::kBcast, 0, SIZE_MAX, Algorithm::kKnomial, 2, 8});

  std::stringstream ss;
  config.save(ss);
  const std::string text = ss.str();
  EXPECT_NE(text.find("hier 2x4 shm"), std::string::npos) << text;
  // The flat rule keeps the bare-integer shape: the two spellings must not
  // collapse into each other.
  EXPECT_NE(text.find("hier 8 shm"), std::string::npos) << text;

  const SelectionConfig loaded = SelectionConfig::load(ss);
  ASSERT_EQ(loaded.rules().size(), 2u);
  EXPECT_EQ(loaded.rules()[0].levels, (std::vector<int>{2, 4}));
  EXPECT_EQ(loaded.rules()[0].group_size, 8);
  EXPECT_TRUE(loaded.rules()[1].levels.empty());
  EXPECT_EQ(loaded.rules()[1].group_size, 8);

  std::stringstream again;
  loaded.save(again);
  EXPECT_EQ(again.str(), text);

  const auto hit = loaded.lookup(CollOp::kAllreduce, 1 << 20);
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->levels, (std::vector<int>{2, 4}));
  EXPECT_EQ(hit->group_size, 8);
}

// Each malformed clause must fail the load with the offending line number,
// never be swallowed as a flat rule.
void expect_rejected(const std::string& rule_line, const std::string& why) {
  std::stringstream ss;
  ss << "# header comment\n" << rule_line << "\n";
  try {
    SelectionConfig::load(ss);
    FAIL() << "accepted: " << rule_line;
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos)
        << why << ": " << e.what();
  }
}

TEST(HierRule, MalformedClausesAreRejected) {
  const std::string flat = "rule allreduce 0 inf recursive_multiplying 2";
  expect_rejected(flat + " hier", "truncated: no g");
  expect_rejected(flat + " hier 8", "truncated: no intra");
  expect_rejected(flat + " hier 1 shm", "hier 1 takes no intra transport");
  expect_rejected(flat + " hier 0 shm", "g zero");
  expect_rejected(flat + " hier 0", "g zero, no transport");
  expect_rejected(flat + " hier 8 rdma", "unknown intra transport");
  expect_rejected(flat + " hier 8 mailbox", "mailbox route is not configurable");
  expect_rejected(flat + " tier 8 shm", "unknown clause word");
  expect_rejected(flat + " hier 8 shm extra", "trailing token");
  // And the clause does not rescue an otherwise-broken rule.
  expect_rejected("rule allreduce 0 inf no_such_alg 2 hier 8 shm",
                  "unknown algorithm");
}

TEST(HierRule, MalformedLevelShapesAreRejected) {
  const std::string flat = "rule allreduce 0 inf recursive_multiplying 2";
  expect_rejected(flat + " hier 2x shm", "dangling separator");
  expect_rejected(flat + " hier x4 shm", "leading separator");
  expect_rejected(flat + " hier 2xx4 shm", "empty factor");
  expect_rejected(flat + " hier 0x4 shm", "factor below 1");
  expect_rejected(flat + " hier 2xa shm", "non-numeric factor");
  expect_rejected(flat + " hier 1x1 shm", "product below 2");
}

TEST(HierRule, OneEntriesCanonicalizeOnLoad) {
  // "2x1x4" is legal input; the canonical rule drops the 1-tier and keeps
  // the product, so the reloaded config is byte-stable at "2x4".
  std::stringstream ss;
  ss << "rule allreduce 0 inf recursive_multiplying 2 hier 2x1x4 shm\n";
  const SelectionConfig config = SelectionConfig::load(ss);
  ASSERT_EQ(config.rules().size(), 1u);
  EXPECT_EQ(config.rules()[0].levels, (std::vector<int>{2, 4}));
  EXPECT_EQ(config.rules()[0].group_size, 8);
  std::stringstream out;
  config.save(out);
  EXPECT_NE(out.str().find("hier 2x4 shm"), std::string::npos) << out.str();
}

TEST(HierRule, FlatPinRoundTrips) {
  // `hier 1` pins a rule flat: no group, no transport word, and lookup says
  // so, which keeps Collectives' co-located default off for its range.
  std::stringstream ss;
  ss << "machine polaris nodes 1 ppn 4\n"
     << "rule allgather 0 inf linear 1 hier 1\n"
     << "rule allreduce 0 inf recursive_multiplying 4\n";
  const SelectionConfig config = SelectionConfig::load(ss);
  ASSERT_EQ(config.rules().size(), 2u);
  EXPECT_TRUE(config.rules()[0].flat_pinned);
  EXPECT_EQ(config.rules()[0].group_size, 1);
  EXPECT_FALSE(config.rules()[1].flat_pinned);
  const auto hit = config.lookup(CollOp::kAllgather, 64);
  ASSERT_TRUE(hit.has_value());
  EXPECT_TRUE(hit->flat_pinned);
  EXPECT_EQ(hit->group_size, 1);
  EXPECT_FALSE(config.lookup(CollOp::kAllreduce, 64)->flat_pinned);

  std::stringstream out;
  config.save(out);
  const std::string text = out.str();
  EXPECT_NE(text.find("rule allgather 0 inf linear 1 hier 1\n"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("rule allreduce 0 inf recursive_multiplying 4\n"),
            std::string::npos)
      << text;
  std::stringstream again;
  SelectionConfig::load(out).save(again);
  EXPECT_EQ(again.str(), text);
}

TEST(HierRule, WellFormedClauseStillLoadsAfterRejections) {
  std::stringstream ss;
  ss << "rule allgather 0 inf kring 4 hier 2 shm\n";
  const SelectionConfig config = SelectionConfig::load(ss);
  ASSERT_EQ(config.rules().size(), 1u);
  EXPECT_EQ(config.rules()[0].group_size, 2);
  EXPECT_TRUE(config.rules()[0].levels.empty());
}

TEST(HierRule, MailboxTransportFailsWithTheAutomaticRoute) {
  // A `mailbox` transport word must fail loudly, naming its line and where
  // the mailbox route comes from, instead of quietly running something else.
  std::stringstream ss;
  ss << "# gencoll selection config v1\n"
     << "rule allreduce 0 inf knomial 2 hier 2 shm\n"
     << "rule bcast 0 inf knomial 2 hier 2 mailbox\n";
  try {
    SelectionConfig::load(ss);
    FAIL() << "a mailbox hier clause loaded";
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("selection config line 3:"), std::string::npos) << what;
    EXPECT_NE(what.find("reliable or fault-injected Worlds"), std::string::npos)
        << what;
    EXPECT_NE(what.find("hier 2 shm"), std::string::npos) << what;
  }
}

TEST(HierRule, BenchmarkWorkloadConfigsLoadAndRoundTrip) {
  // The rule lines of the benchmark's hier_intra configs
  // (gencoll_bench/workloads/hier4.gencoll.conf and hier2x2.gencoll.conf),
  // inlined: they load to single-group compositions and save back byte for
  // byte.
  const std::string hier4 =
      "# gencoll selection config v1\n"
      "machine polaris nodes 1 ppn 4\n"
      "rule bcast 0 inf knomial 2 hier 4 shm\n"
      "rule reduce 0 inf knomial 2 hier 4 shm\n"
      "rule allreduce 0 inf knomial 2 hier 4 shm\n";
  const std::string hier2x2 =
      "# gencoll selection config v1\n"
      "machine polaris nodes 1 ppn 4\n"
      "rule bcast 0 inf knomial 2 hier 2x2 shm\n"
      "rule reduce 0 inf knomial 2 hier 2x2 shm\n"
      "rule allreduce 0 inf knomial 2 hier 2x2 shm\n";
  const CollOp ops[] = {CollOp::kBcast, CollOp::kReduce, CollOp::kAllreduce};
  for (const auto& [text, levels] : {std::pair{hier4, std::vector<int>{}},
                                     std::pair{hier2x2, std::vector<int>{2, 2}}}) {
    std::stringstream in(text);
    const SelectionConfig config = SelectionConfig::load(in);
    EXPECT_EQ(config.ppn, 4);
    ASSERT_EQ(config.rules().size(), 3u) << text;
    for (std::size_t i = 0; i < 3; ++i) {
      const SelectionRule& rule = config.rules()[i];
      EXPECT_EQ(rule.op, ops[i]);
      EXPECT_EQ(rule.min_bytes, 0u);
      EXPECT_EQ(rule.max_bytes, SIZE_MAX);
      EXPECT_EQ(rule.algorithm, Algorithm::kKnomial);
      EXPECT_EQ(rule.k, 2);
      EXPECT_EQ(rule.group_size, 4);
      EXPECT_EQ(rule.levels, levels);
      EXPECT_FALSE(rule.flat_pinned);
    }
    std::stringstream out;
    config.save(out);
    EXPECT_EQ(out.str(), text);
  }
}

}  // namespace
}  // namespace gencoll::tuning
