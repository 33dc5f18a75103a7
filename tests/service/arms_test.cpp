// Arm-space unit tests: size-class bucketing, arm enumeration, and the
// lossless Arm <-> AlgorithmChoice mapping the api layer rides on.
#include "service/arms.hpp"

#include <gtest/gtest.h>

#include <set>
#include <string>

namespace gencoll::service {
namespace {

TEST(SizeClass, PowerOfTwoBuckets) {
  EXPECT_EQ(size_class(0), 0);
  EXPECT_EQ(size_class(1), 0);
  EXPECT_EQ(size_class(2), 1);
  EXPECT_EQ(size_class(3), 1);
  EXPECT_EQ(size_class(4), 2);
  EXPECT_EQ(size_class(1023), 9);
  EXPECT_EQ(size_class(1024), 10);
  EXPECT_EQ(size_class(1 << 20), 20);
}

TEST(SizeClass, BoundsRoundTrip) {
  for (int cls : {0, 1, 5, 12, 20}) {
    const std::size_t lo = size_class_min_bytes(cls);
    const std::size_t hi = size_class_max_bytes(cls);
    EXPECT_LT(lo, hi) << cls;
    EXPECT_EQ(size_class(lo == 0 ? 1 : lo), cls);
    EXPECT_EQ(size_class(hi - 1), cls);
  }
  EXPECT_EQ(size_class_min_bytes(0), 0u);
}

TEST(Arms, EnumerationIsNonEmptyAndDeduplicated) {
  const auto arms =
      enumerate_arms(core::CollOp::kAllreduce, 8, 1024, 4, ArmSpaceOptions{});
  ASSERT_FALSE(arms.empty());
  // No duplicates under Arm::operator==.
  for (std::size_t i = 0; i < arms.size(); ++i) {
    for (std::size_t j = i + 1; j < arms.size(); ++j) {
      EXPECT_FALSE(arms[i] == arms[j])
          << arms[i].describe() << " duplicated at " << i << "," << j;
    }
  }
  // Hierarchical arms only offer group sizes with >= 2 groups of >= 2 ranks.
  for (const Arm& arm : arms) {
    if (arm.group_size > 1) {
      EXPECT_EQ(8 % arm.group_size, 0) << arm.describe();
      EXPECT_GE(8 / arm.group_size, 2) << arm.describe();
    }
  }
}

TEST(Arms, ChoiceRoundTrip) {
  for (const Arm& arm :
       enumerate_arms(core::CollOp::kBcast, 16, 4096, 1, ArmSpaceOptions{})) {
    const Arm back = arm_of(choice_of(arm));
    EXPECT_TRUE(arm == back) << arm.describe() << " vs " << back.describe();
  }
}

TEST(Arms, KeyOrderingIsStrict) {
  const ArmKey a{core::CollOp::kBcast, 3, 0};
  const ArmKey b{core::CollOp::kBcast, 3, 1};
  const ArmKey c{core::CollOp::kBcast, 4, 0};
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(a < c);
  EXPECT_FALSE(a < a);
  EXPECT_TRUE(a == a);
  EXPECT_FALSE(a == b);
  EXPECT_FALSE(a.describe().empty());
}

}  // namespace
}  // namespace gencoll::service
