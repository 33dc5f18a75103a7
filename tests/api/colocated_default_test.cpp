// The co-located default: on a one-node World of the ppn ranks its machine
// line declares (ppn >= 2), a config composes `hier <ppn> shm` for small
// bcast/reduce/allreduce/allgather calls on a plain transport, and leaves
// every other call on its flat schedule.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <mutex>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "api/gencoll.hpp"
#include "core/reference.hpp"
#include "core/registry.hpp"
#include "fault/plan.hpp"

namespace gencoll {
namespace {

constexpr int kRanks = 4;

// gencoll_bench's polaris1x4 selection: one 4-rank node, and rules whose
// kernels (linear, recursive_multiplying) are not all offset-preserving.
constexpr const char* kPolarisRules =
    "rule bcast 0 98305 linear 1\n"
    "rule bcast 98305 inf recursive_multiplying 4\n"
    "rule reduce 0 inf linear 1\n"
    "rule gather 0 inf linear 1\n"
    "rule allgather 0 inf linear 1\n"
    "rule allreduce 0 393217 recursive_multiplying 4\n"
    "rule allreduce 393217 inf rabenseifner 1\n"
    "rule scatter 0 inf linear 1\n";

tuning::SelectionConfig load(const std::string& text) {
  std::istringstream is(text);
  return tuning::SelectionConfig::load(is);
}

tuning::SelectionConfig polaris1x4() {
  return load(std::string("machine polaris nodes 1 ppn 4\n") + kPolarisRules);
}

// Records the name of every schedule built while it lives, on any rank.
class BuildLog {
 public:
  BuildLog() {
    previous_ = core::set_schedule_auditor(
        [this](const core::Schedule& sched, core::Algorithm) {
          std::lock_guard<std::mutex> lock(mu_);
          names_.push_back(sched.name);
        });
  }
  ~BuildLog() { core::set_schedule_auditor(std::move(previous_)); }
  BuildLog(const BuildLog&) = delete;
  BuildLog& operator=(const BuildLog&) = delete;

  [[nodiscard]] std::vector<std::string> names() {
    std::lock_guard<std::mutex> lock(mu_);
    return names_;
  }

 private:
  std::mutex mu_;
  std::vector<std::string> names_;
  core::ScheduleAuditor previous_;
};

struct Case {
  CollOp op = CollOp::kAllreduce;
  std::size_t bytes = 8;
  int root = 0;
  bool in_place = false;  ///< allreduce only
  int ranks = kRanks;
};

std::string describe(const Case& c) {
  return std::string(core::coll_op_name(c.op)) + " " + std::to_string(c.bytes) +
         " B root " + std::to_string(c.root) + (c.in_place ? " in-place" : "") +
         " p=" + std::to_string(c.ranks);
}

struct Outcome {
  std::vector<std::string> built;  ///< every rank's schedule builds
  std::size_t fallbacks = 0;       ///< rank 0's hier_fallbacks()
};

// Runs one call on a fresh c.ranks World and checks every rank's result
// bit-exactly against core::reference_outputs (integer sums, byte copies).
Outcome run_case(const Case& c, const tuning::SelectionConfig& config,
                 const AlgSpec& spec = {},
                 const runtime::WorldOptions& world = {}) {
  const bool reducing = c.op == CollOp::kReduce || c.op == CollOp::kAllreduce;
  const DataType type = reducing ? DataType::kInt32 : DataType::kByte;
  core::CollParams params;
  params.op = c.op;
  params.p = c.ranks;
  params.root = c.root;
  params.elem_size = runtime::datatype_size(type);
  params.count = c.bytes / params.elem_size;
  const auto inputs = core::make_inputs(params, type, 29 + c.bytes);
  const auto expected =
      core::reference_outputs(params, inputs, type, ReduceOp::kSum);

  BuildLog log;
  std::atomic<std::size_t> fallbacks{0};
  run_ranks(
      c.ranks,
      [&](Collectives& coll) {
        const int rank = coll.rank();
        const auto& in = inputs[static_cast<std::size_t>(rank)];
        std::vector<std::byte> out(core::output_bytes(params));
        switch (c.op) {
          case CollOp::kBcast:
            if (rank == c.root) out = in;
            coll.bcast(out, c.root, spec);
            break;
          case CollOp::kReduce:
            coll.reduce(in, out, type, ReduceOp::kSum, c.root, spec);
            break;
          case CollOp::kAllreduce:
            if (c.in_place) {
              out = in;
              coll.allreduce(out, type, ReduceOp::kSum, spec);
            } else {
              coll.allreduce(in, out, type, ReduceOp::kSum, spec);
            }
            break;
          case CollOp::kAllgather:
            coll.allgather(in, out, type, spec);
            break;
          default:
            FAIL() << "not a composable op";
        }
        const auto& want = expected[static_cast<std::size_t>(rank)];
        if (!want.empty()) {
          ASSERT_EQ(out.size(), want.size());
          EXPECT_EQ(std::memcmp(out.data(), want.data(), want.size()), 0)
              << describe(c) << ", rank " << rank;
        }
        if (rank == 0) fallbacks = coll.hier_fallbacks();
      },
      config, world);
  return Outcome{log.names(), fallbacks.load()};
}

// True when something was built and every build was (not) a composition.
// With p = ppn = 4 a composition is one group, so it builds no leader kernel.
bool all_built_as(const Outcome& outcome, bool hierarchical) {
  if (outcome.built.empty()) return false;
  for (const std::string& name : outcome.built) {
    const std::string_view prefix = hierarchical ? "hier_g4+" : "hier_";
    if ((name.rfind(prefix, 0) == 0) != hierarchical) return false;
  }
  return true;
}

std::string built(const Outcome& outcome) {
  std::string out = " built";
  for (const std::string& name : outcome.built) out += " " + name;
  return outcome.built.empty() ? " built nothing" : out;
}

std::vector<Case> cases_at(std::size_t bytes, int ranks = kRanks) {
  return {{CollOp::kBcast, bytes, 0, false, ranks},
          {CollOp::kBcast, bytes, 3, false, ranks},
          {CollOp::kReduce, bytes, 0, false, ranks},
          {CollOp::kReduce, bytes, 3, false, ranks},
          {CollOp::kAllreduce, bytes, 0, false, ranks},
          {CollOp::kAllreduce, bytes, 0, true, ranks},
          {CollOp::kAllgather, bytes, 0, false, ranks}};
}

TEST(ColocatedDefault, SmallCallsComposeAndMatchReference) {
  const tuning::SelectionConfig config = polaris1x4();
  for (std::size_t bytes : {std::size_t{8}, std::size_t{4} << 10,
                            std::size_t{192} << 10}) {
    for (const Case& c : cases_at(bytes)) {
      const Outcome outcome = run_case(c, config);
      EXPECT_TRUE(all_built_as(outcome, true))
          << describe(c) << built(outcome);
      EXPECT_EQ(outcome.fallbacks, 0u) << describe(c);
    }
  }
}

TEST(ColocatedDefault, CallsAtTheZeroCopyGateStayFlat) {
  const tuning::SelectionConfig config = polaris1x4();
  const std::size_t gate = core::ExecTuning{}.pipeline_threshold;
  for (const Case& c : cases_at(gate)) {
    const Outcome outcome = run_case(c, config);
    EXPECT_TRUE(all_built_as(outcome, false))
        << describe(c) << built(outcome);
    EXPECT_EQ(outcome.fallbacks, 0u) << describe(c);
  }
}

TEST(ColocatedDefault, OptOutsStayFlat) {
  // `hier 1` on every rule pins it flat.
  std::string pinned = "machine polaris nodes 1 ppn 4\n";
  std::istringstream rules(kPolarisRules);
  for (std::string line; std::getline(rules, line);) pinned += line + " hier 1\n";
  const tuning::SelectionConfig pinned_config = load(pinned);
  AlgSpec flat;
  flat.group_size = 1;
  for (const Case& c : cases_at(4 << 10)) {
    const Outcome by_rule = run_case(c, pinned_config);
    EXPECT_TRUE(all_built_as(by_rule, false))
        << describe(c) << " under hier 1" << built(by_rule);
    const Outcome by_spec = run_case(c, polaris1x4(), flat);
    EXPECT_TRUE(all_built_as(by_spec, false))
        << describe(c) << " under group_size=1" << built(by_spec);
    EXPECT_EQ(by_rule.fallbacks + by_spec.fallbacks, 0u) << describe(c);
  }
}

TEST(ColocatedDefault, NonPlainTransportsStayFlat) {
  runtime::WorldOptions reliable;
  reliable.reliability.enabled = true;
  const fault::FaultPlan no_faults;  // injection on, nothing fires
  runtime::WorldOptions injected;
  injected.fault_plan = &no_faults;
  for (const Case& c : cases_at(4 << 10)) {
    for (const runtime::WorldOptions* world : {&reliable, &injected}) {
      const Outcome outcome = run_case(c, polaris1x4(), {}, *world);
      EXPECT_TRUE(all_built_as(outcome, false))
          << describe(c) << (world == &reliable ? " reliable" : " injected")
          << built(outcome);
      EXPECT_EQ(outcome.fallbacks, 0u) << describe(c);
    }
  }
}

TEST(ColocatedDefault, NoMachineLineStaysFlat) {
  const tuning::SelectionConfig config = load(kPolarisRules);
  for (const Case& c : cases_at(4 << 10)) {
    const Outcome outcome = run_case(c, config);
    EXPECT_TRUE(all_built_as(outcome, false))
        << describe(c) << built(outcome);
  }
}

TEST(ColocatedDefault, WorldsThatAreNotOneNodeStayFlat) {
  // The default composes one group of ppn ranks only: a two-node World
  // keeps the rules' flat kernels, and so does a World whose size is not
  // the config's ppn. None of these is a request, so none falls back.
  const tuning::SelectionConfig two_nodes =
      load(std::string("machine polaris nodes 2 ppn 4\n") + kPolarisRules);
  for (const Case& c : cases_at(4 << 10, 8)) {
    const Outcome outcome = run_case(c, two_nodes);
    EXPECT_TRUE(all_built_as(outcome, false)) << describe(c) << built(outcome);
    EXPECT_EQ(outcome.fallbacks, 0u) << describe(c);
  }
  for (int ranks : {2, 6}) {
    const Case c{CollOp::kAllreduce, 4 << 10, 0, false, ranks};
    const Outcome outcome = run_case(c, polaris1x4());
    EXPECT_TRUE(all_built_as(outcome, false)) << describe(c) << built(outcome);
    EXPECT_EQ(outcome.fallbacks, 0u) << describe(c);
  }
}

TEST(ColocatedDefault, ExplicitShapeBeatsTheDefault) {
  // A per-call group size wins over ppn: two groups of two, with an
  // offset-preserving leader kernel.
  AlgSpec spec;
  spec.algorithm = Algorithm::kKnomial;
  spec.k = 2;
  spec.group_size = 2;
  const Outcome outcome =
      run_case({CollOp::kAllreduce, 4 << 10, 0}, polaris1x4(), spec);
  // Each rank builds the composition and, inside it, the leader kernel.
  std::size_t composed = 0;
  for (const std::string& name : outcome.built) {
    if (name.rfind("hier_", 0) == 0) {
      EXPECT_EQ(name.rfind("hier_g2+", 0), 0u) << built(outcome);
      ++composed;
    }
  }
  EXPECT_EQ(composed, static_cast<std::size_t>(kRanks)) << built(outcome);
}

TEST(ColocatedDefault, FallbacksAreCounted) {
  // p = 6 is not a multiple of the requested group of 4: every call falls
  // back, once per call, cache hits included. Calls that request no
  // composition do not count.
  run_ranks(
      6,
      [](Collectives& coll) {
        AlgSpec four;
        four.group_size = 4;
        std::vector<std::int32_t> v(4, 1);
        for (int i = 0; i < 3; ++i) {
          coll.allreduce(as_bytes(v), DataType::kInt32, ReduceOp::kSum, four);
        }
        EXPECT_EQ(v[0], 6 * 6 * 6);
        std::vector<std::byte> in(12), out(12);
        coll.scatter(in, out, 0);
        EXPECT_EQ(coll.hier_fallbacks(), 3u);
        EXPECT_EQ(coll.schedules_built(), 2u);
      },
      polaris1x4());

  // A ragged allgather (p does not divide the count) cannot compose.
  const Outcome ragged = run_case({CollOp::kAllgather, 6, 0}, polaris1x4());
  EXPECT_TRUE(all_built_as(ragged, false)) << built(ragged);
  EXPECT_EQ(ragged.fallbacks, 1u);

  // Explicit requests count too: three does not divide four ranks.
  AlgSpec three;
  three.group_size = 3;
  const Outcome explicit_fallback =
      run_case({CollOp::kAllreduce, 64, 0}, tuning::SelectionConfig{}, three);
  EXPECT_TRUE(all_built_as(explicit_fallback, false));
  EXPECT_EQ(explicit_fallback.fallbacks, 1u);
}

}  // namespace
}  // namespace gencoll
