// Event-driven executor tests (core/event_exec.hpp, DESIGN.md section 13):
// the event engine must be observably indistinguishable from the threaded
// reference engine — bit-exact outputs across every Table I kernel, the same
// per-step trace spans, the same data-plane tuning fast paths, the same
// typed failures — while selecting via WorldOptions::executor or the
// GENCOLL_EXECUTOR environment variable.
#include "core/event_exec.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "core/elastic.hpp"
#include "core/executor.hpp"
#include "core/hierarchy.hpp"
#include "core/reference.hpp"
#include "core/registry.hpp"
#include "fault/error.hpp"
#include "fault/plan.hpp"
#include "obs/recorder.hpp"
#include "runtime/event_pool.hpp"

namespace gencoll::core {
namespace {

using gencoll::FaultError;
using gencoll::FaultKind;
using runtime::DataType;
using runtime::ExecutorKind;
using runtime::ReduceOp;

constexpr std::uint64_t kSeed = 17;

/// Bit-exact comparison on every defined result segment.
void expect_exact(const CollParams& params,
                  const std::vector<std::vector<std::byte>>& got,
                  const std::vector<std::vector<std::byte>>& want,
                  const std::string& context) {
  for (int r = 0; r < params.p; ++r) {
    const auto& g = got[static_cast<std::size_t>(r)];
    const auto& w = want[static_cast<std::size_t>(r)];
    for (const Seg& seg : result_segments(params, r)) {
      ASSERT_GE(g.size(), seg.off + seg.len) << context << " rank " << r;
      ASSERT_TRUE(std::memcmp(g.data() + seg.off, w.data() + seg.off, seg.len) == 0)
          << context << " rank " << r << " segment at " << seg.off;
    }
  }
}

std::vector<std::vector<std::byte>> run_with(const Schedule& sched,
                                             const std::vector<std::vector<std::byte>>& inputs,
                                             ExecutorKind kind,
                                             ExecTuning tuning = {}) {
  ThreadedExecOptions options;
  options.world.executor = kind;
  options.tuning = tuning;
  return execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum, options);
}

TEST(EventExec, MatchesThreadedAcrossTableOne) {
  constexpr int kP = 8;
  for (const KernelInfo& kernel : kernel_table()) {
    for (CollOp op : kernel.ops) {
      CollParams params;
      params.op = op;
      params.p = kP;
      params.root = 3;
      params.count = 96;
      params.elem_size = runtime::datatype_size(DataType::kInt32);
      for (int k : candidate_radixes(op, kernel.generalized, kP)) {
        params.k = k;
        if (supports_params(kernel.generalized, params)) break;
      }
      ASSERT_TRUE(supports_params(kernel.generalized, params));
      const Schedule sched = build_schedule(kernel.generalized, params);
      const auto inputs = make_inputs(params, DataType::kInt32, kSeed);
      const std::string context = std::string(algorithm_name(kernel.generalized)) +
                                  " " + params.describe();

      const auto threaded = run_with(sched, inputs, ExecutorKind::kThreaded);
      const auto event = run_with(sched, inputs, ExecutorKind::kEvent);
      const auto want =
          reference_outputs(params, inputs, DataType::kInt32, ReduceOp::kSum);
      expect_exact(params, threaded, want, context + " [threaded]");
      expect_exact(params, event, want, context + " [event]");
    }
  }
}

TEST(EventExec, EnvironmentVariableSelectsTheEventEngine) {
  CollParams params;
  params.op = CollOp::kAllreduce;
  params.p = 8;
  params.count = 64;
  params.elem_size = 4;
  params.k = 2;
  const Schedule sched = build_schedule(Algorithm::kRecursiveMultiplying, params);
  const auto inputs = make_inputs(params, DataType::kInt32, kSeed);
  const auto want =
      reference_outputs(params, inputs, DataType::kInt32, ReduceOp::kSum);

  ASSERT_EQ(setenv("GENCOLL_EXECUTOR", "event", 1), 0);
  // No explicit option: the dispatch must read the environment.
  const auto got =
      execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum,
                       ThreadedExecOptions{});
  ASSERT_EQ(unsetenv("GENCOLL_EXECUTOR"), 0);
  expect_exact(params, got, want, "env-selected event engine");
}

TEST(EventExec, ZeroCopyAndPipelinedTuningMatchReference) {
  // Knomial allreduce is prover-clean under zero-copy (see executor_test),
  // and the tiny pipeline threshold forces segmented sends/recvs — both
  // data-plane fast paths must survive the move to parked continuations.
  CollParams params;
  params.op = CollOp::kAllreduce;
  params.p = 8;
  params.count = 256;  // 1 KiB payload
  params.elem_size = 4;
  params.k = 2;
  const Schedule sched = build_schedule(Algorithm::kKnomial, params);
  const auto inputs = make_inputs(params, DataType::kInt32, kSeed);
  const auto want =
      reference_outputs(params, inputs, DataType::kInt32, ReduceOp::kSum);

  ExecTuning tuning;
  tuning.zero_copy = true;
  tuning.pipeline_threshold = 512;
  tuning.pipeline_segment = 128;
  const auto got = run_with(sched, inputs, ExecutorKind::kEvent, tuning);
  expect_exact(params, got, want, "event zero-copy + pipelined");
}

TEST(EventExec, EmitsTheSameTraceSpansAsThreaded) {
  CollParams params;
  params.op = CollOp::kAllreduce;
  params.p = 4;
  params.count = 256;
  params.elem_size = 4;
  params.k = 2;
  const Schedule sched = build_schedule(Algorithm::kRecursiveDoubling, params);
  const auto inputs = make_inputs(params, DataType::kInt32, kSeed);

  ExecTuning tuning;
  tuning.pipeline_threshold = 512;
  tuning.pipeline_segment = 128;

  auto spans_per_rank = [&](ExecutorKind kind) {
    obs::TraceRecorder recorder(params.p);
    ThreadedExecOptions options;
    options.sink = &recorder;
    options.world.executor = kind;
    options.tuning = tuning;
    execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum, options);
    std::vector<std::size_t> counts;
    for (int r = 0; r < params.p; ++r)
      counts.push_back(recorder.spans(r).size());
    return counts;
  };

  // Span structure (one per step, one per pipelined segment) is a property
  // of the schedule + tuning, not of the engine: counts must be identical.
  EXPECT_EQ(spans_per_rank(ExecutorKind::kEvent),
            spans_per_rank(ExecutorKind::kThreaded));
}

TEST(EventExec, ResumesInsideAPipelinedStep) {
  // 64 KiB in 16-byte segments: every step of the recursive-doubling
  // exchange moves 4096 segments, beyond the resumable mode's fairness
  // budget (1024 segments), so event tasks yield and resume part-way
  // through a step.
  CollParams params;
  params.op = CollOp::kAllreduce;
  params.p = 4;
  params.count = 16 * 1024;  // 64 KiB
  params.elem_size = 4;
  params.k = 2;
  const Schedule sched = build_schedule(Algorithm::kRecursiveDoubling, params);
  const auto inputs = make_inputs(params, DataType::kInt32, kSeed);
  const auto want =
      reference_outputs(params, inputs, DataType::kInt32, ReduceOp::kSum);

  ExecTuning tuning;
  tuning.pipeline_threshold = 64;
  tuning.pipeline_segment = 16;

  auto run = [&](ExecutorKind kind, std::vector<std::size_t>& spans) {
    obs::TraceRecorder recorder(params.p);
    ThreadedExecOptions options;
    options.sink = &recorder;
    options.world.executor = kind;
    options.tuning = tuning;
    auto out =
        execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum, options);
    for (int r = 0; r < params.p; ++r) spans.push_back(recorder.spans(r).size());
    return out;
  };

  std::vector<std::size_t> threaded_spans;
  std::vector<std::size_t> event_spans;
  expect_exact(params, run(ExecutorKind::kThreaded, threaded_spans), want,
               "threaded, 4096 segments per step");
  expect_exact(params, run(ExecutorKind::kEvent, event_spans), want,
               "event, 4096 segments per step");
  EXPECT_EQ(event_spans, threaded_spans);
  // At least one step's worth of segments beyond the budget per rank.
  for (const std::size_t n : threaded_spans) EXPECT_GT(n, 4096U);
}

TEST(EventExec, HierarchicalShmFastPathMatchesReference) {
  // Plain transport: the event engine routes the whole composed schedule
  // through the shared-segment fast path under a BlockingGuard.
  CollParams params;
  params.op = CollOp::kAllreduce;
  params.p = 8;
  params.count = 128;
  params.elem_size = 4;
  params.k = 2;
  HierSpec spec;
  spec.group_size = 4;
  spec.inter_alg = Algorithm::kRecursiveMultiplying;
  spec.inter_k = 2;
  const Schedule sched = build_hierarchical_schedule(spec, params);
  ASSERT_TRUE(sched.hier.has_value());

  const auto inputs = make_inputs(params, DataType::kInt32, kSeed);
  const auto want =
      reference_outputs(params, inputs, DataType::kInt32, ReduceOp::kSum);
  const auto got = run_with(sched, inputs, ExecutorKind::kEvent);
  expect_exact(params, got, want, "event hier shm fast path");
}

TEST(EventExec, LostMessagesHitTheParkedReceiveDeadline) {
  CollParams params;
  params.op = CollOp::kAllreduce;
  params.p = 4;
  params.count = 16;
  params.elem_size = 4;
  params.k = 2;
  const Schedule sched = build_schedule(Algorithm::kRecursiveDoubling, params);
  const auto inputs = make_inputs(params, DataType::kInt32, kSeed);

  fault::FaultPlan plan;
  plan.seed = 1;
  plan.drop_prob = 1.0;  // no reliability: every message vanishes

  ThreadedExecOptions options;
  options.world.executor = ExecutorKind::kEvent;
  options.world.fault_plan = &plan;
  options.world.recv_timeout = std::chrono::milliseconds(200);

  const auto start = std::chrono::steady_clock::now();
  try {
    execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum, options);
    FAIL() << "every message dropped, yet the run completed";
  } catch (const FaultError& e) {
    EXPECT_TRUE(e.kind() == FaultKind::kTimeout || e.kind() == FaultKind::kAborted)
        << e.what();
    if (e.kind() == FaultKind::kTimeout) {
      // The deadline fires from the timer heap while the task is parked;
      // the message names the event engine's receive deadline.
      EXPECT_NE(std::string(e.what()).find("event recv deadline"),
                std::string::npos)
          << e.what();
    }
  }
  // A parked timeout must fire near the 200 ms deadline, not hang.
  EXPECT_LT(std::chrono::steady_clock::now() - start, std::chrono::seconds(10));
}

TEST(EventExec, ElasticShrinkReportsMatchThreaded) {
  CollParams params;
  params.op = CollOp::kAllreduce;
  params.p = 8;
  params.count = 64;
  params.elem_size = 4;
  params.k = 2;

  ElasticOptions elastic;
  elastic.alg = Algorithm::kRecursiveMultiplying;
  const InputProvider provider = [](const CollParams& cur, int dense) {
    return make_inputs(cur, DataType::kInt32, kSeed)[static_cast<std::size_t>(dense)];
  };

  auto run = [&](ExecutorKind kind, std::vector<ElasticReport>* reports) {
    fault::FaultPlan plan;  // rank 5 dies at its third operation
    plan.seed = 5;
    plan.crashes.push_back({5, 2});
    runtime::WorldOptions world;
    world.executor = kind;
    world.on_crash = fault::CrashPolicy::kShrink;
    world.fault_plan = &plan;
    world.recv_timeout = std::chrono::milliseconds(5000);
    fault::RecoveryConfig recovery;
    recovery.agree_timeout = std::chrono::milliseconds(2000);
    world.recovery = recovery;
    return execute_threaded_elastic(params, DataType::kInt32, ReduceOp::kSum,
                                    elastic, provider, world, reports);
  };

  std::vector<ElasticReport> threaded_reports;
  std::vector<ElasticReport> event_reports;
  const auto threaded = run(ExecutorKind::kThreaded, &threaded_reports);
  const auto event = run(ExecutorKind::kEvent, &event_reports);

  // The shrink bookkeeping is deterministic for a fixed crash plan, so the
  // engines must agree on the committed epoch AND the survivor results.
  ASSERT_EQ(threaded_reports.size(), event_reports.size());
  for (std::size_t r = 0; r < threaded_reports.size(); ++r) {
    EXPECT_EQ(threaded_reports[r].final_p, event_reports[r].final_p)
        << "rank " << r;
    EXPECT_EQ(threaded_reports[r].shrinks, event_reports[r].shrinks)
        << "rank " << r;
    EXPECT_EQ(threaded_reports[r].survivors, event_reports[r].survivors)
        << "rank " << r;
  }
  ASSERT_EQ(threaded.size(), event.size());
  for (std::size_t r = 0; r < threaded.size(); ++r) {
    EXPECT_EQ(threaded[r], event[r]) << "rank " << r;
  }
}

}  // namespace
}  // namespace gencoll::core
