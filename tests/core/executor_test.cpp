// Executor-level tests: argument validation, direct per-rank execution on a
// long-lived communicator, and workspace semantics.
#include "core/executor.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstring>

#include "core/elastic.hpp"
#include "core/reference.hpp"
#include "core/registry.hpp"
#include "obs/metrics.hpp"
#include "obs/recorder.hpp"
#include "runtime/buffer_pool.hpp"
#include "runtime/world.hpp"

namespace gencoll::core {
namespace {

using runtime::DataType;
using runtime::ReduceOp;

CollParams allreduce_params(int p) {
  CollParams params;
  params.op = CollOp::kAllreduce;
  params.p = p;
  params.count = 16;
  params.elem_size = 4;
  params.k = 2;
  return params;
}

/// The input checks are shared by both engines' front ends; every
/// rejection test below also runs with the engine pinned each way.
constexpr runtime::ExecutorKind kEngines[] = {runtime::ExecutorKind::kThreaded,
                                              runtime::ExecutorKind::kEvent};

ThreadedExecOptions on_engine(runtime::ExecutorKind kind) {
  ThreadedExecOptions options;
  options.world.executor = kind;
  return options;
}

TEST(Executor, RejectsWrongInputCount) {
  const CollParams params = allreduce_params(4);
  const Schedule sched = build_schedule(Algorithm::kRecursiveDoubling, params);
  std::vector<std::vector<std::byte>> too_few(3);
  EXPECT_THROW(execute_threaded(sched, too_few, DataType::kInt32, ReduceOp::kSum),
               std::invalid_argument);
  for (const auto kind : kEngines) {
    EXPECT_THROW(execute_threaded(sched, too_few, DataType::kInt32, ReduceOp::kSum,
                                  on_engine(kind)),
                 std::invalid_argument)
        << "engine " << static_cast<int>(kind);
  }
}

TEST(Executor, RejectsWrongInputSize) {
  const CollParams params = allreduce_params(2);
  const Schedule sched = build_schedule(Algorithm::kRecursiveDoubling, params);
  std::vector<std::vector<std::byte>> inputs(2);
  inputs[0].resize(64);
  inputs[1].resize(63);  // one byte short
  EXPECT_THROW(execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum),
               std::invalid_argument);
  // The elastic front end takes each rank's input from its provider, and
  // those bytes go through the same rank-buffer check.
  ElasticOptions elastic;
  elastic.alg = Algorithm::kRecursiveDoubling;
  const InputProvider short_by_one = [](const CollParams& cur, int dense) {
    return std::vector<std::byte>(input_bytes(cur, dense) - 1);
  };
  for (const auto kind : kEngines) {
    EXPECT_THROW(execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum,
                                  on_engine(kind)),
                 std::invalid_argument)
        << "engine " << static_cast<int>(kind);
    EXPECT_THROW(execute_threaded_elastic(params, DataType::kInt32, ReduceOp::kSum,
                                          elastic, short_by_one,
                                          on_engine(kind).world),
                 std::invalid_argument)
        << "elastic, engine " << static_cast<int>(kind);
  }
}

TEST(Executor, RejectsDatatypeElemSizeMismatch) {
  const CollParams params = allreduce_params(2);
  const Schedule sched = build_schedule(Algorithm::kRecursiveDoubling, params);
  const auto inputs = make_inputs(params, DataType::kInt32, 1);
  // elem_size 4 but datatype int64 (8 bytes): must be rejected up front.
  EXPECT_THROW(execute_threaded(sched, inputs, DataType::kInt64, ReduceOp::kSum),
               std::invalid_argument);
  for (const auto kind : kEngines) {
    EXPECT_THROW(execute_threaded(sched, inputs, DataType::kInt64, ReduceOp::kSum,
                                  on_engine(kind)),
                 std::invalid_argument)
        << "engine " << static_cast<int>(kind);
  }
}

TEST(Executor, RankProgramRunsOnLongLivedCommunicator) {
  // The API path: one communicator, several collectives back to back,
  // including repeated use of the same schedule (tag reuse across calls
  // must not cross-match because each call fully drains its messages).
  const CollParams params = allreduce_params(4);
  const Schedule sched = build_schedule(Algorithm::kRecursiveMultiplying, params);
  const auto inputs = make_inputs(params, DataType::kInt32, 7);
  const auto want = reference_outputs(params, inputs, DataType::kInt32, ReduceOp::kSum);

  runtime::World::run(4, [&](runtime::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    for (int repeat = 0; repeat < 3; ++repeat) {
      std::vector<std::byte> out(output_bytes(params));
      execute_rank_program(sched, comm, inputs[r], out, DataType::kInt32,
                           ReduceOp::kSum);
      ASSERT_EQ(std::memcmp(out.data(), want[r].data(), out.size()), 0)
          << "repeat " << repeat << " rank " << r;
    }
  });
}

TEST(Executor, InterleavedDifferentCollectivesOnOneCommunicator) {
  CollParams ar = allreduce_params(4);
  CollParams bc = ar;
  bc.op = CollOp::kBcast;
  bc.root = 2;
  const Schedule ar_sched = build_schedule(Algorithm::kRecursiveDoubling, ar);
  const Schedule bc_sched = build_schedule(Algorithm::kKnomial, bc);
  const auto ar_in = make_inputs(ar, DataType::kInt32, 3);
  const auto bc_in = make_inputs(bc, DataType::kInt32, 4);
  const auto ar_want = reference_outputs(ar, ar_in, DataType::kInt32, ReduceOp::kSum);
  const auto bc_want = reference_outputs(bc, bc_in, DataType::kInt32, ReduceOp::kSum);

  runtime::World::run(4, [&](runtime::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    std::vector<std::byte> out1(output_bytes(ar));
    execute_rank_program(ar_sched, comm, ar_in[r], out1, DataType::kInt32,
                         ReduceOp::kSum);
    std::vector<std::byte> out2(output_bytes(bc));
    execute_rank_program(bc_sched, comm, bc_in[r], out2, DataType::kInt32,
                         ReduceOp::kSum);
    ASSERT_EQ(std::memcmp(out1.data(), ar_want[r].data(), out1.size()), 0);
    ASSERT_EQ(std::memcmp(out2.data(), bc_want[r].data(), out2.size()), 0);
  });
}

TEST(Executor, OutputBufferTooSmallRejected) {
  const CollParams params = allreduce_params(2);
  const Schedule sched = build_schedule(Algorithm::kRecursiveDoubling, params);
  const auto inputs = make_inputs(params, DataType::kInt32, 1);
  runtime::World::run(2, [&](runtime::Communicator& comm) {
    const auto r = static_cast<std::size_t>(comm.rank());
    std::vector<std::byte> tiny(output_bytes(params) - 1);
    EXPECT_THROW(execute_rank_program(sched, comm, inputs[r], tiny, DataType::kInt32,
                                      ReduceOp::kSum),
                 std::invalid_argument);
  });
}

TEST(Executor, CommunicatorSizeMismatchRejected) {
  const CollParams params = allreduce_params(4);
  const Schedule sched = build_schedule(Algorithm::kRecursiveDoubling, params);
  runtime::World::run(2, [&](runtime::Communicator& comm) {
    std::vector<std::byte> in(64);
    std::vector<std::byte> out(64);
    EXPECT_THROW(
        execute_rank_program(sched, comm, in, out, DataType::kInt32, ReduceOp::kSum),
        std::invalid_argument);
  });
}

TEST(Executor, TruncatedScheduleTimesOutTheReceiver) {
  // A malformed schedule whose send side was dropped: the receiver must not
  // hang forever — the mailbox deadline fires and the error propagates out
  // of World::run as the executor's failure.
  Schedule sched;
  sched.params.op = CollOp::kBcast;
  sched.params.p = 2;
  sched.params.count = 8;
  sched.params.elem_size = 1;
  sched.ranks.resize(2);
  sched.ranks[0].copy_input(0, 0, 8);
  // Rank 0's send(1, ...) is missing; rank 1 still expects it.
  sched.ranks[1].recv(0, 0, 0, 8);

  EXPECT_THROW(
      runtime::World::run(2,
                          [&](runtime::Communicator& comm) {
                            comm.set_recv_timeout(std::chrono::milliseconds(50));
                            std::vector<std::byte> in(8);
                            std::vector<std::byte> out(8);
                            execute_rank_program(sched, comm, in, out,
                                                 DataType::kByte, ReduceOp::kSum);
                          }),
      std::runtime_error);
}

TEST(Executor, ZeroByteStepsEmitWellFormedTraceEvents) {
  // Degenerate zero-byte sends/recvs (barrier-style token exchanges and
  // empty partitions produce these) must still yield coherent span events:
  // non-negative durations, matching instants, and bytes == 0 rather than
  // garbage sizes.
  Schedule sched;
  sched.params.op = CollOp::kBcast;
  sched.params.p = 2;
  sched.params.count = 0;
  sched.params.elem_size = 1;
  sched.ranks.resize(2);
  // The RankProgram builder helpers drop zero-byte steps, so assemble the
  // degenerate steps directly.
  Step copy_step;
  copy_step.kind = StepKind::kCopyInput;
  sched.ranks[0].steps.push_back(copy_step);
  Step send_step;
  send_step.kind = StepKind::kSend;
  send_step.peer = 1;
  send_step.tag = 7;
  sched.ranks[0].steps.push_back(send_step);
  Step recv_step;
  recv_step.kind = StepKind::kRecv;
  recv_step.peer = 0;
  recv_step.tag = 7;
  sched.ranks[1].steps.push_back(recv_step);

  obs::TraceRecorder rec(2);
  runtime::World::run(2, [&](runtime::Communicator& comm) {
    std::vector<std::byte> in;
    std::vector<std::byte> out;
    execute_rank_program(sched, comm, in, out, DataType::kByte, ReduceOp::kSum,
                         &rec);
  });

  ASSERT_EQ(rec.spans(0).size(), 2u);  // copy + send
  ASSERT_EQ(rec.spans(1).size(), 1u);  // recv
  for (int rank = 0; rank < 2; ++rank) {
    for (const obs::SpanEvent& s : rec.spans(rank)) {
      EXPECT_EQ(s.rank, rank);
      EXPECT_EQ(s.bytes, 0u);
      EXPECT_GE(s.end_us, s.begin_us);
      EXPECT_GE(s.step, 0);
    }
  }
  const obs::SpanEvent& send = rec.spans(0)[1];
  EXPECT_EQ(send.kind, obs::SpanKind::kSend);
  EXPECT_EQ(send.peer, 1);
  EXPECT_EQ(send.tag, 7);
  const obs::SpanEvent& recv = rec.spans(1)[0];
  EXPECT_EQ(recv.kind, obs::SpanKind::kRecv);
  EXPECT_EQ(recv.peer, 0);
  // One instant per message endpoint: the post on the sender, the match on
  // the receiver. The copy step must not fabricate an instant.
  ASSERT_EQ(rec.instants(0).size(), 1u);
  ASSERT_EQ(rec.instants(1).size(), 1u);
  EXPECT_EQ(rec.instants(0)[0].kind, obs::InstantKind::kMessagePost);
  EXPECT_EQ(rec.instants(1)[0].kind, obs::InstantKind::kMessageMatch);
}

TEST(Executor, ZeroCountCollectiveIsNoOp) {
  CollParams params = allreduce_params(4);
  params.count = 0;
  const Schedule sched = build_schedule(Algorithm::kRecursiveMultiplying, params);
  const std::vector<std::vector<std::byte>> inputs(4);
  const auto outputs = execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum);
  for (const auto& out : outputs) EXPECT_TRUE(out.empty());
}

// --- Data-plane tuning (ExecTuning): zero-copy sends + segment pipelining ---

/// Output equality against the untuned executor, byte for byte: the fast
/// paths change how bytes move, never which bytes arrive (and the SIMD
/// reduce backend is bit-exact, so int32 sums compare with memcmp).
void expect_tuning_matches_default(const Schedule& sched, const CollParams& params,
                                   const ExecTuning& tuning) {
  const auto inputs = make_inputs(params, DataType::kInt32, 21);
  const auto want =
      reference_outputs(params, inputs, DataType::kInt32, ReduceOp::kSum);
  ThreadedExecOptions options;
  options.tuning = tuning;
  const auto got =
      execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum, options);
  for (int r = 0; r < params.p; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    if (want[idx].empty()) continue;
    ASSERT_EQ(std::memcmp(got[idx].data(), want[idx].data(), want[idx].size()), 0)
        << "rank " << r;
  }
}

TEST(ExecutorTuning, ZeroCopySendsMatchReference) {
  // Knomial allreduce is prover-clean under CheckOptions::zero_copy (see
  // check/hazards_test.cpp); execute_threaded keeps all buffers alive until
  // join, so the view-based sends are safe here.
  CollParams params = allreduce_params(8);
  params.count = 256;
  const Schedule sched = build_schedule(Algorithm::kKnomial, params);
  ExecTuning tuning;
  tuning.zero_copy = true;
  expect_tuning_matches_default(sched, params, tuning);
}

TEST(ExecutorTuning, PipelinedStepsMatchReference) {
  // Tiny threshold/segment so even this modest payload pipelines: every
  // 1024-byte message travels as 128-byte segments on both endpoints.
  CollParams params = allreduce_params(4);
  params.count = 256;  // 1 KiB payload
  for (Algorithm alg : {Algorithm::kRecursiveMultiplying, Algorithm::kKnomial,
                        Algorithm::kKring}) {
    const Schedule sched = build_schedule(alg, params);
    ExecTuning tuning;
    tuning.pipeline_threshold = 512;
    tuning.pipeline_segment = 128;
    expect_tuning_matches_default(sched, params, tuning);
  }
}

TEST(ExecutorTuning, PipeliningEmitsPerSegmentSpans) {
  CollParams params = allreduce_params(4);
  params.count = 256;
  const Schedule sched = build_schedule(Algorithm::kRecursiveDoubling, params);
  const auto inputs = make_inputs(params, DataType::kInt32, 5);

  obs::TraceRecorder recorder(params.p);
  ThreadedExecOptions options;
  options.sink = &recorder;
  options.tuning.pipeline_threshold = 512;
  options.tuning.pipeline_segment = 128;
  execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum, options);

  const auto metrics = obs::collect_metrics(recorder);
  // 1024-byte steps split into 128-byte segments: repeated step indices on
  // each rank's lane, surfaced as the pipelined_segments counter.
  EXPECT_GT(metrics.pipelined_segments, 0u);
  // Segment spans must sum to the full traffic: every payload byte appears
  // exactly once across the (now more numerous) send spans.
  std::size_t send_bytes = 0;
  for (int r = 0; r < params.p; ++r) {
    for (const auto& ev : recorder.spans(r)) {
      if (obs::is_send(ev.kind)) send_bytes += ev.bytes;
    }
  }
  EXPECT_EQ(send_bytes % 1024, 0u);
  EXPECT_GT(send_bytes, 0u);
}

TEST(ExecutorTuning, FastPathsStandDownUnderReliability) {
  // Reliability owns the wire format (envelopes, acks, retransmits), so both
  // zero-copy and pipelining must silently fall back to whole-message copies
  // — with identical results.
  CollParams params = allreduce_params(4);
  params.count = 256;
  const Schedule sched = build_schedule(Algorithm::kRecursiveDoubling, params);
  const auto inputs = make_inputs(params, DataType::kInt32, 9);
  const auto want =
      reference_outputs(params, inputs, DataType::kInt32, ReduceOp::kSum);

  ThreadedExecOptions options;
  options.world.reliability.enabled = true;
  options.tuning.zero_copy = true;
  options.tuning.pipeline_threshold = 512;
  options.tuning.pipeline_segment = 128;
  const auto got =
      execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum, options);
  for (int r = 0; r < params.p; ++r) {
    const auto idx = static_cast<std::size_t>(r);
    ASSERT_EQ(std::memcmp(got[idx].data(), want[idx].data(), want[idx].size()), 0)
        << "rank " << r;
  }
}

TEST(ExecutorTuning, ExternalPoolReachesSteadyStateZeroAllocs) {
  // The bench gate's central claim, as a test: with a warm external pool,
  // repeat executions of the same collective stop allocating.
  CollParams params = allreduce_params(4);
  params.count = 256;
  const Schedule sched = build_schedule(Algorithm::kRecursiveMultiplying, params);
  const auto inputs = make_inputs(params, DataType::kInt32, 13);

  runtime::BufferPool pool;
  ThreadedExecOptions options;
  options.world.pool = &pool;
  // Warm until an execution completes without touching the heap (the pool's
  // peak depth depends on interleaving, so allow several rounds).
  bool quiescent = false;
  for (int i = 0; i < 12 && !quiescent; ++i) {
    const auto before = pool.stats().allocations;
    execute_threaded(sched, inputs, DataType::kInt32, ReduceOp::kSum, options);
    quiescent = pool.stats().allocations == before;
  }
  EXPECT_TRUE(quiescent) << "pool never reached steady state";
  const auto st = pool.stats();
  EXPECT_GT(st.recycles, 0u);
  EXPECT_EQ(st.outstanding, 0u);  // every message buffer came home
}

}  // namespace
}  // namespace gencoll::core
