#include "core/executor.hpp"

#include <algorithm>
#include <cstring>
#include <stdexcept>
#include <string>

#include "core/hierarchy.hpp"
#include "fault/error.hpp"
#include "runtime/event_pool.hpp"
#include "runtime/world.hpp"

namespace gencoll::core {

namespace {

/// Fairness budget of the resumable mode: segments a task may complete per
/// advance() before yielding the worker. Generous enough that a typical
/// log-p program finishes in one resume; small enough that a p-step ring at
/// large p cannot starve peers.
constexpr int kSegmentBudget = 1024;

obs::SpanKind span_kind_of(StepKind kind) {
  switch (kind) {
    case StepKind::kCopyInput: return obs::SpanKind::kCopyInput;
    case StepKind::kSend: return obs::SpanKind::kSend;
    case StepKind::kSendInput: return obs::SpanKind::kSendInput;
    case StepKind::kRecv: return obs::SpanKind::kRecv;
    case StepKind::kRecvReduce: return obs::SpanKind::kRecvReduce;
  }
  return obs::SpanKind::kSend;
}

/// Segment size for pipelined steps: the configured segment rounded down to
/// an element multiple, 0 when pipelining is off or cannot hold a whole
/// element. Both sides of a matched message derive segmentation from the
/// step's byte count alone, so sender and receiver always agree.
std::size_t pipeline_segment_bytes(const ExecTuning& tuning, std::size_t elem_size) {
  if (tuning.pipeline_threshold == 0 || tuning.pipeline_segment == 0) return 0;
  return tuning.pipeline_segment - tuning.pipeline_segment % elem_size;
}

}  // namespace

namespace exec_detail {

void emit_step(obs::TraceSink& sink, int rank, std::size_t step, const Step& s,
               std::size_t bytes, double begin_us, double end_us,
               int group, obs::LinkClass link) {
  obs::SpanEvent ev;
  ev.kind = span_kind_of(s.kind);
  ev.rank = rank;
  ev.step = static_cast<std::int32_t>(step);
  ev.bytes = bytes;
  ev.begin_us = begin_us;
  ev.end_us = end_us;
  ev.group = group;
  if (s.kind != StepKind::kCopyInput) {
    ev.peer = s.peer;
    ev.tag = s.tag;
    ev.link = link;
  }
  if (obs::is_send(ev.kind)) ev.post_us = end_us;
  sink.span(ev);

  if (s.kind == StepKind::kCopyInput) return;
  obs::InstantEvent inst;
  inst.kind = obs::is_send(ev.kind) ? obs::InstantKind::kMessagePost
                                    : obs::InstantKind::kMessageMatch;
  inst.rank = rank;
  inst.peer = s.peer;
  inst.tag = s.tag;
  inst.bytes = bytes;
  inst.time_us = end_us;
  sink.instant(inst);
}

void check_rank_buffers(const Schedule& sched, const runtime::Communicator& comm,
                        std::span<const std::byte> input,
                        std::span<const std::byte> output, runtime::DataType type) {
  const CollParams& pr = sched.params;
  if (comm.size() != pr.p) {
    throw std::invalid_argument("rank program: communicator size != p");
  }
  if (runtime::datatype_size(type) != pr.elem_size) {
    throw std::invalid_argument("rank program: elem_size != datatype size");
  }
  if (input.size() < input_bytes(pr, comm.rank())) {
    throw std::invalid_argument("rank program: input too small");
  }
  if (output.size() < output_bytes(pr)) {
    throw std::invalid_argument("rank program: output too small");
  }
}

void ScheduleRunner::reset(const Schedule* sched, std::span<const std::byte> input,
                           std::span<std::byte> output, std::size_t begin_step,
                           std::size_t end_step, int rank) {
  sched_ = sched;
  input_ = input;
  output_ = output;
  step_ = begin_step;
  end_ = end_step;
  rank_ = rank;
  done_ = 0;
  seg_polled_ = false;
  deadline_armed_ = false;
  begin_us_ = -1.0;
}

ScheduleRunner::Outcome ScheduleRunner::advance(
    runtime::Communicator& comm, runtime::DataType type, runtime::ReduceOp op,
    obs::TraceSink* sink, const ExecTuning& tuning, bool blocking) {
  const CollParams& pr = sched_->params;
  // The fast paths require the plain in-process transport: reliability and
  // fault injection own the wire bytes (envelopes, retransmits) and number
  // whole messages, so both zero-copy views and segmentation stand down.
  // plain_transport() comes from WorldOptions and is uniform across ranks.
  const bool plain = comm.plain_transport();
  const bool zero_copy = tuning.zero_copy && plain;
  const std::size_t seg_bytes =
      plain ? pipeline_segment_bytes(tuning, pr.elem_size) : 0;
  const auto reduce_fn =
      tuning.scalar_reduce ? runtime::apply_reduce_scalar : runtime::apply_reduce;

  // Hierarchical schedules carry topology: classify each message as intra-
  // or inter-group so obs metrics split traffic by link class.
  const int gsize = sched_->hier ? sched_->hier->group_size : 0;
  const int group = gsize > 1 ? rank_ / gsize : -1;
  const auto link_of = [&](const Step& st) {
    if (gsize <= 1 || st.kind == StepKind::kCopyInput || st.peer < 0) {
      return obs::LinkClass::kUnknown;
    }
    return st.peer / gsize == group ? obs::LinkClass::kIntra
                                    : obs::LinkClass::kInter;
  };

  const auto& steps = sched_->ranks[static_cast<std::size_t>(rank_)].steps;
  int budget = kSegmentBudget;
  while (step_ < end_) {
    const Step& s = steps[step_];
    if (begin_us_ < 0.0) begin_us_ = sink != nullptr ? obs::wallclock_us() : 0.0;

    if (s.kind == StepKind::kCopyInput) {
      // Zero-byte copies happen for degenerate schedules; an empty span's
      // data() may be null, and memcpy's pointer args must be non-null.
      if (s.bytes != 0) {
        std::memcpy(output_.data() + s.off, input_.data() + s.src_off, s.bytes);
      }
      if (sink != nullptr) {
        emit_step(*sink, rank_, step_, s, s.bytes, begin_us_, obs::wallclock_us(),
                  group);
      }
      ++step_;
      begin_us_ = -1.0;
      if (!blocking && --budget <= 0 && step_ < end_) return {Run::kYielded};
      continue;
    }

    // Communication step, possibly pipelined: both endpoints of a matched
    // message split identically because matched steps carry equal byte
    // counts (validated at schedule build) and segmentation depends only on
    // the count. Segments share the step's (peer, tag) channel; the
    // transport's per-channel FIFO keeps them in order.
    const bool pipelined =
        seg_bytes != 0 && s.bytes >= tuning.pipeline_threshold && s.bytes > seg_bytes;
    const std::size_t chunk = pipelined ? seg_bytes : s.bytes;
    for (;;) {
      const std::size_t len = std::min(chunk, s.bytes - done_);
      switch (s.kind) {
        case StepKind::kSend:
          if (zero_copy) {
            comm.send_view(s.peer, s.tag, output_.subspan(s.off + done_, len));
          } else {
            comm.send(s.peer, s.tag, output_.subspan(s.off + done_, len));
          }
          break;
        case StepKind::kSendInput:
          if (zero_copy) {
            comm.send_view(s.peer, s.tag, input_.subspan(s.src_off + done_, len));
          } else {
            comm.send(s.peer, s.tag, input_.subspan(s.src_off + done_, len));
          }
          break;
        case StepKind::kRecv:
        case StepKind::kRecvReduce: {
          // Copy or reduce straight out of the matched message (a pooled
          // buffer or the sender's own memory under zero-copy).
          const auto consume = [&](const runtime::Message& m) {
            if (s.kind == StepKind::kRecv) {
              if (len != 0) {
                std::memcpy(output_.data() + s.off + done_, m.bytes().data(), len);
              }
            } else {
              reduce_fn(op, type, output_.subspan(s.off + done_, len), m.bytes(),
                        len / pr.elem_size);
            }
          };
          if (blocking) {
            consume(comm.recv_msg(s.peer, s.tag, len));
          } else {
            auto r = comm.try_recv_msg(s.peer, s.tag, len, !seg_polled_);
            seg_polled_ = true;
            if (!r.message) {
              const auto now = clock::now();
              if (!deadline_armed_) {
                deadline_armed_ = true;
                deadline_ = now + comm.recv_timeout();
              }
              if (now >= deadline_) {
                throw FaultError(
                    FaultKind::kTimeout, comm.world_rank(), s.peer, s.tag,
                    "event recv deadline expired after " +
                        std::to_string(comm.recv_timeout().count()) +
                        " ms (step " + std::to_string(step_) + ", " +
                        std::to_string(done_) + "/" + std::to_string(s.bytes) +
                        " bytes)");
              }
              return {Run::kParked, std::min(deadline_, r.earliest_future)};
            }
            consume(*r.message);
          }
          break;
        }
        case StepKind::kCopyInput:
          break;  // handled above
      }
      done_ += len;
      seg_polled_ = false;
      deadline_armed_ = false;
      if (sink != nullptr) {
        const double now_us = obs::wallclock_us();
        emit_step(*sink, rank_, step_, s, len, begin_us_, now_us, group,
                  link_of(s));
        begin_us_ = now_us;
      }
      if (done_ >= s.bytes) break;
      if (!blocking && --budget <= 0) return {Run::kYielded};
    }
    ++step_;
    done_ = 0;
    begin_us_ = -1.0;
    if (!blocking && --budget <= 0 && step_ < end_) return {Run::kYielded};
  }
  return {Run::kComplete};
}

bool begin_rank_program(ScheduleRunner& runner, const Schedule& sched,
                        runtime::Communicator& comm,
                        std::span<const std::byte> input,
                        std::span<std::byte> output, runtime::DataType type,
                        runtime::ReduceOp op, obs::TraceSink* sink,
                        const ExecTuning& tuning) {
  if (runs_on_shm_tree(sched, comm)) {
    runtime::BlockingGuard guard;
    execute_hierarchical(sched, comm, input, output, type, op, sink, tuning);
    return true;
  }
  check_rank_buffers(sched, comm, input, output, type);
  // Reliability instants (retransmit / corrupt-detected / abort) land in the
  // same trace as the step spans.
  comm.set_trace_sink(sink);
  runner.reset(&sched, input, output, 0,
               sched.ranks[static_cast<std::size_t>(comm.rank())].steps.size(),
               comm.rank());
  return false;
}

}  // namespace exec_detail

namespace {

using exec_detail::ScheduleRunner;

/// One rank of a fixed schedule (the execute_threaded contract).
class ProgramBody final : public exec_detail::RankBody {
 public:
  ProgramBody(const Schedule& sched, std::span<const std::byte> input,
              std::span<std::byte> output, runtime::DataType type,
              runtime::ReduceOp op, const ThreadedExecOptions& options)
      : sched_(sched), input_(input), output_(output), type_(type), op_(op),
        options_(options) {}

  ScheduleRunner::Outcome advance(runtime::Communicator& comm,
                                  bool blocking) override {
    if (!started_) {
      started_ = true;
      if (exec_detail::begin_rank_program(runner_, sched_, comm, input_, output_,
                                          type_, op_, options_.sink,
                                          options_.tuning)) {
        return {};
      }
    }
    return runner_.advance(comm, type_, op_, options_.sink, options_.tuning,
                           blocking);
  }

 private:
  const Schedule& sched_;
  std::span<const std::byte> input_;
  std::span<std::byte> output_;
  runtime::DataType type_;
  runtime::ReduceOp op_;
  const ThreadedExecOptions& options_;
  ScheduleRunner runner_;
  bool started_ = false;
};

/// execute_threaded on a given engine: one input check, one output
/// allocation, p ProgramBodies.
std::vector<std::vector<std::byte>> run_program(
    runtime::ExecutorKind engine, const Schedule& sched,
    const std::vector<std::vector<std::byte>>& inputs, runtime::DataType type,
    runtime::ReduceOp op, const ThreadedExecOptions& options) {
  const CollParams& pr = sched.params;
  if (inputs.size() != static_cast<std::size_t>(pr.p)) {
    throw std::invalid_argument("execute_threaded: wrong number of inputs");
  }
  for (int r = 0; r < pr.p; ++r) {
    if (inputs[static_cast<std::size_t>(r)].size() != input_bytes(pr, r)) {
      throw std::invalid_argument("execute_threaded: input size mismatch at rank " +
                                  std::to_string(r));
    }
  }

  std::vector<std::vector<std::byte>> outputs(static_cast<std::size_t>(pr.p));
  std::vector<ProgramBody> bodies;
  bodies.reserve(static_cast<std::size_t>(pr.p));
  for (std::size_t r = 0; r < outputs.size(); ++r) {
    outputs[r].resize(output_bytes(pr));
    bodies.emplace_back(sched, inputs[r], outputs[r], type, op, options);
  }
  exec_detail::run_ranks(engine, pr.p, options.world,
                         [&](int r) -> exec_detail::RankBody& {
                           return bodies[static_cast<std::size_t>(r)];
                         });
  return outputs;
}

}  // namespace

void execute_rank_program(const Schedule& sched, runtime::Communicator& comm,
                          std::span<const std::byte> input,
                          std::span<std::byte> output, runtime::DataType type,
                          runtime::ReduceOp op, obs::TraceSink* sink,
                          const ExecTuning& tuning) {
  exec_detail::check_rank_buffers(sched, comm, input, output, type);
  comm.set_trace_sink(sink);
  execute_step_range(sched, comm, input, output, type, op, sink, tuning, 0,
                     sched.ranks[static_cast<std::size_t>(comm.rank())].steps.size());
}

void execute_step_range(const Schedule& sched, runtime::Communicator& comm,
                        std::span<const std::byte> input,
                        std::span<std::byte> output, runtime::DataType type,
                        runtime::ReduceOp op, obs::TraceSink* sink,
                        const ExecTuning& tuning, std::size_t begin_step,
                        std::size_t end_step) {
  // A single-group shared-memory composition has an empty leader phase and
  // calls this once per collective.
  if (begin_step == end_step) return;
  ScheduleRunner runner;
  runner.reset(&sched, input, output, begin_step, end_step, comm.rank());
  runner.advance(comm, type, op, sink, tuning, /*blocking=*/true);
}

std::vector<std::vector<std::byte>> execute_threaded(
    const Schedule& sched, const std::vector<std::vector<std::byte>>& inputs,
    runtime::DataType type, runtime::ReduceOp op, obs::TraceSink* sink) {
  ThreadedExecOptions options;
  options.sink = sink;
  return execute_threaded(sched, inputs, type, op, options);
}

std::vector<std::vector<std::byte>> execute_threaded(
    const Schedule& sched, const std::vector<std::vector<std::byte>>& inputs,
    runtime::DataType type, runtime::ReduceOp op,
    const ThreadedExecOptions& options) {
  // Engine dispatch: explicit option > GENCOLL_EXECUTOR > thread-per-rank.
  return run_program(runtime::resolve_executor(options.world.executor), sched,
                     inputs, type, op, options);
}

}  // namespace gencoll::core
