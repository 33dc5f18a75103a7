// Event-driven engine: rank bodies as tasks over a small worker pool
// (runtime/event_pool.hpp) instead of one OS thread per rank.
//
// Both engines run the same rank bodies (exec_detail::RankBody): the step
// interpreter of core/executor.hpp and the elastic phase machine of
// core/elastic.hpp. The threaded engine calls a body once in blocking mode.
// This engine advances it in resumable mode: a worker runs it until the
// next receive has nothing deliverable, then the task parks with its
// mailbox's readiness hook armed and a deadline timer as backstop. Sends
// never park — the transport is buffered, and the reliable transport's ack
// wait depends only on time (acks are generated synchronously on the
// sender's thread), so it blocks under the pool's managed-blocking
// compensation. ~hardware_concurrency workers therefore execute p in the
// thousands for real: the p=4096 allreduce of the scale-smoke CI leg runs
// in seconds on a laptop.
//
// Everything the threaded engine carries, carries over (DESIGN.md section
// 13): BufferPool/zero-copy (tasks are joined via wait_all before buffers
// die, the same lifetime guarantee World::run gives), segment pipelining,
// obs spans (one task runs on one worker at a time, so the TraceSink sees
// concurrent calls only for distinct ranks — the existing contract), fault
// injection with bit-exact crash op counting, reliable transport, the
// World's per-rank failure policy (runtime::RankFailures), and the
// elastic revoke/agree/shrink path (crash announcements and epoch installs
// interrupt mailboxes, whose hooks re-queue parked tasks like any other
// event). The shm-hierarchy fast path keeps its seqlock protocol and runs
// whole under managed blocking.
//
// Selection: WorldOptions::executor = ExecutorKind::kEvent, or
// GENCOLL_EXECUTOR=event — execute_threaded / execute_threaded_elastic
// dispatch here. The two front ends below pin this engine; they are defined
// beside their threaded counterparts, with which they share input checks
// and output allocation.
#pragma once

#include <cstddef>
#include <vector>

#include "core/elastic.hpp"
#include "core/executor.hpp"
#include "core/schedule.hpp"
#include "runtime/datatype.hpp"
#include "runtime/reduce_op.hpp"
#include "runtime/world.hpp"

namespace gencoll::core {

/// execute_threaded's contract (inputs/outputs/validation/error policy —
/// including the first-thrown-exception rethrow and elastic death
/// swallowing), executed on the event engine. Does not re-dispatch on
/// options.world.executor. Worker count: GENCOLL_EVENT_WORKERS, else
/// hardware_concurrency.
std::vector<std::vector<std::byte>> execute_event(
    const Schedule& sched, const std::vector<std::vector<std::byte>>& inputs,
    runtime::DataType type, runtime::ReduceOp op,
    const ThreadedExecOptions& options = {});

/// execute_threaded_elastic's contract on the event engine: every rank runs
/// the elastic phase machine in resumable mode; its commit / agreement
/// rendezvous run under managed blocking. Outputs indexed by ORIGINAL rank,
/// dead ranks empty; `reports` as in the threaded front end.
std::vector<std::vector<std::byte>> execute_event_elastic(
    const CollParams& params, runtime::DataType type, runtime::ReduceOp op,
    const ElasticOptions& options, const InputProvider& provider,
    const runtime::WorldOptions& world_options,
    std::vector<ElasticReport>* reports = nullptr);

}  // namespace gencoll::core
