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
// Selection: WorldOptions::executor is the one switch. Set it to
// ExecutorKind::kEvent, or leave it unset and set GENCOLL_EXECUTOR=event
// (runtime::resolve_executor). execute_threaded, execute_threaded_elastic
// and every Collectives call dispatch on it; this engine has no front end
// of its own. Its task loop is exec_detail::run_ranks (core/executor.hpp),
// defined in event_exec.cpp.
#pragma once

#include "core/executor.hpp"
