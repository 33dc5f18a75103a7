// World: a fixed-size group of ranks executed as threads in this process.
//
// World::run(p, fn) spawns p threads, hands each a Communicator, and joins.
// The first exception thrown by any rank is re-thrown to the caller after all
// threads finish, so tests see rank failures as ordinary test failures.
//
// Fail-fast abort: when any rank's body throws (or a FaultPlan kills it),
// World::run raises the abort poison — every peer blocked in Mailbox::match
// or barrier_wait wakes immediately with FaultError(kAborted) instead of
// stalling until the receive deadline. The first (causal) exception is still
// the one re-thrown.
//
// Elastic shrink (WorldOptions::on_crash = CrashPolicy::kShrink): a rank
// death instead *revokes the current membership epoch* — survivors wake with
// FaultError(kRevoked), agree on the survivor set (runtime/membership.hpp),
// and the recovery driver (core/elastic.hpp) retries the interrupted
// collective over the shrunk, densely renumbered world. World::run swallows
// the dead rank's kRankDeath in this mode so the surviving threads' results
// stand.
//
// WorldOptions wires in the fault subsystem: a deterministic FaultPlan
// interposed on the transport, the reliable-transport configuration, and the
// default receive deadline (overridable via GENCOLL_RECV_TIMEOUT_MS so CI
// chaos runs fail in seconds, not minutes).
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "fault/abort.hpp"
#include "fault/plan.hpp"
#include "fault/recovery.hpp"
#include "runtime/comm.hpp"
#include "runtime/event_pool.hpp"
#include "runtime/mailbox.hpp"
#include "runtime/membership.hpp"

namespace gencoll::runtime {

class ShmTree;

struct WorldOptions {
  /// Deterministic fault injection applied to every message post. Non-owning;
  /// must outlive the World. nullptr = no injection.
  const fault::FaultPlan* fault_plan = nullptr;
  /// Reliable-transport settings (uniform across ranks).
  ReliabilityConfig reliability;
  /// Default blocking-receive deadline for this World's communicators.
  /// Unset: GENCOLL_RECV_TIMEOUT_MS from the environment, else 60 s.
  std::optional<std::chrono::milliseconds> recv_timeout;
  /// Message-buffer pool backing this World's transport. nullptr: the World
  /// owns a private pool (warm within one execution). Supplying an external
  /// pool (non-owning; must outlive the World) keeps buffers warm *across*
  /// executions — the benchmark gate uses this to reach zero steady-state
  /// allocations per operation.
  BufferPool* pool = nullptr;
  /// What a rank death does to this World. kAbort (the historical fail-fast
  /// poison) or kShrink (revoke -> agree -> shrink -> retry over survivors,
  /// DESIGN.md section 11). Unset: GENCOLL_ON_CRASH from the environment,
  /// else kAbort.
  std::optional<fault::CrashPolicy> on_crash;
  /// Shrink-recovery tuning. Unset: GENCOLL_MAX_RECOVERIES /
  /// GENCOLL_AGREE_TIMEOUT_MS from the environment, else the struct defaults.
  std::optional<fault::RecoveryConfig> recovery;
  /// Which engine the executor entry points (core/executor.hpp,
  /// core/elastic.hpp) run schedules on: thread-per-rank (kThreaded, the
  /// reference) or rank state machines over a small worker pool (kEvent,
  /// core/event_exec.hpp — scales to p in the thousands). Unset:
  /// GENCOLL_EXECUTOR from the environment, else kThreaded.
  std::optional<ExecutorKind> executor;
};

class World {
 public:
  explicit World(int size, WorldOptions options = {});
  ~World();  // out of line: shm_trees_ holds incomplete ShmTree here
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  [[nodiscard]] int size() const { return size_; }

  Mailbox& mailbox(int rank);

  /// Sense-reversing barrier across the current epoch's living ranks (all
  /// `size` ranks before any shrink). Throws FaultError(kAborted) once the
  /// World is abort-poisoned and FaultError(kRevoked) when `epoch` has been
  /// revoked for recovery. `epoch` is the caller's membership epoch (0 for
  /// never-shrunk worlds).
  void barrier_wait(int epoch = 0);

  /// Total undelivered messages across all mailboxes (leak check).
  [[nodiscard]] std::size_t pending_messages() const;

  /// Always-on transport counters summed over every mailbox (polled and
  /// parked matches, inline sends); readable while ranks run.
  [[nodiscard]] TransportCounters transport_counters() const;

  /// Poison the World: record (rank, reason) and wake every waiter blocked
  /// in Mailbox::match or barrier_wait. First abort wins; idempotent.
  void abort(int rank, const std::string& reason);
  [[nodiscard]] bool aborted() const { return abort_.raised(); }
  [[nodiscard]] std::string abort_reason() const { return abort_.reason(); }

  [[nodiscard]] const WorldOptions& options() const { return options_; }
  [[nodiscard]] std::chrono::milliseconds recv_timeout() const { return recv_timeout_; }

  /// Crash policy this World resolved (option > GENCOLL_ON_CRASH > kAbort).
  [[nodiscard]] fault::CrashPolicy crash_policy() const { return crash_policy_; }

  /// Epoch-versioned membership (survivor sets, agreement, commit
  /// rendezvous). Meaningful under CrashPolicy::kShrink; under kAbort it
  /// stays at epoch 0 / all alive.
  [[nodiscard]] Membership& membership() { return membership_; }
  [[nodiscard]] const Membership& membership() const { return membership_; }

  /// Shrink-mode crash path: mark `rank` dead, revoke the current epoch, and
  /// wake every blocked waiter (mailbox matches, barriers, shm waits) so the
  /// survivors converge on the agreement. Idempotent per rank.
  void announce_death(int rank, const std::string& reason);

  /// Revoke `epoch` without declaring a death (timeout-suspected loss) and
  /// wake every blocked waiter. No-op when `epoch` was already recovered.
  void revoke(int epoch, int rank, const std::string& reason);

  /// Join the survivor agreement for revoked `epoch` and return the newly
  /// installed view (runtime/membership.hpp). On installation the World
  /// purges stale-epoch mailbox traffic and resets its barrier so the new
  /// epoch starts clean. Throws FaultError(kRankDeath) when this rank was
  /// declared dead by its peers.
  EpochView join_recovery(int epoch, int rank);

  /// The transport's buffer pool (external when WorldOptions::pool was set,
  /// otherwise this World's private pool).
  [[nodiscard]] BufferPool& pool() { return *pool_; }

  /// Zero-copy view ledger of original rank `rank` (runtime/mailbox.hpp).
  /// World-owned so a lease in any mailbox stays valid after the sending
  /// rank's Communicator is gone (execute_threaded returns without a fence).
  [[nodiscard]] ViewLedger& view_ledger(int rank);

  /// The shared-segment primitive (runtime/shm_group.hpp ShmTree) for the
  /// group of ranks [base_rank, base_rank + size); `size` may be smaller
  /// than the nominal group size (ragged last group). Created lazily on
  /// first request and kept for the World's lifetime, so generation
  /// counters persist across back-to-back collectives. Thread safe; every
  /// member of a group receives the same object. Groups are keyed per
  /// membership epoch: after a shrink the survivors get fresh segments
  /// (clean generation counters over the dense rank space) while
  /// stale-epoch waiters keep their old, revoked group.
  ShmTree& shm_tree(int base_rank, int size);

  /// Convenience: construct a World of `size` ranks, run `fn(comm)` on a
  /// thread per rank, join, and re-throw the first rank exception (if any).
  /// A throwing rank aborts the World so its peers fail fast (RankFailures).
  static void run(int size, const std::function<void(Communicator&)>& fn);
  static void run(int size, const std::function<void(Communicator&)>& fn,
                  const WorldOptions& options);

 private:
  int size_;
  WorldOptions options_;
  std::chrono::milliseconds recv_timeout_;
  fault::CrashPolicy crash_policy_;
  BufferPool owned_pool_;
  BufferPool* pool_ = &owned_pool_;  ///< points at options_.pool when set
  // Declared before the mailboxes: queued leases credit these on teardown.
  std::unique_ptr<ViewLedger[]> view_ledgers_;
  std::vector<std::unique_ptr<Mailbox>> mailboxes_;
  fault::AbortFlag abort_;

  std::mutex barrier_mu_;
  std::condition_variable barrier_cv_;
  int barrier_arrived_ = 0;
  bool barrier_sense_ = false;

  // Declared after the mailboxes/barrier members: its on_install callback
  // touches both (it only ever runs from rank threads, never mid-construct).
  Membership membership_;

  // Declared after the pool members: segments must release into a live pool.
  // Every co-located collective call locks shm_mu_ from every rank. It
  // starts a cache line so that lock traffic never lands on the line of
  // membership state the shared-memory waits poll, wherever the World sits.
  alignas(64) std::mutex shm_mu_;
  std::map<std::tuple<int, int, int>, std::unique_ptr<ShmTree>> shm_trees_;
};

/// The per-rank failure policy and final result of one run of rank bodies
/// on a World, shared by every engine (World::run's threads, the event
/// executor's tasks).
class RankFailures {
 public:
  explicit RankFailures(World& world) : world_(world) {}

  /// Call from a catch block, with rank `rank`'s exception in flight. Under
  /// CrashPolicy::kShrink a FaultError(kRankDeath) is survivable: the death
  /// is announced and counted. Anything else is recorded (the first one
  /// wins) and abort-poisons the World so peers fail fast.
  void record(int rank);

  /// The run's result once every rank body has returned: rethrow the first
  /// recorded error, or throw FaultError(kRankDeath) when every rank died.
  void rethrow() const;

 private:
  World& world_;
  std::mutex mu_;
  std::exception_ptr first_error_;
  int deaths_ = 0;
};

}  // namespace gencoll::runtime
