// Shared-segment intra-group primitive for hierarchical collectives.
//
// A ShmTree connects one *group* of the World's ranks — a consecutive block
// [base_rank, base_rank + size) whose first rank is the top leader — through
// a cache-line-padded control segment drawn from the World's BufferPool. The
// threads already share an address space, so the intra-group phases of a
// hierarchical collective (core/hierarchy.hpp) move bytes by direct
// memcpy / apply_reduce from the publishers' buffers with *zero mailbox
// traffic*: the segment carries only counters and buffer pointers, never
// payloads. It is the one intra-node engine: a one-level group (`hier g shm`)
// and every level vector run on it, and only core::execute_hierarchical
// drives it.
//
// Every counter is a seqlock-style generation counter, monotonically
// increasing and never reset, so back-to-back collectives on the same World
// reuse one segment safely. A publisher stores its pointers first and bumps
// the counter last (release); a reader that observed the counter (acquire)
// may dereference them. That release/acquire pairing orders the plain
// pointer fields and the payload bytes, so the whole exchange is TSan-clean
// without locking the data path.
//
// Every wait spins briefly, yields, then sleeps in short slices while
// polling the World's abort poison, the group epoch's revocation and the
// receive deadline — a crashed peer surfaces as FaultError(kAborted /
// kRevoked / kTimeout) exactly like a mailbox wait, never as a silent stall.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <span>
#include <thread>

#include "runtime/buffer_pool.hpp"

namespace gencoll::runtime {

class World;

/// Spin/yield/sleep thresholds of a counter wait. The defaults are the one
/// setting of every shared-segment wait (shm_wait_ge, ShmTree); the mailbox's
/// poll-before-park spins with its own values (Mailbox::match).
struct ShmWaitTuning {
  int spin_iters = 64;     ///< busy-spin probes before yielding
  int yield_iters = 1024;  ///< total probes (spin + yield) before sleeping
  std::chrono::microseconds sleep_slice{50};  ///< park slice between probes
};

/// The spin phase of the runtime's one counter wait, shared by shm_wait_ge
/// and the mailbox's poll-before-park (Mailbox::match): probe `cell`
/// (acquire) until it reaches `target`, busy for the first wait.spin_iters
/// probes and yielding after, for at most wait.yield_iters probes and never
/// past `until` (checked in the yield phase). `poisoned()` runs after every
/// failed probe; it may throw, and a true result ends the spin. Returns the
/// last value observed, so `>= target` tells success.
template <typename Poisoned>
std::uint64_t spin_until_ge(const std::atomic<std::uint64_t>& cell,
                            std::uint64_t target, const ShmWaitTuning& wait,
                            std::chrono::steady_clock::time_point until,
                            Poisoned&& poisoned) {
  std::uint64_t v = cell.load(std::memory_order_acquire);
  for (int probe = 1; v < target && !poisoned() && probe < wait.yield_iters;
       ++probe) {
    if (probe >= wait.spin_iters) {
      if (std::chrono::steady_clock::now() >= until) break;
      std::this_thread::yield();
    }
    v = cell.load(std::memory_order_acquire);
  }
  return v;
}

/// The runtime's one counter wait, shared by ShmTree and the
/// zero-copy view fence (Communicator::fence_views): spin -> yield -> sleep
/// until `cell` (acquire) >= target, and return the value observed. With a
/// `world`, every probe also polls its abort poison and `epoch`'s
/// revocation, and the wait ends at the World's receive deadline, each as
/// FaultError (kAborted / kRevoked / kTimeout) naming `what`. A null `world`
/// waits unconditionally: only for progress that cannot stall, such as
/// reads already in progress.
std::uint64_t shm_wait_ge(const World* world, int epoch,
                          const std::atomic<std::uint64_t>& cell,
                          std::uint64_t target, int self_rank, const char* what);

// Pure generation-counter rules of the seqlock protocol. ShmTree's
// publication and fan-out paths execute these; the seqlock protocol model in
// src/verify/ executes the same functions over its explored states, so the
// publication-order contract cannot drift between the runtime and the
// checker.
namespace seqlock {

/// Generation installed by the next publication of a slot whose counter
/// currently reads `seq` (counters are monotonic and never reset).
constexpr std::uint64_t next_generation(std::uint64_t seq) { return seq + 1; }

/// Generation a consumer that has released `consumed` publications waits
/// for: exactly one more than it has consumed.
constexpr std::uint64_t awaited_generation(std::uint64_t consumed) {
  return consumed + 1;
}

/// Reader-side visibility predicate: may a consumer that has released
/// `consumed` publications proceed when the counter reads `seq`?
constexpr bool publication_visible(std::uint64_t seq, std::uint64_t consumed) {
  return seq >= awaited_generation(consumed);
}

// ---- partitioned concurrent reduction (multi-level trees, ShmTree) ------
//
// Members of one tree level reduce *into* the leader's buffer concurrently,
// each owning a disjoint chunk of the payload; per-fragment done counters
// sequence the pipeline. The partition protocol model in src/verify/
// executes these same functions, so the chunk boundaries and counter
// targets cannot drift between the runtime and the checker.

/// First element of chunk `index` when `total` elements are split across
/// `parts` contiguous, maximally even chunks.
constexpr std::size_t chunk_begin(std::size_t index, std::size_t parts,
                                  std::size_t total) {
  return total * index / parts;
}

/// One-past-the-last element of chunk `index` (== chunk_begin(index + 1)).
constexpr std::size_t chunk_end(std::size_t index, std::size_t parts,
                                std::size_t total) {
  return total * (index + 1) / parts;
}

/// Done-counter value a contributor installs (and a consumer awaits) once
/// fragment `frag` of the current collective is fully reduced; `base` is the
/// group's uniform counter value at collective entry.
constexpr std::uint64_t fragment_target(std::uint64_t base, std::size_t frag) {
  return base + frag + 1;
}

/// Done-counter value every group rank commits on collective exit; `quantum`
/// is the per-op counter budget (uniform across the group, so bases stay
/// aligned across back-to-back collectives).
constexpr std::uint64_t commit_target(std::uint64_t base,
                                      std::uint64_t quantum) {
  return base + quantum;
}

}  // namespace seqlock

/// Shared-segment control plane for one intra-node group. ShmTree holds
/// only per-rank counters and published buffer pointers; the group's shape
/// (one level or a level vector, which ranks lead which levels, chunk
/// ownership, fragment schedule, or the unpartitioned small-payload fold) is
/// orchestrated entirely by the caller (core/hierarchy.cpp). Three planes
/// per rank:
///
///   pub     buffer publication: each rank installs its (input, accumulator)
///           pointers, then bumps pub (release). Peers read the pointers
///           after observing pub >= their own publication generation
///           (acquire) — lockstep, one publication per rank per collective.
///   done    fan-in progress: seqlock::fragment_target / commit_target
///           generations. A member bumps done after reducing its chunk of a
///           fragment into its leader's accumulator; consumers gate each
///           fragment on the done counters of deeper contributors. Uniform
///           per-op quanta keep the group's counters equal at every
///           collective boundary.
///   fo      fan-out: the top leader bumps the shared fo_seq (rank 0's fo
///           cell) once its accumulator holds the result; every descendant
///           copies directly from that single buffer (single-copy across all
///           levels) and bumps its own fo_ack. The leader's buffer is fenced
///           by await_fanout_acks().
///
/// All counters are monotonic and never reset, so back-to-back collectives
/// on the same tree overlap safely.
///
/// A fourth cell, `left`, serves only the error path: a rank that throws
/// between its publication and its exit fences calls retract() before its
/// buffers may go away (see there).

class ShmTree {
 public:
  /// `base_rank` is the group's first world rank; `size` in [1, group_size]
  /// is the group's actual population s (ragged last group allowed).
  ShmTree(World& world, int base_rank, int size, int epoch = 0);
  ~ShmTree();
  ShmTree(const ShmTree&) = delete;
  ShmTree& operator=(const ShmTree&) = delete;

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] int base_rank() const { return base_rank_; }
  [[nodiscard]] int epoch() const { return epoch_; }

  /// Published buffers of one rank: src is the rank's read-only input
  /// contribution, acc its output/accumulator workspace.
  struct Buffers {
    const std::byte* src = nullptr;
    std::size_t src_len = 0;
    std::byte* acc = nullptr;
    std::size_t acc_len = 0;
  };

  // ---- pub plane --------------------------------------------------------

  /// Rank `rel` installs its buffers for this collective and bumps its pub
  /// generation (sequentially consistent, for retract()). Returns the new
  /// generation; both buffers must stay valid until the rank's exit fence
  /// for the collective completes, or its retract() returns.
  std::uint64_t publish_buffers(int rel, std::span<const std::byte> src,
                                std::span<std::byte> acc);

  /// Block until rank `target`'s pub generation reaches `generation` (the
  /// value our own publish_buffers returned — every rank publishes exactly
  /// once per collective), then return its buffer pointers. Throws
  /// FaultError(kAborted) instead when `target` has retracted them.
  Buffers buffers_of(int target, std::uint64_t generation, int self_rank);

  /// Error path of rank `rel` in collective `generation`, after its
  /// publication: mark the rank as gone, so a peer that has not yet taken
  /// its buffers throws instead of taking them, then wait until every peer
  /// that has published for this collective is done with it — its done
  /// counter reached `exit_done` (a normal exit), or it retracted too. Only
  /// then may the caller release the published buffers. Those peers finish
  /// or throw on their own poisoned, deadlined waits, so this wait takes no
  /// deadline of its own.
  void retract(int rel, std::uint64_t generation, std::uint64_t exit_done) noexcept;

  // ---- done plane -------------------------------------------------------

  /// Rank `rel`'s own done counter at collective entry (relaxed load — the
  /// group's counters are equal at every collective boundary).
  [[nodiscard]] std::uint64_t done_base(int rel) const;

  /// Bump rank `rel`'s own done counter to `value` (release). Monotonic:
  /// `value` must exceed the current count.
  void bump_done(int rel, std::uint64_t value);

  /// Block until rank `target`'s done counter reaches `value` (acquire).
  void await_done(int target, std::uint64_t value, int self_rank);

  // ---- fan-out plane ----------------------------------------------------

  /// Top leader: result ready in its published accumulator; bump the shared
  /// fan-out sequence (release). Returns the new sequence value.
  std::uint64_t fanout_publish();

  /// Member `rel`: block until the next unconsumed fan-out publication (one
  /// past this rank's own fo_ack), then return the top leader's buffers.
  /// The leader publishes its buffers before its fan-out, so observing the
  /// fan-out (acquire) already orders its pointers. Throws
  /// FaultError(kAborted) instead when the leader has retracted them.
  Buffers await_fanout(int rel, int self_rank);

  /// Member `rel`: acknowledge the current fan-out publication (consumers
  /// that skip the payload still ack to stay in lockstep).
  void ack_fanout(int rel);

  /// Top leader: block until every other rank acknowledged sequence `seq`;
  /// only then may the leader's accumulator change again.
  void await_fanout_acks(std::uint64_t seq, int self_rank);

 private:
  struct alignas(64) Node {
    std::atomic<std::uint64_t> pub{0};   ///< buffer publications by owner
    std::atomic<std::uint64_t> done{0};  ///< fan-in fragment progress
    std::atomic<std::uint64_t> fo{0};    ///< rank 0: fan-out seq; else ack
    std::atomic<std::uint64_t> left{0};  ///< generation retracted by owner
    const std::byte* src = nullptr;      ///< guarded by pub release/acquire
    std::size_t src_len = 0;
    std::byte* acc = nullptr;
    std::size_t acc_len = 0;
  };
  static_assert(sizeof(Node) == 64);

  [[nodiscard]] Node& node(int rel) const;
  void check_not_retracted(const Node& owner, std::uint64_t generation,
                           int self_rank) const;
  std::uint64_t wait_ge(const std::atomic<std::uint64_t>& cell,
                        std::uint64_t target, int self_rank, const char* what) const;

  World& world_;
  int base_rank_;
  int size_;
  int epoch_;
  PoolBuffer segment_;  ///< raw storage for size_ cache-line Nodes
  Node* nodes_ = nullptr;
};

}  // namespace gencoll::runtime
