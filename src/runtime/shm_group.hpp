// Shared-segment intra-group primitive for hierarchical collectives.
//
// A ShmGroup connects one *group* of the World's ranks — a consecutive block
// [base_rank, base_rank + size) whose first rank is the leader — through a
// cache-line-padded control segment drawn from the World's BufferPool. The
// threads already share an address space, so the intra-group phases of a
// hierarchical collective (core/hierarchy.hpp) move bytes by direct
// memcpy / apply_reduce from the publisher's buffer with *zero mailbox
// traffic*: the segment carries only flags, never payloads.
//
// Protocol (seqlock-style generation counters, all monotonically increasing,
// never reset — safe across back-to-back collectives on the same World):
//
//   fan-in   slot m (owned by member m, m in [1, size)):
//            member m   publish()            ptr/len := data, then
//                                            seq.store(seq+1, release)
//            leader     await_publication()  wait seq >= ack+1 (acquire),
//                                            read through ptr/len
//            leader     release_publication() ack.store(ack+1, release)
//            member m   await_release()      wait ack >= seq (acquire);
//                                            only now may m reuse/republish
//
//   fan-out  slot 0 (owned by the leader) + one padded ack per member:
//            leader     leader_publish()     ptr/len := data, seq+1 release
//            member m   await_leader()       wait seq >= taken_m+1, read
//            member m   release_leader()     fan_ack_m := taken_m+1 release
//            leader     await_leader_releases() wait all fan_ack_m >= seq
//
// The release/acquire pairs on the generation counters order the plain
// ptr/len fields and the published payload bytes, so the whole exchange is
// TSan-clean without locking the data path. Readers that skip the payload
// (e.g. a non-root member of the final Reduce hop) still acknowledge, which
// keeps every counter in lockstep across the group's deterministic
// collective sequence.
//
// Every wait spins briefly, yields, then sleeps in short slices while
// polling the World's abort poison and the receive deadline — a crashed peer
// surfaces as FaultError(kAborted) / FaultError(kTimeout) exactly like a
// mailbox wait, never as a silent stall.
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

/// Spin/yield/sleep thresholds for every shared-segment wait. Tunable via
/// ExecTuning::shm_wait (core/executor.hpp); the defaults reproduce the
/// historical hard-coded behaviour.
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

/// The runtime's one counter wait, shared by ShmGroup, ShmTree and the
/// zero-copy view fence (Communicator::fence_views): spin -> yield -> sleep
/// until `cell` (acquire) >= target, and return the value observed. With a
/// `world`, every probe also polls its abort poison and `epoch`'s
/// revocation, and the wait ends at the World's receive deadline, each as
/// FaultError (kAborted / kRevoked / kTimeout) naming `what`. A null `world`
/// waits unconditionally: only for progress that cannot stall, such as
/// reads already in progress.
std::uint64_t shm_wait_ge(const World* world, int epoch,
                          const std::atomic<std::uint64_t>& cell,
                          std::uint64_t target, int self_rank, const char* what,
                          const ShmWaitTuning& wait = {});

// Pure generation-counter rules of the seqlock protocol. ShmGroup's
// publish/await paths execute these; the seqlock protocol model in
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

class ShmGroup {
 public:
  /// `base_rank` is the group's first world rank (the leader); `size` >= 2
  /// is the group size g. The control segment (size slots + size fan-out
  /// acks, one cache line each) is acquired from `world.pool()`. `epoch` is
  /// the membership epoch the group serves: waits wake with
  /// FaultError(kRevoked) once that epoch is revoked for shrink recovery
  /// (the World hands out a fresh group per epoch).
  ShmGroup(World& world, int base_rank, int size, int epoch = 0);
  ~ShmGroup();
  ShmGroup(const ShmGroup&) = delete;
  ShmGroup& operator=(const ShmGroup&) = delete;

  [[nodiscard]] int size() const { return size_; }
  [[nodiscard]] int base_rank() const { return base_rank_; }
  [[nodiscard]] int epoch() const { return epoch_; }

  // ---- fan-in: member -> leader ----------------------------------------

  /// Member `member` (in [1, size)) publishes `data` for the leader. The
  /// buffer must stay valid and unmodified until await_release() returns.
  void publish(int member, std::span<const std::byte> data);

  /// Leader: block until member's next unconsumed publication; returns a
  /// view of the publisher's buffer (read in place — no copy has happened).
  std::span<const std::byte> await_publication(int member, int self_rank,
                                               const ShmWaitTuning& wait = {});

  /// Leader: done reading member's current publication; the member may
  /// reuse its buffer.
  void release_publication(int member);

  /// Member: block until the leader released this member's latest
  /// publication.
  void await_release(int member, int self_rank,
                     const ShmWaitTuning& wait = {});

  // ---- fan-out: leader -> members --------------------------------------

  /// Leader publishes `data` for every member. The buffer must stay valid
  /// and unmodified until await_leader_releases() returns.
  void leader_publish(std::span<const std::byte> data);

  /// Member: block until the leader's next unconsumed publication; returns
  /// a view of the leader's buffer.
  std::span<const std::byte> await_leader(int member, int self_rank,
                                          const ShmWaitTuning& wait = {});

  /// Member: acknowledge the leader's current publication (consumers that
  /// do not copy the payload still call this to stay in lockstep).
  void release_leader(int member);

  /// Leader: block until every member acknowledged the latest publication;
  /// only then may the leader's buffer change again.
  void await_leader_releases(int self_rank, const ShmWaitTuning& wait = {});

 private:
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> seq{0};  ///< publications by the slot owner
    std::atomic<std::uint64_t> ack{0};  ///< publications released by reader
    const std::byte* ptr = nullptr;     ///< guarded by seq release/acquire
    std::size_t len = 0;                ///< guarded by seq release/acquire
  };
  static_assert(sizeof(std::atomic<std::uint64_t>) == 8);

  [[nodiscard]] Slot& slot(int index) const;
  [[nodiscard]] Slot& fan_ack(int member) const;

  /// Wait until cell (acquire-loaded) >= target; spin -> yield -> sleep,
  /// polling abort poison and the receive deadline. Returns the observed
  /// value; throws FaultError(kAborted/kTimeout) instead of stalling.
  std::uint64_t wait_ge(const std::atomic<std::uint64_t>& cell,
                        std::uint64_t target, int self_rank, const char* what,
                        const ShmWaitTuning& wait) const;

  World& world_;
  int base_rank_;
  int size_;
  int epoch_;
  PoolBuffer segment_;  ///< raw storage for 2 * size_ cache-line Slots
  Slot* slots_ = nullptr;
};

/// Shared-segment control plane for one *multi-level* intra-node group
/// (core/hierarchy.hpp with a non-empty level vector). Unlike ShmGroup —
/// whose slots encode the one-level leader/member roles — ShmTree holds only
/// per-rank counters and published buffer pointers; the tree topology
/// (which ranks lead which levels, chunk ownership, fragment schedule) is
/// orchestrated entirely by the caller. Three planes per rank:
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
///   fo      fan-out: the top leader bumps the shared fo_seq (slot 0's ack
///           cell) once its accumulator holds the result; every descendant
///           copies directly from that single buffer (single-copy across all
///           levels) and bumps its own fo_ack. The leader's buffer is fenced
///           by await_fanout_acks().
///
/// All counters are monotonic and never reset, so back-to-back collectives
/// on the same tree overlap safely.
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
  /// generation (release). Returns the new generation; both buffers must
  /// stay valid until the rank's exit fence for the collective completes.
  std::uint64_t publish_buffers(int rel, std::span<const std::byte> src,
                                std::span<std::byte> acc);

  /// Block until rank `target`'s pub generation reaches `generation` (the
  /// value our own publish_buffers returned — every rank publishes exactly
  /// once per collective), then return its buffer pointers.
  Buffers buffers_of(int target, std::uint64_t generation, int self_rank,
                     const ShmWaitTuning& wait = {});

  // ---- done plane -------------------------------------------------------

  /// Rank `rel`'s own done counter at collective entry (relaxed load — the
  /// group's counters are equal at every collective boundary).
  [[nodiscard]] std::uint64_t done_base(int rel) const;

  /// Bump rank `rel`'s own done counter to `value` (release). Monotonic:
  /// `value` must exceed the current count.
  void bump_done(int rel, std::uint64_t value);

  /// Block until rank `target`'s done counter reaches `value` (acquire).
  void await_done(int target, std::uint64_t value, int self_rank,
                  const ShmWaitTuning& wait = {});

  // ---- fan-out plane ----------------------------------------------------

  /// Top leader: result ready in its published accumulator; bump the shared
  /// fan-out sequence (release). Returns the new sequence value.
  std::uint64_t fanout_publish();

  /// Member `rel`: block until the next unconsumed fan-out publication (one
  /// past this rank's own fo_ack).
  void await_fanout(int rel, int self_rank, const ShmWaitTuning& wait = {});

  /// Member `rel`: acknowledge the current fan-out publication (consumers
  /// that skip the payload still ack to stay in lockstep).
  void ack_fanout(int rel);

  /// Top leader: block until every other rank acknowledged sequence `seq`;
  /// only then may the leader's accumulator change again.
  void await_fanout_acks(std::uint64_t seq, int self_rank,
                         const ShmWaitTuning& wait = {});

 private:
  struct alignas(64) Node {
    std::atomic<std::uint64_t> pub{0};   ///< buffer publications by owner
    std::atomic<std::uint64_t> done{0};  ///< fan-in fragment progress
    std::atomic<std::uint64_t> fo{0};    ///< rank 0: fan-out seq; else ack
    const std::byte* src = nullptr;      ///< guarded by pub release/acquire
    std::size_t src_len = 0;
    std::byte* acc = nullptr;
    std::size_t acc_len = 0;
  };
  static_assert(sizeof(Node) == 64);

  [[nodiscard]] Node& node(int rel) const;
  std::uint64_t wait_ge(const std::atomic<std::uint64_t>& cell,
                        std::uint64_t target, int self_rank, const char* what,
                        const ShmWaitTuning& wait) const;

  World& world_;
  int base_rank_;
  int size_;
  int epoch_;
  PoolBuffer segment_;  ///< raw storage for size_ cache-line Nodes
  Node* nodes_ = nullptr;
};

}  // namespace gencoll::runtime
