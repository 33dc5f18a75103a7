// Tag-matched mailbox: the delivery endpoint of one rank.
//
// Sends are buffered, so a send never blocks — this mirrors MPI's eager
// protocol and guarantees that schedule execution cannot deadlock on send
// ordering. A queued Message carries its payload in one of three forms:
// inline (a copying send of at most Message::kInlineBytes keeps the bytes in
// the message itself — no pool lock, no allocation), pooled (a larger
// copying send, or a fault envelope, owns a BufferPool or heap buffer), or a
// view (a zero-copy window into the sender's buffer, leased until the
// receiver drops it).
//
// Receives block until a message with matching (source, tag) arrives, with
// a deadline so broken schedules fail tests instead of hanging. The wait
// polls, then parks: when a match finds nothing, a mailbox whose World has a
// hardware thread per rank first spins on a post counter for up to
// Mailbox::kPollBudget (about the cost of the futex wake-up it saves), and
// only then sleeps on the condition variable. post() bumps the counter after
// releasing the lock, so a poller that sees the bump rescans without
// blocking on the poster's mutex.
//
// Fault integration (src/fault/):
//   * A message may carry a deliver_at timestamp (injected delivery delay);
//     match() ignores it until that instant passes. Among *available*
//     matches delivery stays FIFO in post order (MPI non-overtaking); a
//     delayed message can be overtaken — the reliable transport's sequence
//     numbers restore ordering above this layer.
//   * When the owning World's AbortFlag is raised, every blocked match()
//     wakes immediately and throws FaultError(kAborted) — the fail-fast
//     path that replaces waiting out the full receive deadline after a peer
//     rank has died.
//   * Timeouts throw gencoll::FaultError (kind kTimeout), a subclass of the
//     std::runtime_error this class threw historically.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <new>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "fault/abort.hpp"
#include "fault/recovery.hpp"
#include "runtime/buffer_pool.hpp"

namespace gencoll::runtime {

/// Readiness hook for the event executor: a mailbox with a waiter attached
/// calls on_mailbox_event() after every post() and interrupt(), outside the
/// mailbox lock. The event engine points this at the owning rank's parked
/// task so a deposit (or an abort/revoke poison) re-queues it instead of
/// being discovered only at the next deadline poll.
class MailboxWaiter {
 public:
  virtual void on_mailbox_event() = 0;

 protected:
  ~MailboxWaiter() = default;
};

/// Zero-copy bookkeeping of one rank (the World keeps one per rank, so a
/// lease can never outlive the counter it credits). Both counts only ever
/// grow, like the shm generation counters: the rank's views are all
/// consumed exactly when released >= posted.
struct alignas(64) ViewLedger {
  std::uint64_t posted = 0;  ///< views the rank posted (owner thread only)
  std::atomic<std::uint64_t> released{0};  ///< views whose match was dropped
};

/// Move-only handle a zero-copy message carries: when the message dies —
/// after the receiver's memcpy/reduce, or when it is retracted or purged
/// unmatched — the lease credits one release to the sender's ledger
/// (release order, pairing with the sender's acquire in its fence).
class ViewLease {
 public:
  ViewLease() = default;
  explicit ViewLease(ViewLedger* ledger) : ledger_(ledger) {}
  ViewLease(ViewLease&& other) noexcept
      : ledger_(std::exchange(other.ledger_, nullptr)) {}
  ViewLease& operator=(ViewLease&& other) noexcept {
    if (this != &other) {
      reset();
      ledger_ = std::exchange(other.ledger_, nullptr);
    }
    return *this;
  }
  ViewLease(const ViewLease&) = delete;
  ViewLease& operator=(const ViewLease&) = delete;
  ~ViewLease() { reset(); }

  [[nodiscard]] const ViewLedger* ledger() const { return ledger_; }

 private:
  void reset() noexcept {
    if (ledger_ != nullptr) {
      ledger_->released.fetch_add(1, std::memory_order_release);
      ledger_ = nullptr;
    }
  }
  ViewLedger* ledger_ = nullptr;
};

/// One in-flight message. Its payload takes one of three forms, kept in a
/// union so a message stays small in the mailbox deque:
///   * pooled (the default): owned bytes in `payload` — pool-recycled storage
///     on the hot path, adopted heap vectors on the fault-envelope paths;
///   * inline: a copying send of at most kInlineBytes keeps its bytes inside
///     the message itself, touching neither the pool nor the heap;
///   * view: a zero-copy window into the sender's registered buffer, valid
///     only under the executor's zero-copy contract (the sender provably does
///     not touch the range until the matched receive completes —
///     src/check/hazards.cpp classifies which schedules qualify), with a
///     lease that tells the sender's fence when the view dies.
/// `payload` may be used directly only on a pooled message; bytes() reads
/// every form.
struct Message {
  /// Largest payload a copying send stores inline: all the union can hold
  /// while sizeof(Message) stays 88 B (see the static_assert below).
  static constexpr std::size_t kInlineBytes = 56;
  enum class Form : std::uint8_t { kPooled, kInline, kView };

  Message() : payload() {}
  Message(Message&& other) noexcept
      : source(other.source),
        tag(other.tag),
        epoch(other.epoch),
        lease(std::move(other.lease)),
        deliver_at(other.deliver_at) {
    adopt_payload(other);
  }
  Message& operator=(Message&& other) noexcept {
    if (this != &other) {
      source = other.source;
      tag = other.tag;
      epoch = other.epoch;
      lease = std::move(other.lease);
      deliver_at = other.deliver_at;
      destroy_payload();
      adopt_payload(other);
    }
    return *this;
  }
  Message(const Message&) = delete;
  Message& operator=(const Message&) = delete;
  ~Message() { destroy_payload(); }

  int source = -1;
  int tag = 0;
  /// Membership epoch the message was posted under (runtime/membership.hpp).
  /// Epoch-aware matches discard messages from older epochs — the "drain
  /// in-flight stale traffic" half of the shrink protocol. 0 = the initial
  /// epoch, which every pre-shrink (and every kAbort-mode) message carries.
  int epoch = 0;

 private:
  Form form_ = Form::kPooled;
  std::uint8_t inline_size_ = 0;

 public:
  union {
    PoolBuffer payload;  ///< Form::kPooled
    std::span<const std::byte> view;  ///< Form::kView
    std::byte inline_bytes_[kInlineBytes];  ///< Form::kInline
  };
  /// Set on zero-copy messages: tells the sender's fence when the view dies.
  ViewLease lease;
  /// Earliest instant match() may hand the message out; the epoch default
  /// means "immediately". Set by fault-injected delivery delays.
  std::chrono::steady_clock::time_point deliver_at{};

  /// Store `data` (at most kInlineBytes) inside the message.
  void set_inline(std::span<const std::byte> data) {
    destroy_payload();
    form_ = Form::kInline;
    inline_size_ = static_cast<std::uint8_t>(data.size());
    if (!data.empty()) std::memcpy(inline_bytes_, data.data(), data.size());
  }
  /// Point the message at the sender's bytes (zero-copy), leased to `ledger`.
  void set_view(std::span<const std::byte> data, ViewLedger* ledger) {
    destroy_payload();
    form_ = Form::kView;
    new (&view) std::span<const std::byte>(data);
    lease = ViewLease(ledger);
  }

  [[nodiscard]] Form form() const { return form_; }
  [[nodiscard]] bool zero_copy() const { return form_ == Form::kView; }

  /// The payload bytes regardless of form.
  [[nodiscard]] std::span<const std::byte> bytes() const {
    if (form_ == Form::kInline) return {inline_bytes_, inline_size_};
    if (form_ == Form::kView) return view;
    return payload.span();
  }
  [[nodiscard]] std::size_t size() const { return bytes().size(); }
  /// Writable owned bytes (pooled or inline; a view is read-only).
  [[nodiscard]] std::span<std::byte> owned_bytes() {
    if (form_ == Form::kInline) return {inline_bytes_, inline_size_};
    return form_ == Form::kPooled ? payload.span() : std::span<std::byte>{};
  }
  /// The payload as a plain vector: a pooled buffer is detached without a
  /// copy, the other forms are copied out.
  [[nodiscard]] std::vector<std::byte> take_bytes() && {
    if (form_ == Form::kPooled) return std::move(payload).take();
    const std::span<const std::byte> b = bytes();
    return {b.begin(), b.end()};
  }

 private:
  void destroy_payload() noexcept {
    if (form_ == Form::kPooled) payload.~PoolBuffer();
  }
  /// Requires the payload destroyed: take over `other`'s form and bytes.
  void adopt_payload(Message& other) noexcept {
    form_ = other.form_;
    inline_size_ = other.inline_size_;
    if (form_ == Form::kInline) {
      std::memcpy(inline_bytes_, other.inline_bytes_, inline_size_);
    } else if (form_ == Form::kView) {
      new (&view) std::span<const std::byte>(other.view);
    } else {
      new (&payload) PoolBuffer(std::move(other.payload));
    }
  }
};
// The inline form must not change the message's size: the mailbox deque
// packs fewer messages per block (and allocates more often) when it grows,
// and a World's construction touches more memory per mailbox when the block
// grows (p=1024 event-engine Worlds are built per call).
static_assert(sizeof(Message) == 88);

/// Always-on transport counters (no trace sink needed). Monotonic; a World
/// sums them over its mailboxes (World::transport_counters).
struct TransportCounters {
  std::uint64_t polled_matches = 0;  ///< match() calls satisfied while polling
  std::uint64_t parked_matches = 0;  ///< match() calls that slept on the condvar
  std::uint64_t inline_sends = 0;    ///< messages posted with an inline payload
  TransportCounters& operator+=(const TransportCounters& o) {
    polled_matches += o.polled_matches;
    parked_matches += o.parked_matches;
    inline_sends += o.inline_sends;
    return *this;
  }
};

class Mailbox {
 public:
  /// How long match() polls for a post before it parks on the condvar: of
  /// the order of the futex wake-up the poll saves.
  static constexpr std::chrono::microseconds kPollBudget{50};

  /// Deposit a message (called by the sending rank's thread).
  void post(Message message);

  /// Block until a message from `source` with `tag` is available (posted and
  /// past its deliver_at), remove it from the queue, and return it. Matching
  /// is by exact (source, tag); among available matches, delivery is FIFO in
  /// post order (MPI non-overtaking). Throws FaultError(kTimeout) on
  /// deadline expiry and FaultError(kAborted) when the abort flag raises.
  /// `self_rank` only labels the thrown errors (-1 = unknown).
  ///
  /// `epoch` is the caller's membership epoch: queued (source, tag) messages
  /// from an *older* epoch are silently discarded (stale stragglers from
  /// before a shrink must not corrupt the retry), newer ones are left for a
  /// future epoch-advanced caller, and only an equal-epoch message matches.
  /// When a RevokeFlag is attached and the caller's epoch is revoked, the
  /// wait wakes with FaultError(kRevoked) — the recovery driver's signal to
  /// join the survivor agreement.
  Message match(int source, int tag, std::chrono::milliseconds timeout,
                int self_rank = -1, int epoch = 0);

  struct TryMatchResult {
    /// The delivered message, or nullopt when nothing is deliverable now.
    std::optional<Message> message;
    /// When empty-handed: earliest deliver_at among queued matches still held
    /// back by an injected delay, time_point::max() if none. The event
    /// executor parks until min(this, its receive deadline).
    std::chrono::steady_clock::time_point earliest_future =
        std::chrono::steady_clock::time_point::max();
  };

  /// One non-blocking matching pass with exactly the semantics of match():
  /// same abort/revoke throws, same stale-epoch discard, same FIFO pick among
  /// deliverable messages — but instead of waiting it returns empty-handed.
  TryMatchResult try_match(int source, int tag, int self_rank = -1,
                           int epoch = 0);

  /// Non-blocking probe: true if a matching message is queued (regardless of
  /// deliver_at).
  bool probe(int source, int tag);

  /// Remove every queued (source, tag) message whose payload satisfies
  /// `pred`, regardless of deliver_at; returns the number removed. The
  /// reliable transport uses this to clear stale acks and duplicate data so
  /// recovered channels drain toward pending() == 0 (the final retransmission
  /// of a channel can linger until the next receive on it).
  std::size_t drain_matching(int source, int tag,
                             const std::function<bool(std::span<const std::byte>)>& pred);

  /// Remove every queued message leased to `ledger` — a sender's unmatched
  /// zero-copy views — regardless of (source, tag, epoch, deliver_at);
  /// returns the number removed. Their leases credit the releases.
  std::size_t retract_views(const ViewLedger* ledger);

  /// Number of queued (undelivered) messages; used by leak checks in tests.
  std::size_t pending() const;

  /// Remove every queued message whose epoch is older than `epoch`; returns
  /// the number removed. The World purges all mailboxes when a new epoch is
  /// installed so stale-epoch traffic cannot linger as pending() leaks.
  std::size_t purge_stale(int epoch);

  /// Poll before parking: when match() finds nothing, it first polls the
  /// post counter for up to kPollBudget, and only then sleeps on the
  /// condvar. Worth it only while every rank has a hardware thread, so the
  /// World enables it when its size is at most the hardware concurrency.
  /// Called once before any rank thread runs.
  void set_poll(bool poll) { poll_ = poll; }

  [[nodiscard]] TransportCounters counters() const;

  /// Attach the World's abort poison (non-owning; may be nullptr). Called
  /// once before any rank thread runs.
  void set_abort_flag(const fault::AbortFlag* abort) { abort_ = abort; }

  /// Attach the World's epoch-versioned revoke poison (non-owning; may be
  /// nullptr). Called once before any rank thread runs.
  void set_revoke_flag(const fault::RevokeFlag* revoke) { revoke_ = revoke; }

  /// Wake all blocked match() calls so they re-check the abort/revoke flags.
  void interrupt();

  /// Attach (or with nullptr detach) the event-executor readiness hook. The
  /// waiter must outlive every post()/interrupt() that can still observe it;
  /// the event engine guarantees this by detaching before a task finishes
  /// and joining all tasks before teardown.
  void set_waiter(MailboxWaiter* waiter);

 private:
  /// Requires mu_. One matching scan: discards stale-epoch (source, tag)
  /// matches, returns the first deliverable match or queue_.end(), and
  /// records the earliest future deliver_at among delay-held matches.
  std::deque<Message>::iterator find_locked(
      int source, int tag, int epoch, std::chrono::steady_clock::time_point now,
      std::chrono::steady_clock::time_point& earliest_future);

  /// Throws kAborted / kRevoked when the attached flags say so (identically
  /// for the blocking and non-blocking match paths and the poll). Needs no
  /// lock: the flags are atomics attached before any rank thread runs.
  void throw_if_poisoned(int self_rank, int source, int tag, int epoch) const;

  /// Requires mu_ (the only writer): bump a counter readers load lock-free.
  static void bump_locked(std::atomic<std::uint64_t>& counter) {
    counter.store(counter.load(std::memory_order_relaxed) + 1,
                  std::memory_order_relaxed);
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::deque<Message> queue_;
  const fault::AbortFlag* abort_ = nullptr;
  const fault::RevokeFlag* revoke_ = nullptr;
  MailboxWaiter* waiter_ = nullptr;  ///< guarded by mu_; invoked outside it
  bool poll_ = false;
  // Written under mu_, read lock-free by counters().
  std::atomic<std::uint64_t> polled_matches_{0};
  std::atomic<std::uint64_t> parked_matches_{0};
  std::atomic<std::uint64_t> inline_sends_{0};
  /// Bumped by post() *after* it releases mu_, so a poller that sees the bump
  /// finds the lock free. Only a polling mailbox counts posts. Not padded to
  /// its own cache line: an over-aligned Mailbox doubled the cost of
  /// building a p=1024 World, and small_sync measured no difference.
  std::atomic<std::uint64_t> posts_{0};
};

}  // namespace gencoll::runtime
