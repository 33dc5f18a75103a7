#include "runtime/mailbox.hpp"

#include <algorithm>
#include <climits>
#include <string>

#include "fault/error.hpp"
#include "runtime/shm_group.hpp"

namespace gencoll::runtime {

void Mailbox::post(Message message) {
  MailboxWaiter* waiter = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (message.form() == Message::Form::kInline) bump_locked(inline_sends_);
    queue_.push_back(std::move(message));
    waiter = waiter_;
  }
  // Outside mu_: a poller that sees the bump rescans without blocking on the
  // lock this thread just held.
  if (poll_) posts_.fetch_add(1, std::memory_order_release);
  cv_.notify_all();
  // Outside mu_: the waiter re-enters the event pool's lock and must never
  // nest inside the mailbox lock (and vice versa).
  if (waiter != nullptr) waiter->on_mailbox_event();
}

void Mailbox::throw_if_poisoned(int self_rank, int source, int tag,
                                int epoch) const {
  if (abort_ != nullptr && abort_->raised()) {
    throw FaultError(FaultKind::kAborted, self_rank, source, tag,
                     "abort raised by rank " + std::to_string(abort_->source_rank()) +
                         " (" + abort_->reason() + ")");
  }
  if (revoke_ != nullptr && revoke_->revoked(epoch)) {
    throw FaultError(FaultKind::kRevoked, self_rank, source, tag,
                     "epoch " + std::to_string(epoch) + " revoked by rank " +
                         std::to_string(revoke_->source_rank()) + " (" +
                         revoke_->reason() + ")");
  }
}

TransportCounters Mailbox::counters() const {
  TransportCounters c;
  c.polled_matches = polled_matches_.load(std::memory_order_relaxed);
  c.parked_matches = parked_matches_.load(std::memory_order_relaxed);
  c.inline_sends = inline_sends_.load(std::memory_order_relaxed);
  return c;
}

std::deque<Message>::iterator Mailbox::find_locked(
    int source, int tag, int epoch, std::chrono::steady_clock::time_point now,
    std::chrono::steady_clock::time_point& earliest_future) {
  for (auto cur = queue_.begin(); cur != queue_.end();) {
    if (cur->source != source || cur->tag != tag || cur->epoch > epoch) {
      ++cur;
      continue;
    }
    if (cur->epoch < epoch) {
      // Stale straggler from a pre-shrink epoch: discard, never deliver.
      cur = queue_.erase(cur);
      continue;
    }
    if (cur->deliver_at <= now) return cur;
    earliest_future = std::min(earliest_future, cur->deliver_at);
    ++cur;
  }
  return queue_.end();
}

Message Mailbox::match(int source, int tag, std::chrono::milliseconds timeout,
                       int self_rank, int epoch) {
  using clock = std::chrono::steady_clock;
  // Poll spin: a few busy probes, then yields, until the budget ends.
  static constexpr ShmWaitTuning kPollSpin{64, INT_MAX, {}};
  std::unique_lock<std::mutex> lock(mu_);
  const auto deadline = clock::now() + timeout;
  auto poll_until = clock::time_point::min();  // set by the first poll
  bool parked = false;

  for (;;) {
    throw_if_poisoned(self_rank, source, tag, epoch);
    const auto now = clock::now();
    auto earliest_future = clock::time_point::max();
    const auto it = find_locked(source, tag, epoch, now, earliest_future);
    if (it != queue_.end()) {
      Message out = std::move(*it);
      queue_.erase(it);
      if (parked) {
        bump_locked(parked_matches_);
      } else if (poll_until != clock::time_point::min()) {
        bump_locked(polled_matches_);
      }
      return out;
    }
    if (now >= deadline) {
      throw FaultError(FaultKind::kTimeout, self_rank, source, tag,
                       "Mailbox::match timed out after " +
                           std::to_string(timeout.count()) + " ms (" +
                           std::to_string(queue_.size()) + " unmatched message(s) queued)");
    }
    // Poll before parking, unless a delay-held match is queued: its
    // deliver_at, not a post, decides when this wait ends.
    if (poll_ && !parked && earliest_future == clock::time_point::max()) {
      if (poll_until == clock::time_point::min()) poll_until = now + kPollBudget;
      if (now < poll_until) {
        // Read under mu_: every post after this scan bumps past `seen`.
        const std::uint64_t seen = posts_.load(std::memory_order_relaxed);
        lock.unlock();
        spin_until_ge(posts_, seen + 1, kPollSpin, std::min(poll_until, deadline), [&] {
          throw_if_poisoned(self_rank, source, tag, epoch);
          return false;
        });
        lock.lock();
        continue;
      }
    }
    parked = true;
    cv_.wait_until(lock, std::min(deadline, earliest_future));
  }
}

Mailbox::TryMatchResult Mailbox::try_match(int source, int tag, int self_rank,
                                           int epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  throw_if_poisoned(self_rank, source, tag, epoch);
  TryMatchResult result;
  const auto it = find_locked(source, tag, epoch,
                              std::chrono::steady_clock::now(),
                              result.earliest_future);
  if (it != queue_.end()) {
    result.message = std::move(*it);
    queue_.erase(it);
  }
  return result;
}

bool Mailbox::probe(int source, int tag) {
  std::lock_guard<std::mutex> lock(mu_);
  return std::any_of(queue_.begin(), queue_.end(), [&](const Message& m) {
    return m.source == source && m.tag == tag;
  });
}

std::size_t Mailbox::drain_matching(
    int source, int tag, const std::function<bool(std::span<const std::byte>)>& pred) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t before = queue_.size();
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [&](const Message& m) {
                                return m.source == source && m.tag == tag &&
                                       pred(m.bytes());
                              }),
               queue_.end());
  return before - queue_.size();
}

std::size_t Mailbox::purge_stale(int epoch) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t before = queue_.size();
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [epoch](const Message& m) { return m.epoch < epoch; }),
               queue_.end());
  return before - queue_.size();
}

std::size_t Mailbox::retract_views(const ViewLedger* ledger) {
  std::lock_guard<std::mutex> lock(mu_);
  const std::size_t before = queue_.size();
  queue_.erase(std::remove_if(queue_.begin(), queue_.end(),
                              [ledger](const Message& m) {
                                return m.lease.ledger() == ledger;
                              }),
               queue_.end());
  return before - queue_.size();
}

std::size_t Mailbox::pending() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

void Mailbox::interrupt() {
  MailboxWaiter* waiter = nullptr;
  {
    std::lock_guard<std::mutex> lock(mu_);
    waiter = waiter_;
  }
  cv_.notify_all();
  // A parked task must also re-poll on abort/revoke poison, not only on
  // deposits: its next try_match throws the poison instead of sleeping out
  // the receive deadline.
  if (waiter != nullptr) waiter->on_mailbox_event();
}

void Mailbox::set_waiter(MailboxWaiter* waiter) {
  std::lock_guard<std::mutex> lock(mu_);
  waiter_ = waiter;
}

}  // namespace gencoll::runtime
