#include "runtime/shm_group.hpp"

#include <chrono>
#include <memory>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>

#include "fault/error.hpp"
#include "fault/mutation.hpp"
#include "runtime/world.hpp"

namespace gencoll::runtime {

namespace {

constexpr std::size_t kLine = 64;

}  // namespace

std::uint64_t shm_wait_ge(const World* world, int epoch,
                          const std::atomic<std::uint64_t>& cell,
                          std::uint64_t target, int self_rank,
                          const char* what, const ShmWaitTuning& wait) {
  using Clock = std::chrono::steady_clock;
  const auto deadline =
      world != nullptr ? Clock::now() + world->recv_timeout() : Clock::time_point::max();
  const auto throw_if_poisoned = [&] {
    if (world != nullptr && world->aborted()) {
      throw FaultError(FaultKind::kAborted, self_rank, -1, -1,
                       std::string("woken by abort while waiting for ") +
                           what + ": " + world->abort_reason());
    }
    if (world != nullptr && world->membership().revoke_flag().revoked(epoch)) {
      throw FaultError(
          FaultKind::kRevoked, self_rank, -1, -1,
          std::string("woken by epoch revocation while waiting for ") +
              what + ": " + world->membership().revoke_flag().reason());
    }
    return false;
  };
  // Peer-dependent spin/sleep wait: on the event engine the shm fast path
  // runs whole under managed blocking, so compensate while polling here.
  BlockingGuard guard;
  // Brief spin, then yield: intra-group handoffs are usually immediate.
  std::uint64_t v =
      spin_until_ge(cell, target, wait, Clock::time_point::max(), throw_if_poisoned);
  while (v < target) {
    throw_if_poisoned();
    if (Clock::now() >= deadline) {
      throw FaultError(FaultKind::kTimeout, self_rank, -1, -1,
                       std::string("deadline expired waiting for ") + what);
    }
    std::this_thread::sleep_for(wait.sleep_slice);
    v = cell.load(std::memory_order_acquire);
  }
  return v;
}

ShmGroup::ShmGroup(World& world, int base_rank, int size, int epoch)
    : world_(world), base_rank_(base_rank), size_(size), epoch_(epoch) {
  if (size < 2) {
    throw std::invalid_argument("ShmGroup: group size must be >= 2");
  }
  if (base_rank < 0 || base_rank + size > world.size()) {
    throw std::invalid_argument("ShmGroup: group exceeds world");
  }
  // One slot per rank (slot 0 = leader fan-out) plus one fan-out ack line
  // per rank; +kLine slack so the first slot can be aligned up manually.
  const std::size_t want = 2 * static_cast<std::size_t>(size) * sizeof(Slot) + kLine;
  segment_ = world.pool().acquire(want);
  void* raw = segment_.data();
  std::size_t space = segment_.size();
  raw = std::align(alignof(Slot), 2 * static_cast<std::size_t>(size) * sizeof(Slot),
                   raw, space);
  slots_ = static_cast<Slot*>(raw);
  for (int i = 0; i < 2 * size; ++i) {
    new (&slots_[i]) Slot();
  }
}

ShmGroup::~ShmGroup() {
  for (int i = 0; i < 2 * size_; ++i) {
    slots_[i].~Slot();
  }
}

ShmGroup::Slot& ShmGroup::slot(int index) const { return slots_[index]; }

ShmGroup::Slot& ShmGroup::fan_ack(int member) const {
  return slots_[size_ + member];
}

std::uint64_t ShmGroup::wait_ge(const std::atomic<std::uint64_t>& cell,
                                std::uint64_t target, int self_rank,
                                const char* what,
                                const ShmWaitTuning& wait) const {
  return shm_wait_ge(&world_, epoch_, cell, target, self_rank, what, wait);
}

void ShmGroup::publish(int member, std::span<const std::byte> data) {
  Slot& s = slot(member);
  const std::uint64_t gen = s.seq.load(std::memory_order_relaxed);
  if (!fault::mutation_active(
          fault::ProtocolMutation::kSeqlockPublishBeforeData)) {
    // The load-bearing order: payload pointer/length first, generation
    // counter last (release). The mutation publishes the counter with the
    // previous generation's ptr/len still in place — the reader then
    // consumes stale (first time: empty) bytes, synchronized but wrong.
    s.ptr = data.data();
    s.len = data.size();
  }
  s.seq.store(seqlock::next_generation(gen), std::memory_order_release);
}

std::span<const std::byte> ShmGroup::await_publication(
    int member, int self_rank, const ShmWaitTuning& wait) {
  Slot& s = slot(member);
  const std::uint64_t target =
      seqlock::awaited_generation(s.ack.load(std::memory_order_relaxed));
  wait_ge(s.seq, target, self_rank, "member publication", wait);
  return {s.ptr, s.len};
}

void ShmGroup::release_publication(int member) {
  Slot& s = slot(member);
  const std::uint64_t gen = s.ack.load(std::memory_order_relaxed);
  s.ack.store(gen + 1, std::memory_order_release);
}

void ShmGroup::await_release(int member, int self_rank,
                             const ShmWaitTuning& wait) {
  Slot& s = slot(member);
  const std::uint64_t target = s.seq.load(std::memory_order_relaxed);
  wait_ge(s.ack, target, self_rank, "leader release", wait);
}

void ShmGroup::leader_publish(std::span<const std::byte> data) {
  Slot& s = slot(0);
  const std::uint64_t gen = s.seq.load(std::memory_order_relaxed);
  if (!fault::mutation_active(
          fault::ProtocolMutation::kSeqlockPublishBeforeData)) {
    s.ptr = data.data();
    s.len = data.size();
  }
  s.seq.store(seqlock::next_generation(gen), std::memory_order_release);
}

std::span<const std::byte> ShmGroup::await_leader(int member, int self_rank,
                                                  const ShmWaitTuning& wait) {
  const std::uint64_t target = seqlock::awaited_generation(
      fan_ack(member).seq.load(std::memory_order_relaxed));
  Slot& s = slot(0);
  wait_ge(s.seq, target, self_rank, "leader publication", wait);
  return {s.ptr, s.len};
}

void ShmGroup::release_leader(int member) {
  Slot& a = fan_ack(member);
  const std::uint64_t gen = a.seq.load(std::memory_order_relaxed);
  a.seq.store(seqlock::next_generation(gen), std::memory_order_release);
}

void ShmGroup::await_leader_releases(int self_rank,
                                     const ShmWaitTuning& wait) {
  const std::uint64_t target = slot(0).seq.load(std::memory_order_relaxed);
  for (int m = 1; m < size_; ++m) {
    wait_ge(fan_ack(m).seq, target, self_rank, "member fan-out ack", wait);
  }
}

// ---- ShmTree -------------------------------------------------------------

ShmTree::ShmTree(World& world, int base_rank, int size, int epoch)
    : world_(world), base_rank_(base_rank), size_(size), epoch_(epoch) {
  if (size < 1) {
    throw std::invalid_argument("ShmTree: group size must be >= 1");
  }
  if (base_rank < 0 || base_rank + size > world.size()) {
    throw std::invalid_argument("ShmTree: group exceeds world");
  }
  const std::size_t want =
      static_cast<std::size_t>(size) * sizeof(Node) + kLine;
  segment_ = world.pool().acquire(want);
  void* raw = segment_.data();
  std::size_t space = segment_.size();
  raw = std::align(alignof(Node), static_cast<std::size_t>(size) * sizeof(Node),
                   raw, space);
  nodes_ = static_cast<Node*>(raw);
  for (int i = 0; i < size; ++i) {
    new (&nodes_[i]) Node();
  }
}

ShmTree::~ShmTree() {
  for (int i = 0; i < size_; ++i) {
    nodes_[i].~Node();
  }
}

ShmTree::Node& ShmTree::node(int rel) const { return nodes_[rel]; }

std::uint64_t ShmTree::wait_ge(const std::atomic<std::uint64_t>& cell,
                               std::uint64_t target, int self_rank,
                               const char* what,
                               const ShmWaitTuning& wait) const {
  return shm_wait_ge(&world_, epoch_, cell, target, self_rank, what, wait);
}

std::uint64_t ShmTree::publish_buffers(int rel, std::span<const std::byte> src,
                                       std::span<std::byte> acc) {
  Node& n = node(rel);
  const std::uint64_t gen = n.pub.load(std::memory_order_relaxed);
  if (!fault::mutation_active(
          fault::ProtocolMutation::kSeqlockPublishBeforeData)) {
    // Same load-bearing order as ShmGroup::publish: pointers first, counter
    // last (release). The mutation leaves the previous collective's
    // pointers in place — peers then reduce from/into stale buffers.
    n.src = src.data();
    n.src_len = src.size();
    n.acc = acc.data();
    n.acc_len = acc.size();
  }
  const std::uint64_t next = seqlock::next_generation(gen);
  n.pub.store(next, std::memory_order_release);
  return next;
}

ShmTree::Buffers ShmTree::buffers_of(int target, std::uint64_t generation,
                                     int self_rank,
                                     const ShmWaitTuning& wait) {
  Node& n = node(target);
  wait_ge(n.pub, generation, self_rank, "tree buffer publication", wait);
  return {n.src, n.src_len, n.acc, n.acc_len};
}

std::uint64_t ShmTree::done_base(int rel) const {
  return node(rel).done.load(std::memory_order_relaxed);
}

void ShmTree::bump_done(int rel, std::uint64_t value) {
  node(rel).done.store(value, std::memory_order_release);
}

void ShmTree::await_done(int target, std::uint64_t value, int self_rank,
                         const ShmWaitTuning& wait) {
  wait_ge(node(target).done, value, self_rank, "tree fragment progress", wait);
}

std::uint64_t ShmTree::fanout_publish() {
  Node& n = node(0);
  const std::uint64_t next =
      seqlock::next_generation(n.fo.load(std::memory_order_relaxed));
  n.fo.store(next, std::memory_order_release);
  return next;
}

void ShmTree::await_fanout(int rel, int self_rank, const ShmWaitTuning& wait) {
  const std::uint64_t target = seqlock::awaited_generation(
      node(rel).fo.load(std::memory_order_relaxed));
  wait_ge(node(0).fo, target, self_rank, "tree fan-out publication", wait);
}

void ShmTree::ack_fanout(int rel) {
  Node& n = node(rel);
  const std::uint64_t gen = n.fo.load(std::memory_order_relaxed);
  n.fo.store(seqlock::next_generation(gen), std::memory_order_release);
}

void ShmTree::await_fanout_acks(std::uint64_t seq, int self_rank,
                                const ShmWaitTuning& wait) {
  for (int m = 1; m < size_; ++m) {
    wait_ge(node(m).fo, seq, self_rank, "tree fan-out ack", wait);
  }
}

}  // namespace gencoll::runtime
