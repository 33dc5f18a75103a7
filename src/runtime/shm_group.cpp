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

/// The one setting of every shared-segment wait.
constexpr ShmWaitTuning kShmWait{};

}  // namespace

std::uint64_t shm_wait_ge(const World* world, int epoch,
                          const std::atomic<std::uint64_t>& cell,
                          std::uint64_t target, int self_rank,
                          const char* what) {
  using Clock = std::chrono::steady_clock;
  // Already there (the common intra-node handoff): no clock read, no guard.
  const std::uint64_t now_value = cell.load(std::memory_order_acquire);
  if (now_value >= target) return now_value;
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
      spin_until_ge(cell, target, kShmWait, Clock::time_point::max(), throw_if_poisoned);
  while (v < target) {
    throw_if_poisoned();
    if (Clock::now() >= deadline) {
      throw FaultError(FaultKind::kTimeout, self_rank, -1, -1,
                       std::string("deadline expired waiting for ") + what);
    }
    std::this_thread::sleep_for(kShmWait.sleep_slice);
    v = cell.load(std::memory_order_acquire);
  }
  return v;
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
                               const char* what) const {
  return shm_wait_ge(&world_, epoch_, cell, target, self_rank, what);
}

std::uint64_t ShmTree::publish_buffers(int rel, std::span<const std::byte> src,
                                       std::span<std::byte> acc) {
  Node& n = node(rel);
  const std::uint64_t gen = n.pub.load(std::memory_order_relaxed);
  if (!fault::mutation_active(
          fault::ProtocolMutation::kSeqlockPublishBeforeData)) {
    // The load-bearing order: pointers first, counter last (release). The
    // mutation advances the counter with the previous collective's pointers
    // still in place (null before the first publication) — peers then
    // reduce from/into stale buffers, synchronized but wrong.
    n.src = src.data();
    n.src_len = src.size();
    n.acc = acc.data();
    n.acc_len = acc.size();
  }
  const std::uint64_t next = seqlock::next_generation(gen);
  // Sequentially consistent: with the owner's seq_cst `left` check in
  // check_not_retracted, either a retracting peer sees this publication and
  // waits for us, or we see its retraction and never take its buffers.
  n.pub.store(next, std::memory_order_seq_cst);
  return next;
}

void ShmTree::check_not_retracted(const Node& owner, std::uint64_t generation,
                                  int self_rank) const {
  if (owner.left.load(std::memory_order_seq_cst) >= generation) {
    throw FaultError(FaultKind::kAborted, self_rank, -1, -1,
                     "tree peer retracted its buffers");
  }
}

ShmTree::Buffers ShmTree::buffers_of(int target, std::uint64_t generation,
                                     int self_rank) {
  Node& n = node(target);
  wait_ge(n.pub, generation, self_rank, "tree buffer publication");
  check_not_retracted(n, generation, self_rank);
  return {n.src, n.src_len, n.acc, n.acc_len};
}

void ShmTree::retract(int rel, std::uint64_t generation,
                      std::uint64_t exit_done) noexcept {
  node(rel).left.store(generation, std::memory_order_seq_cst);
  // No BlockingGuard (its compensation may spawn a thread, and this runs in
  // a destructor): the event engine already runs the whole shared-memory
  // path under one (exec_detail::begin_rank_program).
  for (int m = 0; m < size_; ++m) {
    const Node& n = node(m);
    if (m == rel || n.pub.load(std::memory_order_seq_cst) < generation) {
      continue;  // not published yet: it will see `left` and stay away
    }
    int yields = 0;
    while (n.done.load(std::memory_order_acquire) < exit_done &&
           n.left.load(std::memory_order_acquire) < generation) {
      if (yields < kShmWait.yield_iters) {
        ++yields;
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(kShmWait.sleep_slice);
      }
    }
  }
}

std::uint64_t ShmTree::done_base(int rel) const {
  return node(rel).done.load(std::memory_order_relaxed);
}

void ShmTree::bump_done(int rel, std::uint64_t value) {
  node(rel).done.store(value, std::memory_order_release);
}

void ShmTree::await_done(int target, std::uint64_t value, int self_rank) {
  wait_ge(node(target).done, value, self_rank, "tree fragment progress");
}

std::uint64_t ShmTree::fanout_publish() {
  Node& n = node(0);
  const std::uint64_t next =
      seqlock::next_generation(n.fo.load(std::memory_order_relaxed));
  n.fo.store(next, std::memory_order_release);
  return next;
}

ShmTree::Buffers ShmTree::await_fanout(int rel, int self_rank) {
  const std::uint64_t target = seqlock::awaited_generation(
      node(rel).fo.load(std::memory_order_relaxed));
  const Node& leader = node(0);
  wait_ge(leader.fo, target, self_rank, "tree fan-out publication");
  check_not_retracted(leader, node(rel).pub.load(std::memory_order_relaxed),
                      self_rank);
  return {leader.src, leader.src_len, leader.acc, leader.acc_len};
}

void ShmTree::ack_fanout(int rel) {
  Node& n = node(rel);
  const std::uint64_t gen = n.fo.load(std::memory_order_relaxed);
  n.fo.store(seqlock::next_generation(gen), std::memory_order_release);
}

void ShmTree::await_fanout_acks(std::uint64_t seq, int self_rank) {
  for (int m = 1; m < size_; ++m) {
    wait_ge(node(m).fo, seq, self_rank, "tree fan-out ack");
  }
}

}  // namespace gencoll::runtime
