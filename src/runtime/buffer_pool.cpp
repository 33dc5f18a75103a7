#include "runtime/buffer_pool.hpp"

#include <algorithm>
#include <bit>

namespace gencoll::runtime {

namespace {

std::atomic<std::size_t> next_shard{0};

}  // namespace

void PoolBuffer::release() noexcept {
  if (pool_ != nullptr) {
    pool_->release(std::move(storage_));
    pool_ = nullptr;
  }
  storage_.clear();
}

std::vector<std::byte> PoolBuffer::take() && {
  if (pool_ != nullptr) {
    pool_->detached_.fetch_add(1, std::memory_order_relaxed);
    pool_->outstanding_.fetch_sub(1, std::memory_order_relaxed);
    pool_ = nullptr;
  }
  return std::move(storage_);
}

BufferPool::Shard& BufferPool::my_shard() {
  thread_local const std::size_t index =
      next_shard.fetch_add(1, std::memory_order_relaxed) % kShards;
  return shards_[index];
}

std::size_t BufferPool::size_class(std::size_t bytes) {
  if (bytes > kMaxPooledBytes) return bytes;
  return std::max(kMinClassBytes, std::bit_ceil(bytes));
}

std::size_t BufferPool::class_index(std::size_t capacity) {
  // File under the largest class <= capacity (clamped to the class range) so
  // any storage routed to a class can serve every request of that class even
  // when the allocator handed back more capacity than reserved.
  const std::size_t cls =
      std::clamp(std::bit_floor(capacity), kMinClassBytes, kMaxPooledBytes);
  return static_cast<std::size_t>(std::countr_zero(cls)) -
         static_cast<std::size_t>(std::countr_zero(kMinClassBytes));
}

std::vector<std::byte> BufferPool::take_from(Freelist& list) {
  std::vector<std::byte> storage;
  if (list.count.load(std::memory_order_relaxed) == 0) return storage;
  std::lock_guard<std::mutex> lock(list.mu);
  if (!list.buffers.empty()) {
    storage = std::move(list.buffers.back());
    list.buffers.pop_back();
    list.count.store(list.buffers.size(), std::memory_order_relaxed);
  }
  return storage;
}

PoolBuffer BufferPool::acquire(std::size_t bytes) {
  acquires_.fetch_add(1, std::memory_order_relaxed);
  outstanding_.fetch_add(1, std::memory_order_relaxed);
  const std::size_t cls = size_class(bytes);
  if (cls <= kMaxPooledBytes && !bypass()) {
    const std::size_t ci = class_index(cls);
    const std::size_t first = static_cast<std::size_t>(&my_shard() - shards_);
    // Own shard first, then the others: a buffer cached anywhere is reused
    // before the heap is asked for a new one (one shard at a time, so a
    // concurrent scan can still miss; see the header).
    for (std::size_t k = 0; k < kShards; ++k) {
      std::vector<std::byte> storage =
          take_from(shards_[(first + k) % kShards].classes[ci]);
      if (storage.capacity() >= bytes) {
        recycles_.fetch_add(1, std::memory_order_relaxed);
        storage.resize(bytes);
        return PoolBuffer(std::move(storage), this);
      }
    }
  } else if (cls > kMaxPooledBytes) {
    oversize_.fetch_add(1, std::memory_order_relaxed);
  }
  allocations_.fetch_add(1, std::memory_order_relaxed);
  std::vector<std::byte> storage;
  storage.reserve(cls);
  storage.resize(bytes);
  return PoolBuffer(std::move(storage), this);
}

void BufferPool::release(std::vector<std::byte> storage) noexcept {
  releases_.fetch_add(1, std::memory_order_relaxed);
  outstanding_.fetch_sub(1, std::memory_order_relaxed);
  const std::size_t cap = storage.capacity();
  if (bypass() || cap < kMinClassBytes || cap > kMaxPooledBytes) {
    return;  // freed by the vector destructor
  }
  Freelist& list = my_shard().classes[class_index(cap)];
  std::lock_guard<std::mutex> lock(list.mu);
  list.buffers.push_back(std::move(storage));
  list.count.store(list.buffers.size(), std::memory_order_relaxed);
}

BufferPoolStats BufferPool::stats() const {
  BufferPoolStats s;
  s.acquires = acquires_.load(std::memory_order_relaxed);
  s.allocations = allocations_.load(std::memory_order_relaxed);
  s.recycles = recycles_.load(std::memory_order_relaxed);
  s.oversize = oversize_.load(std::memory_order_relaxed);
  s.releases = releases_.load(std::memory_order_relaxed);
  s.detached = detached_.load(std::memory_order_relaxed);
  s.outstanding = outstanding_.load(std::memory_order_relaxed);
  for (const Shard& sh : shards_) {
    for (const Freelist& list : sh.classes) {
      std::lock_guard<std::mutex> lock(list.mu);
      s.cached_buffers += list.buffers.size();
      for (const auto& b : list.buffers) s.cached_bytes += b.capacity();
    }
  }
  return s;
}

void BufferPool::trim() {
  for (Shard& sh : shards_) {
    for (Freelist& list : sh.classes) {
      std::lock_guard<std::mutex> lock(list.mu);
      list.buffers.clear();
      list.buffers.shrink_to_fit();
      list.count.store(0, std::memory_order_relaxed);
    }
  }
}

}  // namespace gencoll::runtime
