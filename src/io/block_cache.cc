#include "io/block_cache.h"

#include <algorithm>
#include <limits>

namespace mlfs {

BlockCache::BlockCache(size_t num_blocks, size_t capacity) {
  blocks_.resize(num_blocks);
  capacity_ = std::min(capacity, num_blocks);
}

std::vector<BlockCache::Payload>& BlockCache::ThreadPins() {
  thread_local std::vector<Payload> pins;
  return pins;
}

uint64_t BlockCache::BeginBatch() {
  std::lock_guard<std::mutex> lock(mu_);
  return ++tick_;
}

BlockCache::Payload BlockCache::Touch(size_t block, uint64_t stamp) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = blocks_[block];
  slot.stamp = stamp;
  return slot.payload;
}

BlockCache::Payload BlockCache::Peek(size_t block) const {
  std::lock_guard<std::mutex> lock(mu_);
  return blocks_[block].payload;
}

bool BlockCache::Insert(size_t block, Payload payload, size_t bytes,
                        uint64_t stamp, bool count_promotion) {
  std::lock_guard<std::mutex> lock(mu_);
  Slot& slot = blocks_[block];
  slot.stamp = stamp;
  if (slot.payload != nullptr || capacity_ == 0) return false;
  slot.payload = std::move(payload);
  slot.bytes = bytes;
  ++resident_;
  resident_bytes_ += bytes;
  if (count_promotion) ++promotions_;
  EvictOverCapacityLocked();
  return true;
}

void BlockCache::CountAccess(uint64_t hits, uint64_t misses) {
  std::lock_guard<std::mutex> lock(mu_);
  hits_ += hits;
  misses_ += misses;
}

void BlockCache::EvictOverCapacityLocked() {
  // Linear min-stamp scan: the slot universe is small (rows / block_rows)
  // and eviction only runs on inserts past the budget.
  while (resident_ > capacity_) {
    size_t victim = blocks_.size();
    uint64_t oldest = std::numeric_limits<uint64_t>::max();
    for (size_t b = 0; b < blocks_.size(); ++b) {
      if (blocks_[b].payload != nullptr && blocks_[b].stamp < oldest) {
        oldest = blocks_[b].stamp;
        victim = b;
      }
    }
    if (victim == blocks_.size()) break;
    Slot& slot = blocks_[victim];
    slot.payload.reset();
    resident_bytes_ -= slot.bytes;
    slot.bytes = 0;
    --resident_;
    ++evictions_;
  }
}

void BlockCache::SetCapacity(size_t capacity) {
  std::lock_guard<std::mutex> lock(mu_);
  capacity_ = std::min(capacity, blocks_.size());
  EvictOverCapacityLocked();
}

size_t BlockCache::capacity() const {
  std::lock_guard<std::mutex> lock(mu_);
  return capacity_;
}

size_t BlockCache::resident() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_;
}

std::vector<std::pair<uint32_t, BlockCache::Payload>>
BlockCache::ResidentSnapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::pair<uint32_t, Payload>> out;
  out.reserve(resident_);
  for (size_t b = 0; b < blocks_.size(); ++b) {
    if (blocks_[b].payload != nullptr) {
      out.emplace_back(static_cast<uint32_t>(b), blocks_[b].payload);
    }
  }
  return out;
}

BlockCacheStats BlockCache::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  BlockCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.promotions = promotions_;
  s.evictions = evictions_;
  s.resident_blocks = resident_;
  s.capacity_blocks = capacity_;
  s.num_blocks = blocks_.size();
  s.resident_bytes = resident_bytes_;
  return s;
}

}  // namespace mlfs
