#include "raft/log_cache.h"

#include <algorithm>

#include "util/compression.h"

namespace myraft::raft {

LogCache::LogCache(uint64_t capacity_bytes,
                   metrics::MetricRegistry* registry)
    : capacity_(capacity_bytes) {
  if (registry == nullptr) {
    owned_registry_ = std::make_unique<metrics::MetricRegistry>();
    registry = owned_registry_.get();
  }
  hits_ = registry->GetCounter("log_cache.hits");
  misses_ = registry->GetCounter("log_cache.misses");
  evictions_ = registry->GetCounter("log_cache.evictions");
  readahead_hits_ = registry->GetCounter("log_cache.readahead_hits");
  readahead_misses_ = registry->GetCounter("log_cache.readahead_misses");
  compressed_bytes_ = registry->GetGauge("log_cache.compressed_bytes");
  uncompressed_bytes_ = registry->GetGauge("log_cache.uncompressed_bytes");
  // A long-lived registry can outlive the cache instance (sim node
  // restart); the resident-byte gauges describe *this* cache, which
  // starts empty.
  compressed_bytes_->Set(0);
  uncompressed_bytes_->Set(0);
}

void LogCache::Retire(const CompressedEntry& cached) {
  size_bytes_ -= cached.compressed->size();
  compressed_bytes_->Add(-(int64_t)cached.compressed->size());
  uncompressed_bytes_->Add(-(int64_t)cached.uncompressed_size);
}

LogEntry LogCache::CompressedEntry::ToWire() const {
  LogEntry entry;
  entry.id = id;
  entry.type = type;
  entry.checksum = checksum;
  entry.shared_payload = compressed;
  return entry;
}

LogCache::CompressedEntry LogCache::Compress(const LogEntry& entry) {
  CompressedEntry cached;
  cached.id = entry.id;
  cached.type = entry.type;
  cached.checksum = entry.checksum;
  const Slice payload = entry.payload_bytes();
  cached.uncompressed_size = payload.size();
  auto compressed = std::make_shared<std::string>();
  LzCompress(payload, compressed.get());
  cached.compressed = std::move(compressed);
  return cached;
}

void LogCache::Put(const LogEntry& entry) {
  CompressedEntry cached = Compress(entry);

  // Retire a replaced entry before accounting the new one, so overwrites
  // (leader re-proposals, truncate-then-refill) don't inflate the byte
  // gauges.
  auto it = entries_.find(entry.id.index);
  if (it != entries_.end()) Retire(it->second);

  size_bytes_ += cached.compressed->size();
  compressed_bytes_->Add((int64_t)cached.compressed->size());
  uncompressed_bytes_->Add((int64_t)cached.uncompressed_size);
  entries_[entry.id.index] = std::move(cached);

  while (size_bytes_ > capacity_ && entries_.size() > 1) {
    auto head = entries_.begin();
    Retire(head->second);
    entries_.erase(head);
    evictions_->Increment();
  }
}

void LogCache::PutReadahead(const LogEntry& entry) {
  if (entries_.count(entry.id.index) > 0 ||
      readahead_.count(entry.id.index) > 0) {
    return;
  }
  CompressedEntry cached = Compress(entry);
  // Bounded to a quarter of the main capacity; read-ahead is filled and
  // consumed in ascending order, so once the budget is full the earliest
  // prefix is the useful part — just drop the surplus.
  if (readahead_bytes_ + cached.compressed->size() > capacity_ / 4) {
    return;
  }
  readahead_bytes_ += cached.compressed->size();
  readahead_[entry.id.index] = std::move(cached);
}

std::optional<LogCache::CompressedEntry> LogCache::GetCompressed(
    uint64_t index) const {
  auto it = entries_.find(index);
  if (it != entries_.end()) {
    hits_->Increment();
    return it->second;
  }
  auto ra = readahead_.find(index);
  if (ra != readahead_.end()) {
    readahead_hits_->Increment();
    // Sequential catch-up consumption: everything below this index has
    // already been served, reclaim its budget.
    for (auto trim = readahead_.begin(); trim != ra;) {
      readahead_bytes_ -= trim->second.compressed->size();
      trim = readahead_.erase(trim);
    }
    return ra->second;
  }
  misses_->Increment();
  if (!readahead_.empty()) readahead_misses_->Increment();
  return std::nullopt;
}

void LogCache::TruncateAfter(uint64_t index) {
  for (auto it = entries_.upper_bound(index); it != entries_.end();) {
    Retire(it->second);
    it = entries_.erase(it);
  }
  for (auto it = readahead_.upper_bound(index); it != readahead_.end();) {
    readahead_bytes_ -= it->second.compressed->size();
    it = readahead_.erase(it);
  }
}

void LogCache::EvictBefore(uint64_t index) {
  for (auto it = entries_.begin();
       it != entries_.end() && it->first < index;) {
    Retire(it->second);
    it = entries_.erase(it);
    evictions_->Increment();
  }
}

void LogCache::Clear() {
  entries_.clear();
  size_bytes_ = 0;
  readahead_.clear();
  readahead_bytes_ = 0;
  compressed_bytes_->Set(0);
  uncompressed_bytes_->Set(0);
}

LogCache::Stats LogCache::stats() const {
  Stats s;
  s.hits = hits_->value();
  s.misses = misses_->value();
  s.evictions = evictions_->value();
  s.readahead_hits = readahead_hits_->value();
  s.readahead_misses = readahead_misses_->value();
  s.compressed_bytes =
      (uint64_t)std::max<int64_t>(0, compressed_bytes_->value());
  s.uncompressed_bytes =
      (uint64_t)std::max<int64_t>(0, uncompressed_bytes_->value());
  return s;
}

}  // namespace myraft::raft
