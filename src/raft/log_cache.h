// In-memory log-entry cache. §3.4: the leader "compresses the transaction
// and stores it in its in-memory cache" before shipping; followers that
// fall behind the cache are served from historical binlog files through
// the log abstraction. Proxy relays also reconstitute PROXY_OP payloads
// from this cache.

#ifndef MYRAFT_RAFT_LOG_CACHE_H_
#define MYRAFT_RAFT_LOG_CACHE_H_

#include <map>
#include <memory>
#include <optional>

#include "util/metrics.h"
#include "wire/log_entry.h"

namespace myraft::raft {

class LogCache {
 public:
  /// Point-in-time view of the cache's registry-backed metrics.
  /// hits/misses/evictions are cumulative; the byte fields are the bytes
  /// currently resident (before/after compression).
  struct Stats {
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t evictions = 0;
    uint64_t readahead_hits = 0;
    uint64_t readahead_misses = 0;
    uint64_t compressed_bytes = 0;
    uint64_t uncompressed_bytes = 0;
  };

  /// Metrics land in `registry` under "log_cache.*"; a null registry gets
  /// a private per-instance one (unit-test isolation).
  explicit LogCache(uint64_t capacity_bytes,
                    metrics::MetricRegistry* registry = nullptr);

  /// Inserts (compressed); evicts from the head if over capacity.
  void Put(const LogEntry& entry);

  /// Stashes a catch-up read-ahead entry in a side buffer. Kept separate
  /// from the main map because the main cache evicts lowest-index-first:
  /// historical catch-up entries would immediately thrash the hot tail.
  void PutReadahead(const LogEntry& entry);

  /// An entry as the cache holds it and as AppendEntries carries it: the
  /// LzCompress'd payload span plus the metadata that travels beside it.
  /// The shared buffer stays valid across eviction/truncation for as long
  /// as a holder (an in-flight batch) keeps it.
  struct CompressedEntry {
    OpId id;
    EntryType type = EntryType::kNoOp;
    uint32_t checksum = 0;          // covers the uncompressed payload
    uint64_t uncompressed_size = 0;
    std::shared_ptr<const std::string> compressed;

    /// The wire form: the span borrowed as the entry's payload.
    LogEntry ToWire() const;
  };

  /// Compresses an entry that is not cached (a binlog read) into the same
  /// form, for one batch or one relayed PROXY_OP.
  static CompressedEntry Compress(const LogEntry& entry);

  /// The entry's compressed span, from the main map first, then the
  /// read-ahead buffer (a read-ahead hit trims the prefix below it:
  /// catch-up consumption is sequential). nullopt on a miss.
  std::optional<CompressedEntry> GetCompressed(uint64_t index) const;

  bool Contains(uint64_t index) const {
    return entries_.count(index) > 0 || readahead_.count(index) > 0;
  }

  /// Drops entries with index > `index` (log truncation).
  void TruncateAfter(uint64_t index);
  /// Drops entries with index < `index` (after durable replication).
  void EvictBefore(uint64_t index);
  void Clear();

  uint64_t size_bytes() const { return size_bytes_; }
  size_t entry_count() const { return entries_.size(); }
  Stats stats() const;

 private:
  void Retire(const CompressedEntry& cached);

  uint64_t capacity_;
  uint64_t size_bytes_ = 0;
  std::map<uint64_t, CompressedEntry> entries_;
  // Catch-up read-ahead side buffer, bounded to a fraction of capacity.
  // Mutable: sequential consumption self-trims stale prefix on
  // GetCompressed().
  mutable std::map<uint64_t, CompressedEntry> readahead_;
  mutable uint64_t readahead_bytes_ = 0;

  std::unique_ptr<metrics::MetricRegistry> owned_registry_;
  metrics::Counter* hits_;
  metrics::Counter* misses_;
  metrics::Counter* evictions_;
  metrics::Counter* readahead_hits_;
  metrics::Counter* readahead_misses_;
  metrics::Gauge* compressed_bytes_;
  metrics::Gauge* uncompressed_bytes_;
};

}  // namespace myraft::raft

#endif  // MYRAFT_RAFT_LOG_CACHE_H_
