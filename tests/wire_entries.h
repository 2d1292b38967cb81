// Replication wire form for hand-built raft AppendEntries in tests. The
// leader and relays ship each entry's payload LzCompress'd (the LogCache
// span); the checksum still covers the uncompressed bytes, and the
// follower inflates before verifying it.

#ifndef MYRAFT_TESTS_WIRE_ENTRIES_H_
#define MYRAFT_TESTS_WIRE_ENTRIES_H_

#include <string>
#include <vector>

#include "util/compression.h"
#include "util/logging.h"
#include "wire/log_entry.h"

namespace myraft {

/// `entry` with its payload compressed as it travels on the wire.
inline LogEntry WireForm(LogEntry entry) {
  std::string packed;
  LzCompress(entry.payload_bytes(), &packed);
  entry.payload = std::move(packed);
  entry.shared_payload.reset();
  return entry;
}

inline std::vector<LogEntry> WireForm(std::vector<LogEntry> entries) {
  for (LogEntry& entry : entries) entry = WireForm(std::move(entry));
  return entries;
}

/// The uncompressed payload of a wire-form entry.
inline std::string Inflated(const LogEntry& wire) {
  std::string raw;
  MYRAFT_CHECK(LzDecompress(wire.payload_bytes(), &raw).ok());
  return raw;
}

}  // namespace myraft

#endif  // MYRAFT_TESTS_WIRE_ENTRIES_H_
