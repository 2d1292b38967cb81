#include "ring_load.h"

#include <algorithm>
#include <cmath>
#include <memory>

namespace perfbench {

using myraft::RegionId;
using myraft::sim::ClientReadResult;
using myraft::sim::ClientWriteResult;
using myraft::sim::ReadMode;

namespace {

// A failed try is retried after a jittered exponential backoff (a random
// delay between half and all of 20 ms doubling to 320 ms), until the
// operation is kOpDeadlineMicros old; only then does it count as failed.
// Without the jitter every operation caught by an outage retries on the
// same schedule and latencies bunch at a few values.
constexpr uint64_t kRetryMicros = 20'000;
constexpr uint32_t kMaxBackoffShift = 4;
constexpr uint64_t kOpDeadlineMicros = 30'000'000;

constexpr size_t kFixedRowBytes = 100;
// Production-like transaction payloads (the MyShadow-style mix of
// src/workload): bounded Pareto.
constexpr double kParetoMin = 64;
constexpr double kParetoMax = 8192;
constexpr double kParetoShape = 1.3;

}  // namespace

RingLoad::RingLoad(myraft::sim::Shard* shard, myraft::sim::SimClient* client,
                   uint64_t seed, Gates* gates)
    : shard_(shard),
      client_(client),
      loop_(shard->loop()),
      rng_(seed),
      gates_(gates) {}

void RingLoad::StartClosedLoop(int workers, uint64_t key_space) {
  issuing_ = true;
  ++generation_;
  workers_ = workers;
  key_space_ = key_space;
  shape_ = ValueShape::kFixedRow;
  for (int w = 0; w < workers; ++w) NextClosedLoopWrite(w, generation_);
}

void RingLoad::StartOpenLoop(double writes_per_sec, double reads_per_sec,
                             ValueShape shape) {
  issuing_ = true;
  ++generation_;
  write_rate_ = writes_per_sec;
  read_rate_ = reads_per_sec;
  shape_ = shape;
  if (write_rate_ > 0) ScheduleWriteArrival(generation_);
  if (read_rate_ > 0) ScheduleReadArrival(generation_);
}

void RingLoad::StopIssuing() { issuing_ = false; }

void RingLoad::NoteCrash(uint64_t crash_micros, FirstWriteHook hook) {
  if (outage_open_) {
    gates_->Fail("ring " + shard_->replicaset() +
                 " had not recovered from its previous crash");
  }
  outage_open_ = true;
  outage_ = Outage{crash_micros, 0, 0};
  write_recovered_ = false;
  read_recovered_ = false;
  first_write_hook_ = std::move(hook);
}

bool RingLoad::LedgerDurableOn(myraft::server::MySqlServer* server,
                               uint64_t before_micros,
                               std::string* missing) const {
  for (const auto& [key, entry] : ledger_) {
    if (entry.acked_micros >= before_micros) continue;
    const auto value = server->Read("bench.kv", key);
    if (!value.has_value() || *value != entry.image) {
      *missing = key;
      return false;
    }
  }
  return true;
}

// --- Writes ----------------------------------------------------------------------

void RingLoad::NextClosedLoopWrite(int worker, uint64_t generation) {
  if (!Issuing(generation)) return;
  const uint64_t slot = rng_.Uniform(key_space_ / workers_);
  WriteOp op;
  op.key = "sbtest" + std::to_string(worker + slot * workers_);
  op.value = RandomValue(kFixedRowBytes);
  op.due_micros = loop_->now();
  op.worker = worker;
  op.generation = generation;
  ++attempted_;
  ++outstanding_;
  IssueWrite(std::move(op));
}

void RingLoad::ScheduleWriteArrival(uint64_t generation) {
  loop_->Schedule(ExponentialMicros(write_rate_), [this, generation]() {
    if (!Issuing(generation)) return;
    WriteOp op;
    op.key = "w" + std::to_string(next_key_++);
    op.value = RandomValue(NextValueBytes());
    op.due_micros = loop_->now();
    ++attempted_;
    ++outstanding_;
    IssueWrite(std::move(op));
    ScheduleWriteArrival(generation);
  });
}

void RingLoad::IssueWrite(WriteOp op) {
  const uint64_t issued = loop_->now();
  // The callback owns the op: a retry re-issues the same key and value,
  // which is idempotent if an earlier try committed after all.
  auto shared = std::make_shared<WriteOp>(std::move(op));
  client_->ClientWrite(
      shared->key, shared->value,
      [this, shared, issued](const ClientWriteResult& r) {
        if (r.status.ok()) {
          LedgerEntry& entry = ledger_[shared->key];
          const bool fresh = entry.image.empty();
          entry.image = shared->key + "=" + shared->value;
          entry.acked_micros = loop_->now();
          if (fresh && shared->worker < 0) readable_keys_.push_back(shared->key);
          session_index_ = std::max(session_index_, r.opid.index);
          writes_.push_back(
              OpSample{loop_->now(), loop_->now() - shared->due_micros});
          NoteSuccessForOutage(true, issued);
          FinishWrite(*shared, true);
          return;
        }
        if (loop_->now() - shared->due_micros < kOpDeadlineMicros) {
          ++retries_;
          loop_->Schedule(Backoff(shared->tries++),
                          [this, shared]() { IssueWrite(*shared); });
          return;
        }
        FinishWrite(*shared, false);
      });
}

void RingLoad::FinishWrite(const WriteOp& op, bool ok) {
  if (!ok) ++failed_;
  --outstanding_;
  if (op.worker >= 0) NextClosedLoopWrite(op.worker, op.generation);
}

// --- Reads -----------------------------------------------------------------------

void RingLoad::ScheduleReadArrival(uint64_t generation) {
  loop_->Schedule(ExponentialMicros(read_rate_), [this, generation]() {
    if (!Issuing(generation)) return;
    ScheduleReadArrival(generation);
    // Reads target acknowledged writes only; before the first ack there
    // is nothing whose value a read could be checked against.
    if (readable_keys_.empty()) return;
    ReadOp op;
    op.key = readable_keys_[rng_.Uniform(readable_keys_.size())];
    op.expected = ledger_.at(op.key).image;
    op.due_micros = loop_->now();
    // Two reads in five are follower reads. An even split would put the
    // median on the gap between the fast leader-read mode and the
    // GTID-gated follower mode, where it flips between them across seeds.
    if (reads_issued_++ % 5 >= 3) {
      op.options.mode = ReadMode::kFollower;
      op.options.min_index = session_index_;
      const RegionId leader_region = shard_->PrimaryRegion();
      std::vector<RegionId> regions;
      for (const RegionId& region : shard_->Regions()) {
        if (region != leader_region) regions.push_back(region);
      }
      if (!regions.empty()) {
        op.options.client_region = regions[rng_.Uniform(regions.size())];
      }
    }
    ++attempted_;
    ++outstanding_;
    IssueRead(std::move(op));
  });
}

void RingLoad::IssueRead(ReadOp op) {
  const uint64_t issued = loop_->now();
  auto shared = std::make_shared<ReadOp>(std::move(op));
  client_->ClientRead(
      shared->key, shared->options,
      [this, shared, issued](const ClientReadResult& r) {
        if (r.status.ok()) {
          if (!r.value.has_value() || *r.value != shared->expected) {
            gates_->Fail("read of acknowledged key " + shared->key + " on " +
                         r.served_by + " returned " +
                         (r.value.has_value() ? "a different value"
                                              : "nothing"));
          }
          if (shared->options.mode == ReadMode::kFollower &&
              r.applied_index < shared->options.min_index) {
            gates_->Fail("follower read on " + r.served_by +
                         " served at index " +
                         std::to_string(r.applied_index) + " below min_index " +
                         std::to_string(shared->options.min_index));
          }
          reads_.push_back(
              OpSample{loop_->now(), loop_->now() - shared->due_micros});
          if (shared->options.mode == ReadMode::kLeader) {
            NoteSuccessForOutage(false, issued);
          }
          --outstanding_;
          return;
        }
        if (loop_->now() - shared->due_micros < kOpDeadlineMicros) {
          ++retries_;
          loop_->Schedule(Backoff(shared->tries++),
                          [this, shared]() { IssueRead(*shared); });
          return;
        }
        ++failed_;
        --outstanding_;
      });
}

// --- Outage bookkeeping ----------------------------------------------------------

void RingLoad::NoteSuccessForOutage(bool write, uint64_t issued_micros) {
  if (!outage_open_ || issued_micros < outage_.crash_micros) return;
  if (write && !write_recovered_) {
    write_recovered_ = true;
    outage_.write_down_micros = issued_micros - outage_.crash_micros;
    if (first_write_hook_) first_write_hook_(outage_.crash_micros);
  } else if (!write && !read_recovered_) {
    read_recovered_ = true;
    outage_.read_down_micros = issued_micros - outage_.crash_micros;
  }
  if (write_recovered_ && read_recovered_) {
    outages_.push_back(outage_);
    outage_open_ = false;
  }
}

// --- Inputs ----------------------------------------------------------------------

uint64_t RingLoad::Backoff(uint32_t tries) {
  const uint64_t ceiling = kRetryMicros << std::min(tries, kMaxBackoffShift);
  return ceiling / 2 + rng_.Uniform(ceiling / 2 + 1);
}

uint64_t RingLoad::ExponentialMicros(double rate) {
  // 1 - U in (0, 1] keeps the log finite.
  const double u = 1.0 - rng_.NextDouble();
  return static_cast<uint64_t>(-std::log(u) / rate * 1e6) + 1;
}

size_t RingLoad::NextValueBytes() {
  if (shape_ == ValueShape::kFixedRow) return kFixedRowBytes;
  const double u = rng_.NextDouble();
  const double ratio = std::pow(kParetoMin / kParetoMax, kParetoShape);
  return static_cast<size_t>(kParetoMin /
                             std::pow(1.0 - u * (1.0 - ratio),
                                      1.0 / kParetoShape));
}

std::string RingLoad::RandomValue(size_t bytes) {
  static const char kAlphabet[] =
      "0123456789abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ";
  std::string value(bytes, '0');
  for (char& c : value) c = kAlphabet[rng_.Uniform(sizeof(kAlphabet) - 1)];
  return value;
}

}  // namespace perfbench
