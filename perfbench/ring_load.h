// Simulated clients for one Raft ring: a closed loop of sysbench-style
// writers and/or an open loop of Poisson writes and reads. Clients are
// events on the shared simulator loop, not threads. Every operation is
// retried until it succeeds or its deadline passes, and its latency is
// taken from the time it was due (open loop) or issued (closed loop), so
// a failover shows as latency rather than as dropped work. The load also
// keeps the ledger of acknowledged writes that the correctness gates
// check reads and post-crash leaders against.

#ifndef MYRAFT_PERFBENCH_RING_LOAD_H_
#define MYRAFT_PERFBENCH_RING_LOAD_H_

#include <cstdint>
#include <functional>
#include <string>
#include <unordered_map>
#include <vector>

#include "sim/client.h"
#include "sim/shard.h"
#include "util/random.h"

namespace perfbench {

/// First correctness-gate failure seen anywhere in the run ("" = none).
/// A failed gate stops the run instead of reporting numbers.
struct Gates {
  std::string failure;
  void Fail(const std::string& what) {
    if (failure.empty()) failure = what;
  }
  bool ok() const { return failure.empty(); }
};

/// One completed operation: when it finished and how long it took.
struct OpSample {
  uint64_t done_micros = 0;
  uint64_t latency_micros = 0;
};

/// One leader crash on this ring: time from the crash to the issue time
/// of the first write (and first leader read) the ring accepted after it.
struct Outage {
  uint64_t crash_micros = 0;
  uint64_t write_down_micros = 0;
  uint64_t read_down_micros = 0;
};

enum class ValueShape {
  kFixedRow,          // fixed 100 B rows, as sysbench writes
  kProductionPareto,  // bounded Pareto 64 B..8 KiB, shape 1.3
};

class RingLoad {
 public:
  /// Runs on the first write acknowledged after a crash (the new leader is
  /// serving); receives the crash time.
  using FirstWriteHook = std::function<void(uint64_t crash_micros)>;

  RingLoad(myraft::sim::Shard* shard, myraft::sim::SimClient* client,
           uint64_t seed, Gates* gates);

  RingLoad(const RingLoad&) = delete;
  RingLoad& operator=(const RingLoad&) = delete;

  /// Each Start* begins a new generation of arrivals; arrivals of an
  /// earlier generation (stopped by StopIssuing) never resume.
  /// `workers` closed-loop writers; writer w owns keys k with
  /// k % workers == w out of `key_space`, drawn uniformly, so writers
  /// never contend on a row lock.
  void StartClosedLoop(int workers, uint64_t key_space);
  /// Poisson arrivals: writes to fresh keys, and reads of acknowledged
  /// keys: three in five are leader (lease/ReadIndex) reads, two in five
  /// GTID-gated follower reads from a region that does not hold the
  /// leader.
  void StartOpenLoop(double writes_per_sec, double reads_per_sec,
                     ValueShape shape);
  /// No new operations after this; in-flight ones run to completion.
  void StopIssuing();
  uint64_t outstanding() const { return outstanding_; }

  /// Starts an outage measurement (call right before crashing the leader).
  void NoteCrash(uint64_t crash_micros, FirstWriteHook hook);

  /// Leader-ledger check: every write acknowledged before `before_micros`
  /// reads back with its value from `server`'s engine.
  bool LedgerDurableOn(myraft::server::MySqlServer* server,
                       uint64_t before_micros, std::string* missing) const;

  const std::vector<OpSample>& writes() const { return writes_; }
  const std::vector<OpSample>& reads() const { return reads_; }
  const std::vector<Outage>& outages() const { return outages_; }
  /// Logical operations started / given up after their deadline.
  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  /// Individual tries that failed and were retried.
  uint64_t retries() const { return retries_; }

 private:
  struct WriteOp {
    std::string key;
    std::string value;
    uint64_t due_micros = 0;
    int worker = -1;  // closed-loop writer, -1 = open loop
    uint64_t generation = 0;
    uint32_t tries = 0;
  };
  struct ReadOp {
    std::string key;
    std::string expected;
    uint64_t due_micros = 0;
    uint32_t tries = 0;
    myraft::sim::ClientReadOptions options;
  };
  struct LedgerEntry {
    std::string image;  // the engine's stored row, "key=value"
    uint64_t acked_micros = 0;
  };

  void IssueWrite(WriteOp op);
  void IssueRead(ReadOp op);
  void FinishWrite(const WriteOp& op, bool ok);
  bool Issuing(uint64_t generation) const {
    return issuing_ && generation == generation_;
  }
  void NextClosedLoopWrite(int worker, uint64_t generation);
  void ScheduleWriteArrival(uint64_t generation);
  void ScheduleReadArrival(uint64_t generation);
  uint64_t Backoff(uint32_t tries);
  uint64_t ExponentialMicros(double rate);
  std::string RandomValue(size_t bytes);
  size_t NextValueBytes();
  void NoteSuccessForOutage(bool write, uint64_t issued_micros);

  myraft::sim::Shard* shard_;
  myraft::sim::SimClient* client_;
  myraft::sim::EventLoop* loop_;
  myraft::Random rng_;
  Gates* gates_;

  bool issuing_ = false;
  uint64_t generation_ = 0;
  int workers_ = 0;
  uint64_t key_space_ = 0;
  double write_rate_ = 0;
  double read_rate_ = 0;
  ValueShape shape_ = ValueShape::kFixedRow;
  uint64_t next_key_ = 0;
  uint64_t reads_issued_ = 0;

  std::unordered_map<std::string, LedgerEntry> ledger_;
  std::vector<std::string> readable_keys_;  // open-loop acked keys
  uint64_t session_index_ = 0;  // highest acked raft index (read-your-writes)

  bool outage_open_ = false;
  Outage outage_;
  bool write_recovered_ = false;
  bool read_recovered_ = false;
  FirstWriteHook first_write_hook_;

  std::vector<OpSample> writes_;
  std::vector<OpSample> reads_;
  std::vector<Outage> outages_;
  uint64_t outstanding_ = 0;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
  uint64_t retries_ = 0;
};

}  // namespace perfbench

#endif  // MYRAFT_PERFBENCH_RING_LOAD_H_
