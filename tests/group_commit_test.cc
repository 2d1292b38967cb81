// Group-commit fsync coalescing (DESIGN.md §12): concurrent client
// writes arriving inside one scheduling instant share a single log
// fsync, on the leader and on inline-sync followers alike. Asserted
// against the MemEnv's WritableFile::Sync() call counter — the hardware
// truth the raft/binlog metrics must agree with — with the per-write
// inline mode as the contrast baseline.

#include <gtest/gtest.h>

#include <functional>
#include <map>
#include <string>

#include "flexiraft/flexiraft.h"
#include "server/mysql_server.h"
#include "sim/cluster.h"
#include "util/env.h"

namespace myraft::server {
namespace {

using flexiraft::FlexiRaftQuorumEngine;
using flexiraft::QuorumMode;
using sim::ClusterHarness;
using sim::ClusterOptions;
constexpr uint64_t kSecond = 1'000'000;

const raft::QuorumEngine* FlexiEngine() {
  static FlexiRaftQuorumEngine* engine =
      new FlexiRaftQuorumEngine({QuorumMode::kSingleRegionDynamic});
  return engine;
}

ClusterOptions GroupCommitOptions(uint64_t seed, bool coalesced) {
  ClusterOptions options;
  options.seed = seed;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  // The contrast baseline: defer hook still installed by the sim node,
  // but the sync stage itself disabled — every Replicate fsyncs inline.
  options.raft.group_commit_sync = coalesced;
  return options;
}

uint64_t SyncCallsOn(ClusterHarness* harness, const MemberId& id) {
  auto* fi = GetCrashFaultInjectionEnv(harness->node(id)->env());
  return fi == nullptr ? 0 : fi->SyncCalls();
}

uint64_t CounterOn(ClusterHarness* harness, const MemberId& id,
                   const std::string& name) {
  const auto* counter = harness->node(id)->metrics()->FindCounter(name);
  return counter == nullptr ? 0 : counter->value();
}

/// Issues `bursts` rounds of `width` concurrent writes (all enqueued at
/// the same virtual instant) and waits each round out. Returns the number
/// of acked writes; EXPECTs that none failed.
int RunBursts(ClusterHarness* harness, int bursts, int width) {
  int acked = 0;
  for (int b = 0; b < bursts; ++b) {
    int outstanding = 0;
    for (int w = 0; w < width; ++w) {
      const std::string key =
          "g" + std::to_string(b) + "_" + std::to_string(w);
      ++outstanding;
      harness->ClientWrite(key, "v",
                           [&outstanding, &acked](
                               const ClusterHarness::ClientWriteResult& r) {
                             --outstanding;
                             EXPECT_TRUE(r.status.ok()) << r.status;
                             if (r.status.ok()) ++acked;
                           });
    }
    const uint64_t deadline = harness->loop()->now() + 10 * kSecond;
    while (outstanding > 0 && harness->loop()->now() < deadline) {
      harness->loop()->RunFor(1'000);
    }
    EXPECT_EQ(outstanding, 0) << "burst " << b << " timed out";
  }
  return acked;
}

TEST(GroupCommitTest, EightConcurrentWritersShareFsyncs) {
  ClusterHarness harness(GroupCommitOptions(17, /*coalesced=*/true),
                         FlexiEngine());
  ASSERT_TRUE(harness.Bootstrap().ok());
  const MemberId primary = harness.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  // Warm-up write so bootstrap/promotion syncs fall outside the window.
  ASSERT_TRUE(harness.SyncWrite("warm", "up").status.ok());

  const uint64_t syncs_before = SyncCallsOn(&harness, primary);
  const int acked = RunBursts(&harness, /*bursts=*/8, /*width=*/8);
  ASSERT_EQ(acked, 64);
  const uint64_t syncs = SyncCallsOn(&harness, primary) - syncs_before;

  // The acceptance bar: well under one fsync per two committed
  // transactions on the leader. Eight writes landing in one instant
  // should share one coalesced sync (plus stray heartbeat-path syncs).
  EXPECT_LT(static_cast<double>(syncs), 0.5 * acked)
      << syncs << " fsyncs for " << acked << " writes";
  // The coalescing actually engaged, and writes genuinely shared syncs.
  EXPECT_GT(CounterOn(&harness, primary, "raft.group_syncs"), 0u);
  EXPECT_GT(CounterOn(&harness, primary, "raft.group_sync_coalesced"), 0u);
  // The binlog's own sync counter tells the same story from the log
  // abstraction's side of the adapter.
  EXPECT_LT(CounterOn(&harness, primary, "binlog.syncs"),
            static_cast<uint64_t>(acked));

  // Inline-sync followers coalesce the same way: the logtailers that ack
  // the commit quorum fsynced far fewer times than the txns they acked.
  for (const MemberId& id : harness.ids()) {
    if (id == primary || harness.node(id)->server()->engine() != nullptr) {
      continue;  // logtailers only: they see the full write stream
    }
    EXPECT_LT(SyncCallsOn(&harness, id), static_cast<uint64_t>(acked)) << id;
  }
  ASSERT_TRUE(harness.CheckReplicaConsistency());
}

TEST(GroupCommitTest, InlineModeFsyncsPerWrite) {
  // Same workload with the sync stage disabled: the leader pays at least
  // one fsync per committed write. This is the per-write regime the
  // coalescing exists to kill — and the proof the test above measures a
  // real effect rather than an artefact of the sim clock.
  ClusterHarness harness(GroupCommitOptions(17, /*coalesced=*/false),
                         FlexiEngine());
  ASSERT_TRUE(harness.Bootstrap().ok());
  const MemberId primary = harness.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(harness.SyncWrite("warm", "up").status.ok());

  const uint64_t syncs_before = SyncCallsOn(&harness, primary);
  const int acked = RunBursts(&harness, /*bursts=*/4, /*width=*/8);
  ASSERT_EQ(acked, 32);
  const uint64_t syncs = SyncCallsOn(&harness, primary) - syncs_before;
  EXPECT_GE(syncs, static_cast<uint64_t>(acked));
  EXPECT_EQ(CounterOn(&harness, primary, "raft.group_syncs"), 0u);
}

/// Sums one counter over every member of the ring.
uint64_t RingCounter(ClusterHarness* harness, const std::string& name) {
  uint64_t total = 0;
  for (const MemberId& id : harness->ids()) {
    total += CounterOn(harness, id, name);
  }
  return total;
}

/// Closed loop: `writers` clients, each issuing its next write as soon as
/// the previous one completes, until `commits` writes have completed.
/// Returns the number of acked writes; EXPECTs that none failed.
int RunClosedLoop(ClusterHarness* harness, int writers, int commits) {
  int issued = 0;
  int done = 0;
  int acked = 0;
  std::function<void()> issue = [&]() {
    if (issued >= commits) return;
    const std::string key = "c" + std::to_string(issued++);
    harness->ClientWrite(key, "v",
                         [&](const ClusterHarness::ClientWriteResult& r) {
                           ++done;
                           EXPECT_TRUE(r.status.ok()) << r.status;
                           if (r.status.ok()) ++acked;
                           issue();
                         });
  };
  for (int w = 0; w < writers; ++w) issue();
  const uint64_t deadline = harness->loop()->now() + 60 * kSecond;
  while (done < commits && harness->loop()->now() < deadline) {
    harness->loop()->RunFor(1'000);
  }
  return acked;
}

TEST(GroupCommitTest, ClosedLoopReplicationIsNotAmplified) {
  // ring_sysbench's shape: 3 regions x (db + 2 logtailers), FlexiRaft
  // single-region-dynamic, proxying on, default link jitter, and the
  // sysbench client (co-located, 195-395 us execute cost) so the eight
  // writers stagger instead of landing in one instant. Each commit should
  // reach each of the 8 followers about once; a replication window that
  // outruns the links re-streams whole windows after every reordered
  // batch instead.
  ClusterOptions options = GroupCommitOptions(1, /*coalesced=*/true);
  options.client.one_way_micros = 10;
  options.client.processing_micros = 195;
  options.client.processing_jitter_micros = 200;
  ClusterHarness harness(std::move(options), FlexiEngine());
  ASSERT_TRUE(harness.Bootstrap().ok());
  ASSERT_FALSE(harness.WaitForPrimary(30 * kSecond).empty());
  // Warm-up long enough for any per-peer window state to settle.
  ASSERT_EQ(RunClosedLoop(&harness, /*writers=*/8, /*commits=*/1000), 1000);

  const uint64_t entries_before =
      RingCounter(&harness, "raft.entries_replicated");
  const uint64_t rewinds_before = RingCounter(&harness, "raft.window_rewinds");
  const int commits = RunClosedLoop(&harness, /*writers=*/8, /*commits=*/1000);
  ASSERT_EQ(commits, 1000);
  const double followers = harness.ids().size() - 1;
  const double entries_per_commit =
      static_cast<double>(RingCounter(&harness, "raft.entries_replicated") -
                          entries_before) /
      commits;
  const double rewinds_per_commit =
      static_cast<double>(RingCounter(&harness, "raft.window_rewinds") -
                          rewinds_before) /
      commits;
  EXPECT_LE(entries_per_commit, 3 * followers);
  EXPECT_LT(rewinds_per_commit, 1.0);
  ASSERT_TRUE(harness.CheckReplicaConsistency());
}

}  // namespace
}  // namespace myraft::server
