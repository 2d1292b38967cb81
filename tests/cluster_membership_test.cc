// End-to-end membership changes on the full server stack: automation
// provisions a new process, AddMember brings it into the ring, it
// catches up and participates; RemoveMember shrinks the ring (§2.2).

#include <gtest/gtest.h>

#include "flexiraft/flexiraft.h"
#include "raft_test_harness.h"
#include "sim/cluster.h"
#include "wire/log_entry.h"
#include "wire_entries.h"

namespace myraft::sim {
namespace {

constexpr uint64_t kSecond = 1'000'000;

const raft::QuorumEngine* FlexiEngine() {
  static auto* engine = new flexiraft::FlexiRaftQuorumEngine(
      {flexiraft::QuorumMode::kSingleRegionDynamic});
  return engine;
}

TEST(ClusterMembershipTest, NewDatabaseJoinsCatchesUpAndServes) {
  ClusterOptions options;
  options.seed = 61;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  ASSERT_FALSE(cluster.WaitForPrimary(30 * kSecond).empty());

  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(cluster.SyncWrite("k" + std::to_string(i), "v").status.ok());
  }
  cluster.loop()->RunFor(2 * kSecond);

  // Automation provisions and adds a new non-voting replica first (the
  // usual safe order), in a follower region.
  MemberInfo learner{"dbnew", "region1", MemberKind::kMySql,
                     RaftMemberType::kNonVoter};
  ASSERT_TRUE(cluster.admin()->AddMember(learner).ok());
  cluster.loop()->RunFor(5 * kSecond);

  // The new member caught up from index 1 and applied everything.
  SimNode* joined = cluster.node("dbnew");
  EXPECT_EQ(joined->server()->Read("bench.kv", "k29"), "k29=v");
  EXPECT_EQ(joined->server()->consensus()->role(), RaftRole::kLearner);
  for (const MemberId& id : cluster.ids()) {
    EXPECT_TRUE(cluster.node(id)->server()->consensus()->config().Contains(
        "dbnew"))
        << id;
  }

  // Writes keep committing with the bigger ring.
  ASSERT_TRUE(cluster.SyncWrite("post-add", "v").status.ok());
  cluster.loop()->RunFor(2 * kSecond);
  EXPECT_EQ(joined->server()->Read("bench.kv", "post-add"), "post-add=v");
  EXPECT_TRUE(cluster.CheckReplicaConsistency());
}

TEST(ClusterMembershipTest, AddedLogtailerJoinsTheVoterQuorum) {
  ClusterOptions options;
  options.seed = 62;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("a", "1").status.ok());
  cluster.loop()->RunFor(2 * kSecond);

  // Add a third logtailer to the primary's region, then kill one of the
  // original two: commits must keep flowing through the new quorum.
  const RegionId home = cluster.node(primary)->region();
  MemberInfo witness{"ltnew", home, MemberKind::kLogtailer,
                     RaftMemberType::kVoter};
  ASSERT_TRUE(cluster.admin()->AddMember(witness).ok());
  cluster.loop()->RunFor(5 * kSecond);

  MemberId old_logtailer;
  for (const auto& member : cluster.config().members) {
    if (member.kind == MemberKind::kLogtailer && member.region == home &&
        member.id != "ltnew") {
      old_logtailer = member.id;
      break;
    }
  }
  ASSERT_FALSE(old_logtailer.empty());
  cluster.Crash(old_logtailer);
  // One of the remaining in-region logtailers (incl. ltnew) acks.
  auto write = cluster.SyncWrite("quorum", "holds", 3 * kSecond);
  EXPECT_TRUE(write.status.ok()) << write.status;
}

TEST(ClusterMembershipTest, RemoveMemberShrinksTheRing) {
  ClusterOptions options;
  options.seed = 63;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  options.topology.learners = 1;
  ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("a", "1").status.ok());
  cluster.loop()->RunFor(2 * kSecond);

  ASSERT_TRUE(cluster.admin()->RemoveMember("learner0").ok());
  cluster.loop()->RunFor(3 * kSecond);
  for (const MemberId& id : cluster.ids()) {
    if (id == "learner0") continue;
    EXPECT_FALSE(cluster.node(id)->server()->consensus()->config().Contains(
        "learner0"))
        << id;
  }
  // Only one change at a time (§2.2): a second change right after a
  // committed one is fine, but two concurrent ones are refused — tested
  // at the consensus level; here we just verify the ring still serves.
  ASSERT_TRUE(cluster.SyncWrite("post-remove", "v").status.ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency());
}

// ---------------------------------------------------------------------------
// Logless reconfiguration (§15): config-as-state changes that commit via the
// install quorum, never the log.

/// First logtailer in `cluster`'s config outside `region` ("" if none).
MemberId LogtailerOutsideRegion(ClusterHarness& cluster,
                                const RegionId& region) {
  for (const auto& member : cluster.config().members) {
    if (member.kind == MemberKind::kLogtailer && member.region != region) {
      return member.id;
    }
  }
  return "";
}

TEST(ClusterMembershipTest, LoglessAddMemberCommitsViaConfigQuorum) {
  ClusterOptions options;
  options.seed = 64;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("a", "1").status.ok());
  cluster.loop()->RunFor(2 * kSecond);

  raft::RaftConsensus* leader = cluster.node(primary)->server()->consensus();
  const uint64_t version_before = leader->config().config_version;

  MemberInfo learner{"dbnew", "region1", MemberKind::kMySql,
                     RaftMemberType::kNonVoter};
  ASSERT_TRUE(cluster.admin()->AddMember(learner).ok());
  cluster.loop()->RunFor(5 * kSecond);

  // The change rode the versioned-config channel, not the log: identity
  // bumped, install quorum reached, pending window closed.
  EXPECT_GT(leader->config().config_version, version_before);
  EXPECT_FALSE(leader->has_pending_config_change());
  EXPECT_TRUE(
      leader->committed_config().SameIdAs(leader->config()));
  for (const MemberId& id : cluster.ids()) {
    EXPECT_TRUE(cluster.node(id)->server()->consensus()->config().Contains(
        "dbnew"))
        << id;
  }
  ASSERT_TRUE(cluster.SyncWrite("post-add", "v").status.ok());
  cluster.loop()->RunFor(2 * kSecond);
  EXPECT_TRUE(cluster.CheckReplicaConsistency());
}

TEST(ClusterMembershipTest, LoglessConcurrentChangeIsRefused) {
  ClusterOptions options;
  options.seed = 65;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("a", "1").status.ok());
  cluster.loop()->RunFor(2 * kSecond);

  // Two distinct swap targets outside the primary's region, so neither
  // change is an idempotent no-op and neither touches the commit quorum.
  const RegionId home = cluster.node(primary)->region();
  std::vector<MemberId> targets;
  for (const auto& member : cluster.config().members) {
    if (member.kind == MemberKind::kLogtailer && member.region != home) {
      targets.push_back(member.id);
    }
  }
  ASSERT_GE(targets.size(), 2u);

  // First change opens the pending window (the install quorum can't have
  // echoed yet — the loop hasn't run); the second must be refused.
  ASSERT_TRUE(cluster.admin()
                  ->SwapMemberType(targets[0], RaftMemberType::kNonVoter)
                  .ok());
  Status second =
      cluster.admin()->SwapMemberType(targets[1], RaftMemberType::kNonVoter)
          .status;
  EXPECT_TRUE(second.IsIllegalState()) << second;

  // Once the first change commits, the second goes through.
  cluster.loop()->RunFor(5 * kSecond);
  raft::RaftConsensus* leader = cluster.node(primary)->server()->consensus();
  EXPECT_FALSE(leader->has_pending_config_change());
  ASSERT_TRUE(cluster.admin()
                  ->SwapMemberType(targets[1], RaftMemberType::kNonVoter)
                  .ok());
  cluster.loop()->RunFor(5 * kSecond);
  EXPECT_FALSE(leader->has_pending_config_change());
  ASSERT_TRUE(cluster.SyncWrite("post", "v").status.ok());
}

TEST(ClusterMembershipTest, VoterWitnessSwapRoundTrip) {
  ClusterOptions options;
  options.seed = 66;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("a", "1").status.ok());
  cluster.loop()->RunFor(2 * kSecond);

  const MemberId target =
      LogtailerOutsideRegion(cluster, cluster.node(primary)->region());
  ASSERT_FALSE(target.empty());

  // Voter -> witness: every node converges on the demoted type.
  ASSERT_TRUE(
      cluster.admin()->SwapMemberType(target, RaftMemberType::kNonVoter).ok());
  cluster.loop()->RunFor(5 * kSecond);
  for (const MemberId& id : cluster.ids()) {
    const MemberInfo* info =
        cluster.node(id)->server()->consensus()->config().Find(target);
    ASSERT_NE(info, nullptr) << id;
    EXPECT_EQ(info->type, RaftMemberType::kNonVoter) << id;
  }

  // Witness -> voter: and back.
  ASSERT_TRUE(
      cluster.admin()->SwapMemberType(target, RaftMemberType::kVoter).ok());
  cluster.loop()->RunFor(5 * kSecond);
  for (const MemberId& id : cluster.ids()) {
    const MemberInfo* info =
        cluster.node(id)->server()->consensus()->config().Find(target);
    ASSERT_NE(info, nullptr) << id;
    EXPECT_EQ(info->type, RaftMemberType::kVoter) << id;
  }
  ASSERT_TRUE(cluster.SyncWrite("post-swap", "v").status.ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency());
}

TEST(ClusterMembershipTest, RemovedVoterInstallsFarewellAndParks) {
  ClusterOptions options;
  options.seed = 67;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("a", "1").status.ok());
  cluster.loop()->RunFor(2 * kSecond);

  const MemberId removed =
      LogtailerOutsideRegion(cluster, cluster.node(primary)->region());
  ASSERT_FALSE(removed.empty());
  ASSERT_TRUE(cluster.admin()->RemoveMember(removed).ok());

  // Long enough for many election timeouts: a removed node that never
  // learned of its removal would campaign here and inflate terms.
  cluster.loop()->RunFor(15 * kSecond);

  raft::RaftConsensus* gone = cluster.node(removed)->server()->consensus();
  // The farewell heartbeat delivered the config in which it is absent...
  EXPECT_FALSE(gone->config().Contains(removed));
  // ...so it parked: following, not campaigning, terms quiet.
  EXPECT_EQ(gone->role(), RaftRole::kFollower);
  raft::RaftConsensus* leader = cluster.node(primary)->server()->consensus();
  EXPECT_LE(gone->term(), leader->term());
  for (const MemberId& id : cluster.ids()) {
    if (id == removed) continue;
    EXPECT_FALSE(cluster.node(id)->server()->consensus()->config().Contains(
        removed))
        << id;
  }
  ASSERT_TRUE(cluster.SyncWrite("post-remove", "v").status.ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency());
}

TEST(ClusterMembershipTest, ReconfigRacingLeaderTransferStaysSafe) {
  ClusterOptions options;
  options.seed = 68;
  options.topology.db_regions = 3;
  options.topology.logtailers_per_db = 2;
  ClusterHarness cluster(options, FlexiEngine());
  ASSERT_TRUE(cluster.Bootstrap().ok());
  const MemberId primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(primary.empty());
  ASSERT_TRUE(cluster.SyncWrite("a", "1").status.ok());
  cluster.loop()->RunFor(2 * kSecond);

  // A database voter in another region to hand leadership to, and a
  // logtailer to demote, mid-handoff.
  MemberId transfer_target;
  for (const auto& member : cluster.config().members) {
    if (member.kind == MemberKind::kMySql && member.is_voter() &&
        member.id != primary) {
      transfer_target = member.id;
      break;
    }
  }
  ASSERT_FALSE(transfer_target.empty());
  const MemberId demote_target =
      LogtailerOutsideRegion(cluster, cluster.node(primary)->region());
  ASSERT_FALSE(demote_target.empty());

  raft::RaftConsensus* old_leader =
      cluster.node(primary)->server()->consensus();
  ASSERT_TRUE(old_leader->TransferLeadership(transfer_target).ok());
  // The reconfig races the in-flight transfer: both orders are legal, the
  // change may land on either side of the handoff or be refused — what
  // must hold is that the ring converges on one leader and one config.
  Status racing =
      cluster.admin()
          ->SwapMemberType(demote_target, RaftMemberType::kNonVoter)
          .status;
  EXPECT_TRUE(racing.ok() || racing.IsIllegalState() ||
              racing.IsServiceUnavailable())
      << racing;

  cluster.loop()->RunFor(10 * kSecond);
  const MemberId new_primary = cluster.WaitForPrimary(30 * kSecond);
  ASSERT_FALSE(new_primary.empty());
  raft::RaftConsensus* leader =
      cluster.node(new_primary)->server()->consensus();
  EXPECT_FALSE(leader->has_pending_config_change());
  // Every node ends on the leader's exact config identity.
  for (const MemberId& id : cluster.ids()) {
    raft::RaftConsensus* c = cluster.node(id)->server()->consensus();
    EXPECT_TRUE(c->config().SameIdAs(leader->config())) << id;
  }
  ASSERT_TRUE(cluster.SyncWrite("post-race", "v").status.ok());
  EXPECT_TRUE(cluster.CheckReplicaConsistency());
}

// ---------------------------------------------------------------------------
// Config vs log independence (§15 bug crop, ported from the retired
// log-entry path): truncation never rolls a config back, a new leader's
// term rebase is what supersedes a deposed leader's uncommitted config, and
// a pending change closes every membership entry point. Hand-driven through
// the raft_test harness so message timing is exact.

using raft_test::RaftTestCluster;

raft::MajorityQuorumEngine* Majority() {
  static auto* engine = new raft::MajorityQuorumEngine();
  return engine;
}

LogEntry Txn(uint64_t term, uint64_t index) {
  return LogEntry::Make({term, index}, EntryType::kTransaction, "txn");
}

AppendEntriesRequest Append(const MemberId& leader, const MemberId& dest,
                            uint64_t term, OpId prev,
                            std::vector<LogEntry> entries,
                            const MembershipConfig* config = nullptr) {
  AppendEntriesRequest request;
  request.leader = leader;
  request.dest = dest;
  request.term = term;
  request.prev = prev;
  request.commit_marker = kZeroOpId;  // nothing committed: all divergent
  request.entries = WireForm(std::move(entries));
  if (config != nullptr) {
    EncodeMembershipConfig(*config, &request.config_payload);
  }
  return request;
}

/// Three passive nodes (election timers effectively off) so a test can act
/// as the leader and drive one follower with hand-crafted batches.
raft::RaftOptions PassiveOptions() {
  raft::RaftOptions options;
  options.heartbeat_interval_micros = 1'000'000'000'000;  // never campaign
  return options;
}

TEST(ClusterMembershipTest, DivergentSuffixOverwriteLeavesInstalledConfig) {
  RaftTestCluster nodes(69);
  nodes.AddMemberSpec("f", "r0");
  nodes.AddMemberSpec("ldr", "r0");
  nodes.AddMemberSpec("x", "r1");
  nodes.StartAll(Majority(), PassiveOptions());
  raft::RaftConsensus* f = nodes.node("f")->consensus();
  const MembershipConfig base = f->config();

  // A term-2 leader installs an uncommitted config (base+d) on f while
  // shipping a three-entry suffix that will turn out divergent.
  MembershipConfig with_d = base;
  with_d.members.push_back({"d", "r1", MemberKind::kMySql,
                            RaftMemberType::kVoter});
  with_d.config_term = 2;
  with_d.config_version = base.config_version + 1;
  nodes.node("f")->Deliver(Message(Append(
      "ldr", "f", 2, kZeroOpId,
      {LogEntry::Make({2, 1}, EntryType::kNoOp, ""), Txn(2, 2), Txn(2, 3)},
      &with_d)));
  ASSERT_EQ(f->last_logged(), (OpId{2, 3}));
  ASSERT_TRUE(f->config().Contains("d"));
  ASSERT_TRUE(f->config().SameIdAs(with_d));
  ASSERT_FALSE(f->committed_config().Contains("d"));
  ASSERT_TRUE(f->has_pending_config_change());

  // A term-3 leader overwrites index 3, then the suffix from index 2. The
  // config is state, not a log entry: neither truncation touches it (the
  // retired log path had to re-derive it from the surviving suffix and
  // got stacked entries wrong).
  nodes.node("f")->Deliver(
      Message(Append("x", "f", 3, {2, 2}, {Txn(3, 3)})));
  ASSERT_EQ(f->last_logged(), (OpId{3, 3}));
  EXPECT_TRUE(f->config().SameIdAs(with_d));
  EXPECT_TRUE(f->config().Contains("d"));
  EXPECT_TRUE(f->has_pending_config_change());

  nodes.node("f")->Deliver(
      Message(Append("x", "f", 3, {2, 1}, {Txn(3, 2)})));
  ASSERT_EQ(f->last_logged(), (OpId{3, 2}));
  EXPECT_EQ(nodes.node("f")->truncations_, 2);
  EXPECT_TRUE(f->config().SameIdAs(with_d));
  EXPECT_TRUE(f->config().Contains("d"));
  EXPECT_TRUE(f->has_pending_config_change());

  // Crash/restart recovers the same installed config and pendingness from
  // the metadata store: a rejoined follower acts on what it echoed.
  nodes.Crash("f");
  nodes.Restart("f");
  f = nodes.node("f")->consensus();
  EXPECT_EQ(f->last_logged(), (OpId{3, 2}));
  EXPECT_TRUE(f->config().SameIdAs(with_d));
  EXPECT_TRUE(f->config().Contains("d"));
  EXPECT_FALSE(f->committed_config().Contains("d"));
  EXPECT_TRUE(f->has_pending_config_change());
}

TEST(ClusterMembershipTest, NewLeaderRebaseSupersedesDeposedLeadersConfig) {
  RaftTestCluster nodes(70);
  nodes.AddMemberSpec("a", "r0");
  nodes.AddMemberSpec("b", "r0");
  nodes.AddMemberSpec("c", "r1");
  nodes.StartAll(Majority());
  const MemberId old_id = nodes.WaitForLeader(30 * kSecond);
  ASSERT_FALSE(old_id.empty());
  raft::RaftConsensus* old_leader = nodes.node(old_id)->consensus();
  ASSERT_TRUE(nodes.WaitForCommit(old_id, old_leader->last_logged(),
                                  10 * kSecond));
  ASSERT_FALSE(old_leader->has_pending_config_change());

  // Cut the leader off, then propose: the new config can never gather its
  // install quorum, so it stays pending on the deposed leader alone.
  for (const MemberId& id : nodes.ids()) {
    if (id != old_id) nodes.network()->SetLinkCut(old_id, id, true);
  }
  ASSERT_TRUE(old_leader
                  ->AddMember({"d", "r1", MemberKind::kMySql,
                               RaftMemberType::kVoter})
                  .ok());
  const MembershipConfig orphan = old_leader->config();
  ASSERT_TRUE(orphan.Contains("d"));
  ASSERT_TRUE(old_leader->has_pending_config_change());

  // The majority side elects a successor, which rebases the config it
  // holds (without d) onto its own higher term and commits it.
  MemberId new_id;
  const uint64_t deadline = nodes.loop()->now() + 30 * kSecond;
  while (nodes.loop()->now() < deadline && new_id.empty()) {
    nodes.loop()->RunFor(100'000);
    for (const MemberId& id : nodes.ids()) {
      raft::RaftConsensus* c = nodes.node(id)->consensus();
      if (id != old_id && c->role() == RaftRole::kLeader &&
          !c->has_pending_config_change()) {
        new_id = id;
      }
    }
  }
  ASSERT_FALSE(new_id.empty());
  raft::RaftConsensus* new_leader = nodes.node(new_id)->consensus();
  EXPECT_GT(new_leader->config().config_term, orphan.config_term);
  EXPECT_FALSE(new_leader->config().Contains("d"));

  // Heal: the rebased identity dominates the orphan's higher version, so
  // the deposed leader steps down and installs it over its own config.
  nodes.network()->HealAllFaults();
  const uint64_t heal_deadline = nodes.loop()->now() + 10 * kSecond;
  while (nodes.loop()->now() < heal_deadline &&
         !old_leader->config().SameIdAs(new_leader->config())) {
    nodes.loop()->RunFor(100'000);
  }
  EXPECT_EQ(old_leader->role(), RaftRole::kFollower);
  EXPECT_TRUE(old_leader->config().SameIdAs(new_leader->config()));
  EXPECT_TRUE(new_leader->config().IdIsNewerThan(orphan));
  for (const MemberId& id : nodes.ids()) {
    EXPECT_FALSE(nodes.node(id)->consensus()->config().Contains("d")) << id;
  }
  EXPECT_FALSE(new_leader->has_pending_config_change());

  // Followers learn commitment from the leader too: within a few
  // heartbeats every node, the deposed leader included, reports the
  // rebased config committed and nothing pending.
  auto all_committed = [&] {
    for (const MemberId& id : nodes.ids()) {
      if (nodes.node(id)->consensus()->has_pending_config_change()) {
        return false;
      }
    }
    return true;
  };
  const uint64_t commit_deadline = nodes.loop()->now() + 5 * kSecond;
  while (nodes.loop()->now() < commit_deadline && !all_committed()) {
    nodes.loop()->RunFor(100'000);
  }
  for (const MemberId& id : nodes.ids()) {
    raft::RaftConsensus* c = nodes.node(id)->consensus();
    EXPECT_TRUE(c->committed_config().SameIdAs(new_leader->config())) << id;
    EXPECT_FALSE(c->has_pending_config_change()) << id;
    EXPECT_NE(c->DebugStatus().ToJson().find("\"config_committed\":true"),
              std::string::npos)
        << id << ": " << c->DebugStatus().ToJson();
  }
}

TEST(ClusterMembershipTest, PendingChangeClosesEveryMembershipEntryPoint) {
  RaftTestCluster nodes(71);
  nodes.AddMemberSpec("a", "r0");
  nodes.AddMemberSpec("b", "r0");
  nodes.AddMemberSpec("c", "r1");
  nodes.StartAll(Majority());
  const MemberId leader_id = nodes.WaitForLeader(30 * kSecond);
  ASSERT_FALSE(leader_id.empty());
  raft::RaftConsensus* leader = nodes.node(leader_id)->consensus();
  ASSERT_TRUE(
      nodes.WaitForCommit(leader_id, leader->last_logged(), 10 * kSecond));

  // Open the pending window with a real AddMember, then try every other
  // entry point before the loop can commit it. None may stack a second
  // uncommitted config on top of the pending one.
  ASSERT_TRUE(leader
                  ->AddMember({"d", "r2", MemberKind::kMySql,
                               RaftMemberType::kVoter})
                  .ok());
  ASSERT_TRUE(leader->has_pending_config_change());
  const MembershipConfig pending = leader->config();
  const MemberId follower = leader_id == "a" ? "b" : "a";
  const Status refused[] = {
      leader->AddMember({"e", "r2", MemberKind::kMySql,
                         RaftMemberType::kVoter}),
      leader->RemoveMember(follower),
      leader->SetMemberType(follower, RaftMemberType::kNonVoter),
      leader->SetQuorumSpec("majority"),
  };
  for (const Status& s : refused) {
    EXPECT_TRUE(s.IsIllegalState()) << s;
  }
  EXPECT_TRUE(leader->config() == pending);

  // The legitimate change still commits cleanly on every voter.
  const uint64_t deadline = nodes.loop()->now() + 30 * kSecond;
  while (nodes.loop()->now() < deadline &&
         leader->has_pending_config_change()) {
    nodes.loop()->RunFor(100'000);
  }
  EXPECT_FALSE(leader->has_pending_config_change());
  for (const MemberId& id : {MemberId("a"), MemberId("b"), MemberId("c")}) {
    EXPECT_TRUE(nodes.node(id)->consensus()->config().Contains("d")) << id;
    EXPECT_FALSE(nodes.node(id)->consensus()->config().Contains("e")) << id;
  }
}

}  // namespace
}  // namespace myraft::sim
