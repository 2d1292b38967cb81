// Message-level unit tests for RaftConsensus: a single instance driven by
// hand-crafted RPCs through a capturing outbox, covering protocol edge
// cases that are hard to hit deterministically in cluster tests.

#include <gtest/gtest.h>

#include "raft/consensus.h"
#include "util/logging.h"
#include "wire_entries.h"

namespace myraft::raft {
namespace {

class CapturingOutbox final : public RaftOutbox {
 public:
  void Send(Message message) override { sent.push_back(std::move(message)); }

  template <typename T>
  std::vector<T> OfType() const {
    std::vector<T> out;
    for (const auto& m : sent) {
      if (const T* typed = std::get_if<T>(&m)) out.push_back(*typed);
    }
    return out;
  }

  template <typename T>
  T Last() const {
    auto all = OfType<T>();
    MYRAFT_CHECK(!all.empty());
    return all.back();
  }

  std::vector<Message> sent;
};

/// LogAbstraction wrapper injecting Append/Sync faults into a real log,
/// for the mid-batch-failure and durability-reporting regression tests.
class FaultyLog final : public LogAbstraction {
 public:
  explicit FaultyLog(LogAbstraction* base) : base_(base) {}

  /// -1 = healthy; N >= 0 = the next N appends succeed, then all appends
  /// fail until the test resets this.
  int fail_append_countdown = -1;
  bool fail_sync = false;

  Status Append(const LogEntry& entry) override {
    if (fail_append_countdown == 0) {
      return Status::IoError("injected append fault");
    }
    if (fail_append_countdown > 0) --fail_append_countdown;
    return base_->Append(entry);
  }
  Status Sync() override {
    if (fail_sync) return Status::IoError("injected sync fault");
    return base_->Sync();
  }
  Result<LogEntry> Read(uint64_t index) const override {
    return base_->Read(index);
  }
  Result<std::vector<LogEntry>> ReadBatch(uint64_t first_index,
                                          size_t max_entries,
                                          uint64_t max_bytes) const override {
    return base_->ReadBatch(first_index, max_entries, max_bytes);
  }
  Result<OpId> OpIdAt(uint64_t index) const override {
    return base_->OpIdAt(index);
  }
  OpId LastOpId() const override { return base_->LastOpId(); }
  uint64_t FirstIndex() const override { return base_->FirstIndex(); }
  bool HasEntry(uint64_t index) const override {
    return base_->HasEntry(index);
  }
  Status TruncateAfter(uint64_t index) override {
    return base_->TruncateAfter(index);
  }

 private:
  LogAbstraction* base_;
};

class RecordingListener final : public StateMachineListener {
 public:
  void OnLeadershipAcquired(uint64_t term, OpId noop) override {
    ++acquired;
  }
  void OnLeadershipLost(uint64_t term) override { ++lost; }
  void OnCommitAdvanced(OpId marker) override { last_commit = marker; }
  void OnEntryAppended(const LogEntry& entry) override { ++appended; }
  void OnSuffixTruncated(OpId new_last) override { ++truncated; }

  int acquired = 0;
  int lost = 0;
  int appended = 0;
  int truncated = 0;
  OpId last_commit;
};

class ConsensusUnitTest : public ::testing::Test {
 protected:
  void SetUp() override {
    env_ = NewMemEnv();
    meta_store_ =
        std::make_unique<ConsensusMetadataStore>(env_.get(), "/cmeta");
    RaftOptions options;
    options.self = "a";
    options.region = "r0";
    options.enable_pre_vote = false;  // direct elections in unit tests
    consensus_ = std::make_unique<RaftConsensus>(
        options, &faulty_log_, &quorum_, meta_store_.get(), &clock_, &rng_,
        &outbox_, &listener_);
    MembershipConfig config;
    config.members = {
        {"a", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
        {"b", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
        {"c", "r1", MemberKind::kMySql, RaftMemberType::kVoter},
    };
    ASSERT_TRUE(consensus_->Bootstrap(config).ok());
  }

  /// Drives `a` to leadership of term 1 by granting b's vote.
  void BecomeLeader() {
    ASSERT_TRUE(
        consensus_->StartElection(ElectionMode::kRealElection).ok());
    VoteResponse grant;
    grant.from = "b";
    grant.dest = "a";
    grant.term = consensus_->term();
    grant.granted = true;
    consensus_->HandleMessage(Message(grant));
    ASSERT_EQ(consensus_->role(), RaftRole::kLeader);
    outbox_.sent.clear();
  }

  /// A candidate campaigning on the voter's own config identity, so the
  /// "stale-config" check passes and the other vote rules decide.
  void StampVoterConfig(VoteRequest* request) const {
    request->config_term = consensus_->config().config_term;
    request->config_version = consensus_->config().config_version;
  }

  AppendEntriesRequest MakeAppend(uint64_t term, OpId prev,
                                  std::vector<LogEntry> entries,
                                  OpId commit = kZeroOpId,
                                  const MemberId& leader = "b") {
    AppendEntriesRequest request;
    request.leader = leader;
    request.dest = "a";
    request.term = term;
    request.prev = prev;
    request.commit_marker = commit;
    request.entries = WireForm(std::move(entries));
    return request;
  }

  LogEntry E(uint64_t term, uint64_t index, const std::string& payload) {
    return LogEntry::Make({term, index}, EntryType::kNoOp, payload);
  }

  /// Rebuilds `consensus_` with LeaseGuard leases on (fresh meta dir,
  /// same log/clock/outbox). Call before any appends.
  void EnableLeases(uint64_t duration_micros = 1'200'000,
                    uint64_t margin_micros = 100'000) {
    RaftOptions options;
    options.self = "a";
    options.region = "r0";
    // Leases require pre-vote (Start() rejects the combination); tests
    // still elect directly via StartElection(kRealElection).
    options.enable_pre_vote = true;
    options.enable_leader_leases = true;
    options.lease_duration_micros = duration_micros;
    options.lease_drift_margin_micros = margin_micros;
    lease_meta_store_ =
        std::make_unique<ConsensusMetadataStore>(env_.get(), "/cmeta-lease");
    consensus_ = std::make_unique<RaftConsensus>(
        options, &faulty_log_, &quorum_, lease_meta_store_.get(), &clock_,
        &rng_, &outbox_, &listener_);
    MembershipConfig config;
    config.members = {
        {"a", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
        {"b", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
        {"c", "r1", MemberKind::kMySql, RaftMemberType::kVoter},
    };
    ASSERT_TRUE(consensus_->Bootstrap(config).ok());
  }

  /// Durable ack of the leader's whole log from `peer`, echoing
  /// `lease_echo_micros` (0 = no echo, e.g. a pre-lease follower).
  void AckAll(const MemberId& peer, uint64_t lease_echo_micros) {
    AppendEntriesResponse ack;
    ack.from = peer;
    ack.dest = "a";
    ack.term = consensus_->term();
    ack.success = true;
    ack.last_received = consensus_->last_logged();
    ack.last_durable_index = ack.last_received.index;
    ack.lease_granted_micros = lease_echo_micros;
    consensus_->HandleMessage(Message(ack));
  }

  /// Heartbeats all peers and returns the send timestamp the requests
  /// were lease-stamped with.
  uint64_t SendStampedHeartbeats() {
    clock_.AdvanceMicros(600'000);  // > heartbeat interval
    outbox_.sent.clear();
    consensus_->Tick();
    const auto request = outbox_.Last<AppendEntriesRequest>();
    EXPECT_EQ(request.lease_sent_micros, clock_.NowMicros());
    return request.lease_sent_micros;
  }

  ManualClock clock_;
  Random rng_{1};
  std::unique_ptr<Env> env_;
  std::unique_ptr<ConsensusMetadataStore> meta_store_;
  std::unique_ptr<ConsensusMetadataStore> lease_meta_store_;
  MemLog log_;
  FaultyLog faulty_log_{&log_};
  MajorityQuorumEngine quorum_;
  CapturingOutbox outbox_;
  RecordingListener listener_;
  std::unique_ptr<RaftConsensus> consensus_;
};

TEST_F(ConsensusUnitTest, StaleTermAppendRejected) {
  consensus_->HandleMessage(
      Message(MakeAppend(1, kZeroOpId, {E(1, 1, "x")})));
  ASSERT_EQ(consensus_->term(), 1u);
  // A lower-term append is rejected with our current term.
  outbox_.sent.clear();
  consensus_->HandleMessage(
      Message(MakeAppend(0, kZeroOpId, {E(0, 1, "y")})));
  auto response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_FALSE(response.success);
  EXPECT_EQ(response.term, 1u);
}

TEST_F(ConsensusUnitTest, DuplicateAppendIsIdempotent) {
  const auto request = MakeAppend(1, kZeroOpId, {E(1, 1, "x"), E(1, 2, "y")});
  consensus_->HandleMessage(Message(request));
  const int appended_before = listener_.appended;
  consensus_->HandleMessage(Message(request));  // replayed RPC
  EXPECT_EQ(listener_.appended, appended_before);
  EXPECT_EQ(consensus_->last_logged(), (OpId{1, 2}));
  auto response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_TRUE(response.success);
  EXPECT_EQ(response.last_received, (OpId{1, 2}));
}

TEST_F(ConsensusUnitTest, MissingPrevAsksForRewind) {
  consensus_->HandleMessage(
      Message(MakeAppend(1, OpId{1, 5}, {E(1, 6, "future")})));
  auto response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_FALSE(response.success);
  EXPECT_EQ(response.last_received, kZeroOpId);  // hint: our last
}

TEST_F(ConsensusUnitTest, ConflictingSuffixTruncatedAndReplaced) {
  consensus_->HandleMessage(Message(
      MakeAppend(1, kZeroOpId, {E(1, 1, "a"), E(1, 2, "old"), E(1, 3, "old")})));
  // New leader at term 2 overwrites indexes 2-3.
  consensus_->HandleMessage(
      Message(MakeAppend(2, OpId{1, 1}, {E(2, 2, "new")}, kZeroOpId, "c")));
  EXPECT_EQ(listener_.truncated, 1);
  EXPECT_EQ(consensus_->last_logged(), (OpId{2, 2}));
  auto entry = log_.Read(2);
  ASSERT_TRUE(entry.ok());
  EXPECT_EQ(entry->payload, "new");
  EXPECT_FALSE(log_.Read(3).ok());
}

TEST_F(ConsensusUnitTest, MidBatchAppendFailureReportsRealTail) {
  // Regression: a mid-batch AppendToLocalLog failure used to fall through
  // to the success response, acking entries the follower never wrote; the
  // leader then advanced next_index past them and the ring lost data.
  faulty_log_.fail_append_countdown = 1;  // entry 1 lands, entry 2 fails
  consensus_->HandleMessage(Message(MakeAppend(
      1, kZeroOpId, {E(1, 1, "a"), E(1, 2, "b"), E(1, 3, "c")})));
  auto response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_FALSE(response.success);
  EXPECT_EQ(response.last_received, (OpId{1, 1}));  // real appended tail
  EXPECT_EQ(response.last_durable_index, 1u);  // the partial prefix synced
  EXPECT_FALSE(log_.HasEntry(2));
  EXPECT_FALSE(log_.HasEntry(3));

  // The leader rewinds to the hinted tail and retries; once the log
  // heals, the remainder lands and the tail catches up.
  faulty_log_.fail_append_countdown = -1;
  consensus_->HandleMessage(
      Message(MakeAppend(1, OpId{1, 1}, {E(1, 2, "b"), E(1, 3, "c")})));
  response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_TRUE(response.success);
  EXPECT_EQ(response.last_received, (OpId{1, 3}));
  EXPECT_EQ(response.last_durable_index, 3u);
}

TEST_F(ConsensusUnitTest, UnsyncedEntriesNeverReportedDurable) {
  // Regression: responses used to report last_durable_index =
  // last_received.index even when Sync() had not succeeded, so the leader
  // could count a received-but-unfsynced suffix towards the commit quorum
  // — entries a crash in that window would erase.
  faulty_log_.fail_sync = true;
  consensus_->HandleMessage(
      Message(MakeAppend(1, kZeroOpId, {E(1, 1, "a"), E(1, 2, "b")})));
  auto response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_FALSE(response.success);  // sync failure is not an ack
  EXPECT_EQ(response.last_received, (OpId{1, 2}));  // entries are in the log
  EXPECT_EQ(response.last_durable_index, 0u);       // but none are durable

  // Rejections advertise only the synced tail too.
  outbox_.sent.clear();
  consensus_->HandleMessage(
      Message(MakeAppend(0, kZeroOpId, {E(0, 1, "stale")})));
  response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_FALSE(response.success);
  EXPECT_EQ(response.last_durable_index, 0u);

  // Once fsync heals, even an empty heartbeat flushes the unsynced tail
  // and durability catches up to the log.
  faulty_log_.fail_sync = false;
  outbox_.sent.clear();
  consensus_->HandleMessage(Message(MakeAppend(1, OpId{1, 2}, {})));
  response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_TRUE(response.success);
  EXPECT_EQ(response.last_received, (OpId{1, 2}));
  EXPECT_EQ(response.last_durable_index, 2u);
}

TEST_F(ConsensusUnitTest, LeaderIgnoresUndurableAcksForCommit) {
  // The leader's match_index must track what followers have fsynced, not
  // what they have merely received.
  BecomeLeader();
  auto opid = consensus_->Replicate(EntryType::kNoOp, "payload");
  ASSERT_TRUE(opid.ok());

  AppendEntriesResponse ack;
  ack.from = "b";
  ack.dest = "a";
  ack.term = consensus_->term();
  ack.success = true;
  ack.last_received = *opid;
  ack.last_durable_index = 0;  // received, not yet fsynced
  consensus_->HandleMessage(Message(ack));
  EXPECT_FALSE(consensus_->IsCommitted(*opid));

  ack.last_durable_index = opid->index;
  consensus_->HandleMessage(Message(ack));
  EXPECT_TRUE(consensus_->IsCommitted(*opid));
}

TEST_F(ConsensusUnitTest, CorruptEntryFromLeaderRejected) {
  LogEntry bad = E(1, 1, "payload");
  bad.payload[0] = 'X';  // breaks the checksum
  consensus_->HandleMessage(Message(MakeAppend(1, kZeroOpId, {bad})));
  auto response = outbox_.Last<AppendEntriesResponse>();
  EXPECT_FALSE(response.success);
  EXPECT_EQ(consensus_->last_logged(), kZeroOpId);
}

TEST_F(ConsensusUnitTest, CommitMarkerNeverExceedsLocalLog) {
  consensus_->HandleMessage(Message(
      MakeAppend(1, kZeroOpId, {E(1, 1, "x")}, /*commit=*/OpId{1, 10})));
  EXPECT_EQ(consensus_->commit_marker(), (OpId{1, 1}));
  EXPECT_EQ(listener_.last_commit, (OpId{1, 1}));
}

TEST_F(ConsensusUnitTest, CommitMarkerMonotonic) {
  consensus_->HandleMessage(Message(
      MakeAppend(1, kZeroOpId, {E(1, 1, "x"), E(1, 2, "y")}, OpId{1, 2})));
  EXPECT_EQ(consensus_->commit_marker().index, 2u);
  // A heartbeat with an older marker must not regress it.
  consensus_->HandleMessage(
      Message(MakeAppend(1, OpId{1, 2}, {}, OpId{1, 1})));
  EXPECT_EQ(consensus_->commit_marker().index, 2u);
}

TEST_F(ConsensusUnitTest, VoteDeniedToStaleLogAndPersisted) {
  consensus_->HandleMessage(
      Message(MakeAppend(1, kZeroOpId, {E(1, 1, "x")})));
  outbox_.sent.clear();

  // Candidate with an up-to-date log but a superseded config identity at
  // a higher term: term adopted, vote denied on the config check, and no
  // vote recorded.
  VoteRequest request;
  request.candidate = "b";
  request.dest = "a";
  request.term = 5;
  request.last_log = {1, 1};
  request.candidate_region = "r0";
  consensus_->HandleMessage(Message(request));
  auto response = outbox_.Last<VoteResponse>();
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "stale-config");
  EXPECT_EQ(consensus_->term(), 5u);

  // Candidate with an empty log (and our config): vote denied on the log
  // check.
  request.candidate = "c";
  request.last_log = kZeroOpId;
  request.candidate_region = "r1";
  StampVoterConfig(&request);
  consensus_->HandleMessage(Message(request));
  response = outbox_.Last<VoteResponse>();
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "stale-log");
  EXPECT_EQ(consensus_->term(), 5u);

  // An up-to-date candidate at the same term gets the vote...
  request.candidate = "b";
  request.last_log = {1, 1};
  consensus_->HandleMessage(Message(request));
  response = outbox_.Last<VoteResponse>();
  EXPECT_TRUE(response.granted);

  // ...and the vote binds within the term, including across restart.
  request.candidate = "c";
  consensus_->HandleMessage(Message(request));
  response = outbox_.Last<VoteResponse>();
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "already-voted");

  RaftOptions options;
  options.self = "a";
  options.region = "r0";
  RaftConsensus restarted(options, &log_, &quorum_, meta_store_.get(),
                          &clock_, &rng_, &outbox_, &listener_);
  ASSERT_TRUE(restarted.Start().ok());
  EXPECT_EQ(restarted.term(), 5u);
  outbox_.sent.clear();
  restarted.HandleMessage(Message(request));  // c again at term 5
  response = outbox_.Last<VoteResponse>();
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "already-voted");
}

TEST_F(ConsensusUnitTest, PreVoteDoesNotDisturbState) {
  consensus_->HandleMessage(
      Message(MakeAppend(3, kZeroOpId, {E(3, 1, "x")})));
  outbox_.sent.clear();

  VoteRequest pre;
  pre.candidate = "c";
  pre.dest = "a";
  pre.term = 4;
  pre.last_log = {3, 1};
  pre.pre_vote = true;
  StampVoterConfig(&pre);
  consensus_->HandleMessage(Message(pre));
  auto response = outbox_.Last<VoteResponse>();
  // Leader "b" is fresh: stickiness denies the pre-vote.
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "leader-alive");
  EXPECT_EQ(consensus_->term(), 3u);  // no term churn

  // Once the leader has been silent past the election timeout, the
  // pre-vote is granted — still without touching the term.
  clock_.AdvanceMicros(10'000'000);
  consensus_->HandleMessage(Message(pre));
  response = outbox_.Last<VoteResponse>();
  EXPECT_TRUE(response.granted);
  EXPECT_EQ(consensus_->term(), 3u);
}

TEST_F(ConsensusUnitTest, LeaderCommitsViaMajorityAcks) {
  BecomeLeader();
  auto opid = consensus_->Replicate(EntryType::kNoOp, "payload");
  ASSERT_TRUE(opid.ok());
  EXPECT_FALSE(consensus_->IsCommitted(*opid));

  AppendEntriesResponse ack;
  ack.from = "b";
  ack.dest = "a";
  ack.term = consensus_->term();
  ack.success = true;
  ack.last_received = *opid;
  ack.last_durable_index = opid->index;
  consensus_->HandleMessage(Message(ack));
  EXPECT_TRUE(consensus_->IsCommitted(*opid));  // a + b = 2 of 3
  EXPECT_EQ(listener_.last_commit, *opid);
}

TEST_F(ConsensusUnitTest, LeaderStepsDownOnHigherTermResponse) {
  BecomeLeader();
  AppendEntriesResponse response;
  response.from = "b";
  response.dest = "a";
  response.term = consensus_->term() + 3;
  response.success = false;
  consensus_->HandleMessage(Message(response));
  EXPECT_EQ(consensus_->role(), RaftRole::kFollower);
  EXPECT_EQ(listener_.lost, 1);
  EXPECT_EQ(consensus_->term(), 4u);
  // Replicate is now rejected.
  EXPECT_FALSE(consensus_->Replicate(EntryType::kNoOp, "x").ok());
}

TEST_F(ConsensusUnitTest, LeaderRewindsNextIndexOnFailure) {
  BecomeLeader();
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(consensus_->Replicate(EntryType::kNoOp, "e").ok());
  }
  // b claims it is caught up to index 4 (leader advances next to 5)...
  AppendEntriesResponse ack;
  ack.from = "b";
  ack.dest = "a";
  ack.term = consensus_->term();
  ack.success = true;
  ack.last_received = {1, 4};
  consensus_->HandleMessage(Message(ack));
  // ...then fails a subsequent append, hinting its log really ends at 2.
  AppendEntriesResponse nack = ack;
  nack.success = false;
  nack.last_received = {1, 2};
  outbox_.sent.clear();
  consensus_->HandleMessage(Message(nack));
  auto resend = outbox_.Last<AppendEntriesRequest>();
  EXPECT_EQ(resend.prev.index, 2u);  // rewound to the hint
  ASSERT_FALSE(resend.entries.empty());
  EXPECT_EQ(resend.entries.front().id.index, 3u);
}

TEST_F(ConsensusUnitTest, TransferLeadershipValidation) {
  BecomeLeader();
  EXPECT_TRUE(consensus_->TransferLeadership("a").IsInvalidArgument());
  EXPECT_TRUE(consensus_->TransferLeadership("ghost").IsInvalidArgument());
  ASSERT_TRUE(consensus_->TransferLeadership("b").ok());
  EXPECT_TRUE(consensus_->TransferLeadership("c").IsIllegalState());
  EXPECT_EQ(consensus_->transfer_target(), "b");
}

TEST_F(ConsensusUnitTest, QuiescedLeaderRejectsTransactionsOnly) {
  BecomeLeader();
  RaftOptions options;  // mock disabled path goes straight to quiesce
  ASSERT_TRUE(consensus_->TransferLeadership("b").ok());
  // Mock election runs first (enabled by default): not yet quiesced.
  EXPECT_FALSE(consensus_->is_quiesced_for_transfer());
  // Deliver the mock outcome directly.
  VoteResponse outcome;
  outcome.from = "b";
  outcome.dest = "a";
  outcome.term = consensus_->term();
  outcome.granted = true;
  outcome.mock_election = true;
  outcome.reason = "mock-outcome";
  consensus_->HandleMessage(Message(outcome));
  EXPECT_TRUE(consensus_->is_quiesced_for_transfer());
  EXPECT_TRUE(consensus_->Replicate(EntryType::kTransaction, "txn")
                  .status()
                  .IsServiceUnavailable());
  // Control entries (no-op/config) still pass.
  EXPECT_TRUE(consensus_->Replicate(EntryType::kNoOp, "").ok());
}

TEST_F(ConsensusUnitTest, ConfigChangeGatingAndCommit) {
  BecomeLeader();
  // A follower ack echoing the leader's active config identity: the echo
  // is what counts towards a config's install quorum.
  auto ack_with_config = [&](const MemberId& peer) {
    AppendEntriesResponse ack;
    ack.from = peer;
    ack.dest = "a";
    ack.term = consensus_->term();
    ack.success = true;
    ack.last_received = consensus_->last_logged();
    ack.last_durable_index = consensus_->last_logged().index;
    ack.config_term = consensus_->config().config_term;
    ack.config_version = consensus_->config().config_version;
    consensus_->HandleMessage(Message(ack));
  };
  // Changes wait for the leadership no-op and the new leader's config
  // rebase to commit; b's ack completes both (a + b = 2 of 3).
  EXPECT_TRUE(consensus_->has_pending_config_change());
  ack_with_config("b");
  ASSERT_FALSE(consensus_->has_pending_config_change());

  MemberInfo member{"d", "r1", MemberKind::kMySql, RaftMemberType::kVoter};
  ASSERT_TRUE(consensus_->AddMember(member).ok());
  EXPECT_TRUE(consensus_->has_pending_config_change());
  EXPECT_TRUE(consensus_->AddMember(MemberInfo{"e", "r1", MemberKind::kMySql,
                                               RaftMemberType::kVoter})
                  .IsIllegalState());
  EXPECT_TRUE(consensus_->config().Contains("d"));  // effective on propose

  // Commit the config: now 4 voters, so the install quorum is 3 of them.
  ack_with_config("b");
  EXPECT_TRUE(consensus_->has_pending_config_change());
  ack_with_config("c");
  EXPECT_FALSE(consensus_->has_pending_config_change());
  // The new peer is being replicated to.
  EXPECT_TRUE(consensus_->peers().count("d") > 0);

  // And can be removed again.
  ASSERT_TRUE(consensus_->RemoveMember("d").ok());
  EXPECT_FALSE(consensus_->config().Contains("d"));
}

TEST_F(ConsensusUnitTest, LearnerIgnoresElectionMachinery) {
  // Reconfigure a's type to learner via a fresh instance.
  auto env = NewMemEnv();
  ConsensusMetadataStore store(env.get(), "/m");
  RaftOptions options;
  options.self = "a";
  options.region = "r0";
  CapturingOutbox outbox;
  RecordingListener listener;
  RaftConsensus learner(options, &log_, &quorum_, &store, &clock_, &rng_,
                        &outbox, &listener);
  MembershipConfig config;
  config.members = {
      {"a", "r0", MemberKind::kMySql, RaftMemberType::kNonVoter},
      {"b", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
      {"c", "r1", MemberKind::kMySql, RaftMemberType::kVoter},
  };
  ASSERT_TRUE(learner.Bootstrap(config).ok());
  EXPECT_EQ(learner.role(), RaftRole::kLearner);
  EXPECT_TRUE(
      learner.StartElection(ElectionMode::kRealElection).IsIllegalState());

  VoteRequest request;
  request.candidate = "b";
  request.dest = "a";
  request.term = 1;
  request.config_term = learner.config().config_term;
  request.config_version = learner.config().config_version;
  learner.HandleMessage(Message(request));
  auto response = outbox.Last<VoteResponse>();
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "not-a-voter");

  // Election timeouts never fire for learners.
  clock_.AdvanceMicros(60'000'000);
  learner.Tick();
  EXPECT_EQ(learner.stats().elections_started, 0u);
}

TEST_F(ConsensusUnitTest, HeartbeatsFlowOnTick) {
  BecomeLeader();
  // Clear the outstanding-RPC flow control by acking the no-op.
  for (const MemberId& peer : {"b", "c"}) {
    AppendEntriesResponse ack;
    ack.from = peer;
    ack.dest = "a";
    ack.term = consensus_->term();
    ack.success = true;
    ack.last_received = consensus_->last_logged();
    consensus_->HandleMessage(Message(ack));
  }
  outbox_.sent.clear();
  clock_.AdvanceMicros(600'000);  // > 500ms heartbeat interval
  consensus_->Tick();
  auto heartbeats = outbox_.OfType<AppendEntriesRequest>();
  ASSERT_EQ(heartbeats.size(), 2u);  // b and c
  for (const auto& hb : heartbeats) {
    EXPECT_TRUE(hb.IsHeartbeat());
    EXPECT_EQ(hb.term, consensus_->term());
  }
  EXPECT_GE(consensus_->stats().heartbeats_sent, 2u);
}

TEST_F(ConsensusUnitTest, ConfigPayloadOnlyToPeersBehindActiveIdentity) {
  BecomeLeader();
  const MembershipConfig rebased = consensus_->config();
  // The leadership no-op is acked by both followers; b echoes the active
  // (rebased) identity, c still echoes its pre-election one.
  auto ack = [&](const MemberId& peer, uint64_t config_term) {
    AppendEntriesResponse response;
    response.from = peer;
    response.dest = "a";
    response.term = consensus_->term();
    response.success = true;
    response.last_received = consensus_->last_logged();
    response.last_durable_index = consensus_->last_logged().index;
    response.config_term = config_term;
    response.config_version = rebased.config_version;
    consensus_->HandleMessage(Message(response));
  };
  auto sent_to = [&](const MemberId& peer) {
    std::vector<AppendEntriesRequest> out;
    for (auto& request : outbox_.OfType<AppendEntriesRequest>()) {
      if (request.dest == peer) out.push_back(std::move(request));
    }
    return out;
  };
  ack("b", rebased.config_term);
  ack("c", 0);
  ASSERT_FALSE(consensus_->has_pending_config_change());  // a + b

  // Steady state: b holds the active config, so its heartbeat omits the
  // payload; c's echo trails, so its heartbeat carries it.
  outbox_.sent.clear();
  clock_.AdvanceMicros(600'000);  // > 500ms heartbeat interval
  consensus_->Tick();
  ASSERT_EQ(sent_to("b").size(), 1u);
  EXPECT_TRUE(sent_to("b")[0].IsHeartbeat());
  EXPECT_TRUE(sent_to("b")[0].config_payload.empty());
  ASSERT_EQ(sent_to("c").size(), 1u);
  auto carried = DecodeMembershipConfig(sent_to("c")[0].config_payload);
  ASSERT_TRUE(carried.ok()) << carried.status();
  EXPECT_TRUE(carried->SameIdAs(rebased));

  // Once c catches up, every heartbeat goes out bare.
  ack("c", rebased.config_term);
  outbox_.sent.clear();
  clock_.AdvanceMicros(600'000);
  consensus_->Tick();
  ASSERT_EQ(outbox_.OfType<AppendEntriesRequest>().size(), 2u);
  for (const auto& heartbeat : outbox_.OfType<AppendEntriesRequest>()) {
    EXPECT_TRUE(heartbeat.config_payload.empty()) << heartbeat.dest;
  }

  // A proposal changes the active identity: the push that follows carries
  // the new config to every peer.
  outbox_.sent.clear();
  ASSERT_TRUE(consensus_->SetQuorumSpec("majority").ok());
  const MembershipConfig proposed = consensus_->config();
  for (const MemberId& peer : {"b", "c"}) {
    ASSERT_FALSE(sent_to(peer).empty()) << peer;
    auto config = DecodeMembershipConfig(sent_to(peer)[0].config_payload);
    ASSERT_TRUE(config.ok()) << peer << ": " << config.status();
    EXPECT_TRUE(config->SameIdAs(proposed)) << peer;
  }

  // Commit it (a + b), then remove c: the farewell to c always carries the
  // config that drops it, since c is no longer a peer.
  AppendEntriesResponse installed;
  installed.from = "b";
  installed.dest = "a";
  installed.term = consensus_->term();
  installed.success = true;
  installed.last_received = consensus_->last_logged();
  installed.last_durable_index = consensus_->last_logged().index;
  installed.config_term = proposed.config_term;
  installed.config_version = proposed.config_version;
  consensus_->HandleMessage(Message(installed));
  ASSERT_FALSE(consensus_->has_pending_config_change());
  outbox_.sent.clear();
  ASSERT_TRUE(consensus_->RemoveMember("c").ok());
  ASSERT_EQ(sent_to("c").size(), 1u);
  auto farewell = DecodeMembershipConfig(sent_to("c")[0].config_payload);
  ASSERT_TRUE(farewell.ok()) << farewell.status();
  EXPECT_FALSE(farewell->Contains("c"));
  EXPECT_TRUE(farewell->SameIdAs(consensus_->config()));
}

TEST_F(ConsensusUnitTest, FollowerLearnsConfigCommitFromLeader) {
  // Follower side: installing a newer config leaves it pending here — the
  // install quorum is only visible to the leader.
  MembershipConfig newer = consensus_->config();
  newer.config_term = 1;
  auto request = MakeAppend(1, kZeroOpId, {});
  EncodeMembershipConfig(newer, &request.config_payload);
  consensus_->HandleMessage(Message(request));
  ASSERT_TRUE(consensus_->config().SameIdAs(newer));
  EXPECT_TRUE(consensus_->has_pending_config_change());
  EXPECT_TRUE(outbox_.Last<AppendEntriesResponse>().config_pending);

  // A committed identity other than the installed one proves nothing.
  request = MakeAppend(1, kZeroOpId, {});
  request.committed_config_term = newer.config_term;
  request.committed_config_version = newer.config_version + 1;
  consensus_->HandleMessage(Message(request));
  EXPECT_TRUE(consensus_->has_pending_config_change());

  // The installed identity, named by the leader, commits it here too.
  request.committed_config_version = newer.config_version;
  consensus_->HandleMessage(Message(request));
  EXPECT_FALSE(consensus_->has_pending_config_change());
  EXPECT_TRUE(consensus_->committed_config().SameIdAs(newer));
  EXPECT_FALSE(outbox_.Last<AppendEntriesResponse>().config_pending);
}

TEST_F(ConsensusUnitTest, CommittedIdentityOnlyToPeersReportingPending) {
  BecomeLeader();
  const MembershipConfig rebased = consensus_->config();
  auto ack = [&](const MemberId& peer, bool pending) {
    AppendEntriesResponse response;
    response.from = peer;
    response.dest = "a";
    response.term = consensus_->term();
    response.success = true;
    response.last_received = consensus_->last_logged();
    response.last_durable_index = consensus_->last_logged().index;
    response.config_term = rebased.config_term;
    response.config_version = rebased.config_version;
    response.config_pending = pending;
    consensus_->HandleMessage(Message(response));
  };
  auto heartbeat_to = [&](const MemberId& peer) {
    outbox_.sent.clear();
    clock_.AdvanceMicros(600'000);  // > 500ms heartbeat interval
    consensus_->Tick();
    for (auto& request : outbox_.OfType<AppendEntriesRequest>()) {
      if (request.dest == peer) return request;
    }
    ADD_FAILURE() << "no heartbeat to " << peer;
    return AppendEntriesRequest{};
  };
  // b installed the rebased config but has not learned it committed; c
  // already knows. Only b's heartbeat names the committed identity.
  ack("b", true);
  ack("c", false);
  ASSERT_FALSE(consensus_->has_pending_config_change());
  const AppendEntriesRequest to_b = heartbeat_to("b");
  EXPECT_EQ(to_b.committed_config_term, rebased.config_term);
  EXPECT_EQ(to_b.committed_config_version, rebased.config_version);
  EXPECT_TRUE(to_b.config_payload.empty());
  EXPECT_EQ(heartbeat_to("c").committed_config_term, 0u);

  // Once b reports it committed, its heartbeats go out bare again.
  ack("b", false);
  EXPECT_EQ(heartbeat_to("b").committed_config_term, 0u);
}

TEST_F(ConsensusUnitTest, MisaddressedMessagesIgnored) {
  auto request = MakeAppend(1, kZeroOpId, {E(1, 1, "x")});
  request.dest = "someone-else";
  consensus_->HandleMessage(Message(request));
  EXPECT_EQ(consensus_->last_logged(), kZeroOpId);
  EXPECT_TRUE(outbox_.sent.empty());
}

TEST_F(ConsensusUnitTest, AutoStepDownDisabledByDefault) {
  // Faithful to kuduraft: a fully partitioned leader stays leader (§4.1:
  // "we currently choose consistency over availability").
  BecomeLeader();
  clock_.AdvanceMicros(60'000'000);
  consensus_->Tick();
  EXPECT_EQ(consensus_->role(), RaftRole::kLeader);
  EXPECT_EQ(consensus_->stats().auto_step_downs, 0u);
}

TEST(ConsensusAutoStepDownTest, EnabledLeaderDemotesWhenQuorumSilent) {
  ManualClock clock;
  Random rng(2);
  auto env = NewMemEnv();
  ConsensusMetadataStore store(env.get(), "/m");
  MemLog log;
  MajorityQuorumEngine quorum;
  CapturingOutbox outbox;
  RecordingListener listener;
  RaftOptions options;
  options.self = "a";
  options.region = "r0";
  options.enable_pre_vote = false;
  options.enable_auto_step_down = true;
  options.auto_step_down_after_micros = 2'000'000;
  RaftConsensus consensus(options, &log, &quorum, &store, &clock, &rng,
                          &outbox, &listener);
  MembershipConfig config;
  config.members = {
      {"a", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
      {"b", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
      {"c", "r1", MemberKind::kMySql, RaftMemberType::kVoter},
  };
  ASSERT_TRUE(consensus.Bootstrap(config).ok());
  ASSERT_TRUE(consensus.StartElection(ElectionMode::kRealElection).ok());
  VoteResponse grant;
  grant.from = "b";
  grant.dest = "a";
  grant.term = consensus.term();
  grant.granted = true;
  consensus.HandleMessage(Message(grant));
  ASSERT_EQ(consensus.role(), RaftRole::kLeader);

  // A responsive quorum keeps leadership.
  clock.AdvanceMicros(1'500'000);
  AppendEntriesResponse ack;
  ack.from = "b";
  ack.dest = "a";
  ack.term = consensus.term();
  ack.success = true;
  ack.last_received = consensus.last_logged();
  consensus.HandleMessage(Message(ack));
  consensus.Tick();
  EXPECT_EQ(consensus.role(), RaftRole::kLeader);

  // Total silence past the window: demote.
  clock.AdvanceMicros(2'500'000);
  consensus.Tick();
  EXPECT_EQ(consensus.role(), RaftRole::kFollower);
  EXPECT_EQ(consensus.stats().auto_step_downs, 1u);
  EXPECT_EQ(listener.lost, 1);
  EXPECT_EQ(consensus.term(), 1u);  // no gratuitous term bump
}

TEST_F(ConsensusUnitTest, VotesDeniedToRemovedCandidates) {
  // "d" is not in the config (e.g. removed while partitioned); its
  // campaigns must be rejected regardless of log length.
  VoteRequest request;
  request.candidate = "d";
  request.dest = "a";
  request.term = 9;
  request.last_log = {8, 100};
  request.candidate_region = "r1";
  StampVoterConfig(&request);
  consensus_->HandleMessage(Message(request));
  auto response = outbox_.Last<VoteResponse>();
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "candidate-not-a-voter");
}

TEST_F(ConsensusUnitTest, BootstrapValidation) {
  auto env = NewMemEnv();
  ConsensusMetadataStore store(env.get(), "/m");
  RaftOptions options;
  options.self = "zz";
  options.region = "r0";
  CapturingOutbox outbox;
  RecordingListener listener;
  MemLog log;
  RaftConsensus consensus(options, &log, &quorum_, &store, &clock_, &rng_,
                          &outbox, &listener);
  // Config without self is rejected; Start without bootstrap is too.
  MembershipConfig config;
  config.members = {{"a", "r0", MemberKind::kMySql, RaftMemberType::kVoter}};
  EXPECT_TRUE(consensus.Bootstrap(config).IsInvalidArgument());
  EXPECT_TRUE(consensus.Start().code() == StatusCode::kUninitialized);
}

// --- LeaseGuard leader leases (§13) --------------------------------------

TEST_F(ConsensusUnitTest, LeaseReadsNeedQuorumOfFreshGrants) {
  EnableLeases();
  BecomeLeader();
  AckAll("b", 0);  // commit the leadership no-op, no grant yet
  EXPECT_EQ(listener_.last_commit, consensus_->last_logged());
  EXPECT_FALSE(consensus_->HasValidLease());

  // Skip past the deferred-handoff window, then gather fresh grants:
  // self plus b's echo satisfy the 2-of-3 commit quorum.
  clock_.AdvanceMicros(1'300'001);
  const uint64_t sent = SendStampedHeartbeats();
  EXPECT_FALSE(consensus_->HasValidLease());
  AckAll("b", sent);
  EXPECT_TRUE(consensus_->HasValidLease());

  // Served locally at the commit marker, with zero outbound messages.
  outbox_.sent.clear();
  RaftConsensus::ReadResult read;
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) { read = r; });
  EXPECT_TRUE(read.status.ok());
  EXPECT_TRUE(read.served_by_lease);
  EXPECT_EQ(read.read_index, consensus_->commit_marker());
  EXPECT_TRUE(outbox_.sent.empty());
  EXPECT_EQ(consensus_->stats().reads_lease, 1u);

  // Grants age out (duration minus drift margin after the stamp); the
  // lease must lapse on its own, bounding any stale window.
  clock_.AdvanceMicros(1'200'000);
  EXPECT_FALSE(consensus_->HasValidLease());
}

TEST_F(ConsensusUnitTest, NewLeaderDefersLeaseServiceThroughHandoffWindow) {
  EnableLeases();
  BecomeLeader();
  AckAll("b", 0);
  // Fresh grants from a commit quorum — but a brand-new leader must
  // first wait out every grant its deposed predecessor could still hold,
  // so the lease stays unusable through the serve-after window.
  const uint64_t sent = SendStampedHeartbeats();
  AckAll("b", sent);
  EXPECT_FALSE(consensus_->HasValidLease());

  // Reads still work: they fall back to one commit-barrier no-op.
  outbox_.sent.clear();
  const uint64_t before = consensus_->last_logged().index;
  bool done = false;
  RaftConsensus::ReadResult read;
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) { read = r; done = true; });
  EXPECT_FALSE(done);  // awaiting the barrier's commit
  EXPECT_EQ(consensus_->last_logged().index, before + 1);
  const auto round = outbox_.Last<AppendEntriesRequest>();
  ASSERT_EQ(round.entries.size(), 1u);
  EXPECT_EQ(round.entries[0].id.index, before + 1);
  EXPECT_EQ(round.entries[0].type, EntryType::kNoOp);
  AckAll("b", round.lease_sent_micros);
  ASSERT_TRUE(done);
  EXPECT_TRUE(read.status.ok());
  EXPECT_FALSE(read.served_by_lease);
  EXPECT_EQ(read.read_index.index, before);

  // Once the window has provably drained, the standing grants count.
  clock_.AdvanceMicros(800'000);
  EXPECT_TRUE(consensus_->HasValidLease());
}

TEST_F(ConsensusUnitTest, DeposedLeaseholderRefusesReadsImmediately) {
  EnableLeases();
  BecomeLeader();
  AckAll("b", 0);
  clock_.AdvanceMicros(1'300'001);
  AckAll("b", SendStampedHeartbeats());
  ASSERT_TRUE(consensus_->HasValidLease());

  // A higher-term response deposes us mid-lease: reads must stop at
  // once, long before the grants' wall-clock expiry.
  AppendEntriesResponse higher;
  higher.from = "b";
  higher.dest = "a";
  higher.term = consensus_->term() + 1;
  higher.success = false;
  consensus_->HandleMessage(Message(higher));
  EXPECT_EQ(consensus_->role(), RaftRole::kFollower);
  EXPECT_FALSE(consensus_->HasValidLease());
  RaftConsensus::ReadResult read;
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) { read = r; });
  EXPECT_TRUE(read.status.IsIllegalState());
}

TEST_F(ConsensusUnitTest, StepDownFailsPendingQuorumReads) {
  BecomeLeader();  // leases off: every read takes the barrier round
  AckAll("b", 0);
  bool done = false;
  Status status;
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) {
        done = true;
        status = r.status;
      });
  EXPECT_FALSE(done);
  AppendEntriesResponse higher;
  higher.from = "b";
  higher.dest = "a";
  higher.term = consensus_->term() + 1;
  higher.success = false;
  consensus_->HandleMessage(Message(higher));
  ASSERT_TRUE(done);  // failed, not leaked
  EXPECT_FALSE(status.ok());
}

TEST_F(ConsensusUnitTest, ReadIndexIgnoresAcksSentBeforeRegistration) {
  // A fresh leader inside the lease handoff window takes the barrier
  // fallback: only the commit of a no-op appended after registration
  // confirms leadership.
  EnableLeases();
  BecomeLeader();
  AckAll("b", 0);
  const OpId registered = consensus_->last_logged();
  clock_.AdvanceMicros(1'000);
  bool done = false;
  RaftConsensus::ReadResult read;
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) { read = r; done = true; });
  EXPECT_FALSE(done);
  // An ack covering only the log as it stood at registration — a
  // response already in flight when the read arrived — proves nothing
  // about current leadership and must not complete the read, even when
  // it echoes a fresh send timestamp.
  AppendEntriesResponse stale;
  stale.from = "b";
  stale.dest = "a";
  stale.term = consensus_->term();
  stale.success = true;
  stale.last_received = registered;
  stale.last_durable_index = registered.index;
  stale.lease_granted_micros = clock_.NowMicros();
  consensus_->HandleMessage(Message(stale));
  EXPECT_FALSE(done);
  // The ack that commits the barrier does.
  AckAll("b", clock_.NowMicros());
  ASSERT_TRUE(done);
  EXPECT_TRUE(read.status.ok());
  EXPECT_FALSE(read.served_by_lease);
  EXPECT_EQ(read.read_index, registered);
  EXPECT_EQ(consensus_->stats().reads_quorum, 1u);
}

/// Every read without a valid lease confirms leadership the same way,
/// leases on (a fresh leader inside its handoff window) or off.
class BarrierReadTest : public ConsensusUnitTest,
                        public ::testing::WithParamInterface<bool> {};

TEST_P(BarrierReadTest, ReadsCompleteOnBarrierCommit) {
  if (GetParam()) EnableLeases();
  BecomeLeader();
  AckAll("b", 0);  // commit the leadership no-op at index 1
  ASSERT_FALSE(consensus_->HasValidLease());
  const uint64_t before = consensus_->last_logged().index;
  bool done1 = false, done2 = false;
  RaftConsensus::ReadResult read1, read2;
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) { read1 = r; done1 = true; });
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) { read2 = r; done2 = true; });
  // One shared barrier no-op for both reads, not one each.
  EXPECT_EQ(consensus_->last_logged().index, before + 1);
  EXPECT_FALSE(done1);
  EXPECT_FALSE(done2);
  // An ack without a lease echo commits the barrier; both reads
  // complete at the marker captured when they registered.
  AckAll("b", 0);
  ASSERT_TRUE(done1);
  ASSERT_TRUE(done2);
  EXPECT_TRUE(read1.status.ok());
  EXPECT_FALSE(read1.served_by_lease);
  EXPECT_EQ(read1.read_index.index, before);
  EXPECT_TRUE(read2.status.ok());
  EXPECT_EQ(read2.read_index.index, before);
  EXPECT_EQ(consensus_->stats().reads_quorum, 2u);
}

INSTANTIATE_TEST_SUITE_P(Leases, BarrierReadTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "On" : "Off";
                         });

TEST_F(ConsensusUnitTest, LeasesOffAppendsCarryNoLeaseFields) {
  // Wire compatibility (§13.6): with leases off the leader must emit the
  // pre-lease byte format — a pre-lease decoder rejects trailing fields.
  BecomeLeader();
  AckAll("b", 0);  // drain the no-op batch so the tick heartbeats
  clock_.AdvanceMicros(600'000);
  outbox_.sent.clear();
  consensus_->Tick();
  const auto request = outbox_.Last<AppendEntriesRequest>();
  EXPECT_EQ(request.lease_sent_micros, 0u);
  EXPECT_EQ(request.lease_duration_micros, 0u);
}

TEST_F(ConsensusUnitTest, PendingReadsFailAfterDeadline) {
  BecomeLeader();
  AckAll("b", 0);
  bool done = false;
  RaftConsensus::ReadResult read;
  consensus_->LinearizableRead(
      [&](const RaftConsensus::ReadResult& r) { read = r; done = true; });
  EXPECT_FALSE(done);
  // Quorum never answers (leader partitioned, auto step down off): the
  // callback must not be parked forever.
  clock_.AdvanceMicros(2'400'000);  // < rpc timeout + election timeout
  consensus_->Tick();
  EXPECT_FALSE(done);
  clock_.AdvanceMicros(200'000);  // past the deadline
  consensus_->Tick();
  ASSERT_TRUE(done);
  EXPECT_TRUE(read.status.IsTimedOut());
  EXPECT_EQ(consensus_->stats().reads_timed_out, 1u);
}

TEST_F(ConsensusUnitTest, LeasesRequirePreVote) {
  RaftOptions options;
  options.self = "a";
  options.region = "r0";
  options.enable_pre_vote = false;
  options.enable_leader_leases = true;
  auto store =
      std::make_unique<ConsensusMetadataStore>(env_.get(), "/cmeta-nopv");
  RaftConsensus bad(options, &faulty_log_, &quorum_, store.get(), &clock_,
                    &rng_, &outbox_, &listener_);
  MembershipConfig config;
  config.members = {
      {"a", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
  };
  // Lease safety rests on pre-vote stickiness; the combination must be
  // rejected at startup, not silently weakened.
  EXPECT_TRUE(bad.Bootstrap(config).IsInvalidArgument());
}

TEST_F(ConsensusUnitTest, RestartEmbargoesVotesThroughGrantWindow) {
  EnableLeases();
  BecomeLeader();  // persists term 1; this node may have echoed a grant
  AckAll("b", 0);

  // Crash-restart on the same durable state: the grant promise lived in
  // volatile memory, so the voter must refuse to depose anyone until the
  // longest grant it could have made has expired.
  RaftOptions options;
  options.self = "a";
  options.region = "r0";
  options.enable_pre_vote = true;
  options.enable_leader_leases = true;
  options.lease_duration_micros = 1'200'000;
  options.lease_drift_margin_micros = 100'000;
  RaftConsensus restarted(options, &faulty_log_, &quorum_,
                          lease_meta_store_.get(), &clock_, &rng_, &outbox_,
                          &listener_);
  ASSERT_TRUE(restarted.Start().ok());
  outbox_.sent.clear();

  VoteRequest pre;
  pre.candidate = "c";
  pre.dest = "a";
  pre.term = restarted.term() + 1;
  pre.last_log = restarted.last_logged();
  pre.candidate_region = "r1";
  pre.pre_vote = true;
  pre.config_term = restarted.config().config_term;
  pre.config_version = restarted.config().config_version;
  restarted.HandleMessage(Message(pre));
  auto response = outbox_.Last<VoteResponse>();
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "startup-lease-embargo");

  VoteRequest binding = pre;
  binding.pre_vote = false;
  restarted.HandleMessage(Message(binding));
  response = outbox_.Last<VoteResponse>();
  EXPECT_FALSE(response.granted);
  EXPECT_EQ(response.reason, "startup-lease-embargo");

  // Once duration + margin has passed, every possible grant has expired
  // and normal vote rules resume.
  clock_.AdvanceMicros(1'300'001);
  restarted.HandleMessage(Message(pre));
  response = outbox_.Last<VoteResponse>();
  EXPECT_TRUE(response.granted);
  restarted.HandleMessage(Message(binding));
  response = outbox_.Last<VoteResponse>();
  EXPECT_TRUE(response.granted);
}

TEST_F(ConsensusUnitTest, FirstBootSkipsVoteEmbargo) {
  // A freshly bootstrapped voter (term 0, empty log) can never have
  // granted a lease — an echo requires leader contact, which persists a
  // term bump first. No embargo, or every new cluster would stall.
  EnableLeases();
  VoteRequest request;
  request.candidate = "b";
  request.dest = "a";
  request.term = 1;
  request.last_log = kZeroOpId;
  request.candidate_region = "r0";
  StampVoterConfig(&request);
  consensus_->HandleMessage(Message(request));
  auto response = outbox_.Last<VoteResponse>();
  EXPECT_TRUE(response.granted);
}

TEST_F(ConsensusUnitTest, LeadershipTransferRevokesLease) {
  EnableLeases();
  BecomeLeader();
  AckAll("b", 0);
  clock_.AdvanceMicros(1'300'001);
  const uint64_t sent = SendStampedHeartbeats();
  AckAll("b", sent);
  ASSERT_TRUE(consensus_->HasValidLease());

  ASSERT_TRUE(consensus_->TransferLeadership("b").ok());
  VoteResponse outcome;  // mock election passes
  outcome.from = "b";
  outcome.dest = "a";
  outcome.term = consensus_->term();
  outcome.granted = true;
  outcome.mock_election = true;
  outcome.reason = "mock-outcome";
  consensus_->HandleMessage(Message(outcome));
  ASSERT_TRUE(consensus_->is_quiesced_for_transfer());
  // The caught-up target triggers TimeoutNow; every grant is revoked
  // first so this (still unaware, not yet deposed) leaseholder can never
  // serve a lease read racing its successor's election.
  AckAll("b", clock_.NowMicros());
  EXPECT_FALSE(outbox_.OfType<StartElectionRequest>().empty());
  EXPECT_FALSE(consensus_->HasValidLease());
}

}  // namespace
}  // namespace myraft::raft
