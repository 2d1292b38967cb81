// Proxying (§4.2): replication through relays with payload
// reconstitution, bandwidth savings on cross-region links, degrade to
// heartbeat, route-around of dead relays, and votes staying peer-to-peer.

#include "proxy/proxy_router.h"

#include <gtest/gtest.h>

#include "flexiraft/flexiraft.h"
#include "raft_test_harness.h"
#include "util/random.h"
#include "wire_entries.h"

namespace myraft::proxy {
namespace {

using flexiraft::FlexiRaftQuorumEngine;
using flexiraft::QuorumMode;
using raft_test::RaftTestCluster;
using raft_test::TestNode;
constexpr uint64_t kSecond = 1'000'000;

/// Cluster harness variant with a ProxyRouter between each consensus and
/// the network.
class ProxyCluster {
 public:
  ProxyCluster(uint64_t seed, ProxyOptions proxy_options)
      : cluster_(seed), proxy_options_(proxy_options) {}

  void AddPaperTopology(int regions = 3, int logtailers_per_region = 2) {
    for (int r = 0; r < regions; ++r) {
      const std::string region = "r" + std::to_string(r);
      cluster_.AddMemberSpec("db" + std::to_string(r), region,
                             MemberKind::kMySql);
      for (int l = 0; l < logtailers_per_region; ++l) {
        cluster_.AddMemberSpec(
            StringPrintf("lt%d%c", r, static_cast<char>('a' + l)), region,
            MemberKind::kLogtailer);
      }
    }
  }

  void Start(const raft::QuorumEngine* quorum) {
    raft::RaftOptions options;
    options.heartbeat_interval_micros = 500'000;
    cluster_.StartAll(quorum, options);
    // Interpose routers both ways: consensus outbox -> router -> network
    // on the way out, network -> router -> consensus on the way in.
    for (const MemberId& id : cluster_.ids()) {
      TestNode* node = cluster_.node(id);
      auto router = std::make_unique<ProxyRouter>(
          id, node->region(), proxy_options_, cluster_.loop(),
          [this, id](Message m) { cluster_.network()->Send(id, std::move(m)); });
      router->BindConsensus(node->consensus());
      ProxyRouter* raw = router.get();
      node->set_outbound_hook([raw](Message m) { raw->Send(std::move(m)); });
      cluster_.network()->RegisterNode(
          id, node->region(),
          [node, raw](const MemberId& physical_from, const Message& m) {
            raw->ObserveTraffic(physical_from);
            if (!raw->HandleInbound(m)) node->Deliver(m);
          });
      routers_[id] = std::move(router);
    }
  }

  RaftTestCluster* cluster() { return &cluster_; }
  ProxyRouter* router(const MemberId& id) { return routers_.at(id).get(); }

 private:
  RaftTestCluster cluster_;
  ProxyOptions proxy_options_;
  std::map<MemberId, std::unique_ptr<ProxyRouter>> routers_;
};

TEST(ProxyRouterTest, LeaderStripsPayloadForRemoteNonRelayMembers) {
  // Router-level unit test with a captured send function.
  sim::EventLoop loop(1);
  std::vector<Message> sent;
  ProxyOptions options;
  ProxyRouter router("db0", "r0", options, &loop,
                     [&](Message m) { sent.push_back(std::move(m)); });

  // Minimal consensus for config/cache/log access.
  auto env = NewMemEnv();
  raft::ConsensusMetadataStore meta(env.get(), "/m");
  raft::MemLog log;
  static raft::MajorityQuorumEngine quorum;
  Random rng(7);
  struct NullOutbox : raft::RaftOutbox {
    void Send(Message) override {}
  } null_outbox;
  raft::StateMachineListener listener;
  raft::RaftOptions raft_options;
  raft_options.self = "db0";
  raft_options.region = "r0";
  raft::RaftConsensus consensus(raft_options, &log, &quorum, &meta,
                                loop.clock(), &rng, &null_outbox, &listener);
  MembershipConfig config;
  config.members = {
      {"db0", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
      {"db1", "r1", MemberKind::kMySql, RaftMemberType::kVoter},
      {"lt1a", "r1", MemberKind::kLogtailer, RaftMemberType::kVoter},
  };
  ASSERT_TRUE(consensus.Bootstrap(config).ok());
  router.BindConsensus(&consensus);

  AppendEntriesRequest request;
  request.leader = "db0";
  request.term = 1;
  request.entries.push_back(
      LogEntry::Make({1, 1}, EntryType::kTransaction, std::string(500, 'x')));

  // To the remote relay itself (db1, the region's mysql): direct + full.
  request.dest = "db1";
  router.Send(Message(request));
  ASSERT_EQ(sent.size(), 1u);
  {
    const auto& out = std::get<AppendEntriesRequest>(sent[0]);
    EXPECT_FALSE(out.proxy_payload_omitted);
    EXPECT_TRUE(out.route.empty());
    EXPECT_EQ(out.PayloadBytes(), 500u);
  }

  // To the remote logtailer: PROXY_OP through db1.
  request.dest = "lt1a";
  router.Send(Message(request));
  ASSERT_EQ(sent.size(), 2u);
  {
    const auto& out = std::get<AppendEntriesRequest>(sent[1]);
    EXPECT_TRUE(out.proxy_payload_omitted);
    ASSERT_EQ(out.route, std::vector<MemberId>{"db1"});
    EXPECT_EQ(out.PayloadBytes(), 0u);
    EXPECT_EQ(out.entries[0].checksum, request.entries[0].checksum);
  }

  // Same-region member: never proxied. Votes: never proxied.
  VoteRequest vote;
  vote.candidate = "db0";
  vote.dest = "lt1a";
  router.Send(Message(vote));
  ASSERT_EQ(sent.size(), 3u);
  EXPECT_TRUE(std::holds_alternative<VoteRequest>(sent[2]));
  EXPECT_EQ(router.stats().proxied_requests, 1u);
  EXPECT_EQ(router.stats().direct_requests, 1u);
}

TEST(ProxyClusterTest, ReplicationFlowsThroughRelaysAndConverges) {
  ProxyOptions proxy_options;
  static FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});
  ProxyCluster proxy_cluster(42, proxy_options);
  proxy_cluster.AddPaperTopology();
  proxy_cluster.Start(&engine);
  RaftTestCluster* cluster = proxy_cluster.cluster();

  ASSERT_FALSE(cluster->WaitForLeader(10 * kSecond).empty());
  // A logtailer can win the bootstrap race as a temporary witness leader
  // (§2.2); let its automatic handoff to a database replica settle so
  // the replication burst below runs under a stable leader.
  cluster->loop()->RunFor(2 * kSecond);
  const MemberId leader_id = cluster->CurrentLeader();
  ASSERT_FALSE(leader_id.empty());
  raft::RaftConsensus* leader = cluster->node(leader_id)->consensus();

  OpId last;
  for (int i = 0; i < 30; ++i) {
    auto opid =
        leader->Replicate(EntryType::kNoOp, std::string(500, 'a' + i % 26));
    ASSERT_TRUE(opid.ok());
    last = *opid;
  }
  ASSERT_TRUE(cluster->WaitForCommit(leader_id, last, 5 * kSecond));
  cluster->loop()->RunFor(5 * kSecond);

  // Everyone converges even though remote members only got PROXY_OPs.
  for (const MemberId& id : cluster->ids()) {
    EXPECT_EQ(cluster->node(id)->consensus()->last_logged(), last) << id;
  }
  // Entries were reconstituted at remote relays.
  uint64_t total_reconstitutions = 0;
  for (const MemberId& id : cluster->ids()) {
    total_reconstitutions += proxy_cluster.router(id)->stats().reconstitutions;
  }
  EXPECT_GT(total_reconstitutions, 0u);
}

TEST(ProxyClusterTest, ProxySavesCrossRegionBytes) {
  // Same workload with proxying on vs off; cross-region bytes must drop
  // by roughly the remote fan-out factor (§4.2.2).
  static FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});
  uint64_t bytes_with_proxy = 0, bytes_without = 0;
  for (const bool proxy_on : {true, false}) {
    ProxyOptions proxy_options;
    proxy_options.enabled = proxy_on;
    ProxyCluster proxy_cluster(77, proxy_options);
    proxy_cluster.AddPaperTopology();
    proxy_cluster.Start(&engine);
    RaftTestCluster* cluster = proxy_cluster.cluster();
    ASSERT_FALSE(cluster->WaitForLeader(10 * kSecond).empty());
    cluster->loop()->RunFor(2 * kSecond);  // settle any witness handoff
    const MemberId leader_id = cluster->CurrentLeader();
    ASSERT_FALSE(leader_id.empty());
    raft::RaftConsensus* leader = cluster->node(leader_id)->consensus();
    cluster->loop()->RunFor(kSecond);
    cluster->network()->ResetStats();

    // Seeded bytes LZ cannot shrink: entries stay ~500 B on the wire,
    // where leaders and relays ship them compressed.
    Random payload_rng(77);
    OpId last;
    for (int i = 0; i < 50; ++i) {
      std::string payload(500, '\0');
      for (char& c : payload) c = static_cast<char>(payload_rng.Uniform(256));
      auto opid = leader->Replicate(EntryType::kNoOp, std::move(payload));
      ASSERT_TRUE(opid.ok());
      last = *opid;
      cluster->loop()->RunFor(20'000);
    }
    cluster->loop()->RunFor(2 * kSecond);
    for (const MemberId& id : cluster->ids()) {
      ASSERT_EQ(cluster->node(id)->consensus()->last_logged(), last)
          << id << " proxy=" << proxy_on;
    }
    (proxy_on ? bytes_with_proxy : bytes_without) =
        cluster->network()->CrossRegionBytes();
  }
  // Each remote region has 3 members; with proxying only 1 full copy +
  // 2 small PROXY_OPs cross the WAN.
  EXPECT_LT(bytes_with_proxy, bytes_without * 2 / 3)
      << "with=" << bytes_with_proxy << " without=" << bytes_without;
}

TEST(ProxyClusterTest, DeadRelayIsRoutedAround) {
  static FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});
  ProxyOptions proxy_options;
  proxy_options.relay_unhealthy_after_micros = 2 * kSecond;
  ProxyCluster proxy_cluster(4242, proxy_options);
  proxy_cluster.AddPaperTopology();
  proxy_cluster.Start(&engine);
  RaftTestCluster* cluster = proxy_cluster.cluster();

  ASSERT_FALSE(cluster->WaitForLeader(10 * kSecond).empty());
  cluster->loop()->RunFor(2 * kSecond);  // settle any witness handoff
  const MemberId leader_id = cluster->CurrentLeader();
  ASSERT_FALSE(leader_id.empty());
  raft::RaftConsensus* leader = cluster->node(leader_id)->consensus();
  const RegionId home = cluster->node(leader_id)->region();

  // Find a remote region and kill its preferred relay (the mysql member).
  RegionId remote;
  for (const MemberId& id : cluster->ids()) {
    if (cluster->node(id)->region() != home) {
      remote = cluster->node(id)->region();
      break;
    }
  }
  MemberId relay, downstream;
  for (const MemberId& id : cluster->ids()) {
    if (cluster->node(id)->region() != remote) continue;
    if (cluster->node(id)->kind() == MemberKind::kMySql) {
      relay = id;
    } else if (downstream.empty()) {
      downstream = id;
    }
  }
  ASSERT_FALSE(relay.empty());
  ASSERT_FALSE(downstream.empty());
  cluster->Crash(relay);
  cluster->loop()->RunFor(3 * kSecond);  // let health tracking notice

  OpId last;
  for (int i = 0; i < 10; ++i) {
    auto opid = leader->Replicate(EntryType::kNoOp, std::string(300, 'z'));
    ASSERT_TRUE(opid.ok());
    last = *opid;
    cluster->loop()->RunFor(100'000);
  }
  cluster->loop()->RunFor(3 * kSecond);
  // The downstream member still converges: the leader routed around the
  // dead relay (either via the surviving logtailer or directly).
  EXPECT_EQ(cluster->node(downstream)->consensus()->last_logged(), last);
}

TEST(ProxyClusterTest, MissingEntryDegradesToHeartbeatThenRecovers) {
  static FlexiRaftQuorumEngine engine({QuorumMode::kSingleRegionDynamic});
  ProxyOptions proxy_options;
  proxy_options.reconstitute_wait_micros = 30'000;  // short wait
  ProxyCluster proxy_cluster(11, proxy_options);
  proxy_cluster.AddPaperTopology();
  proxy_cluster.Start(&engine);
  RaftTestCluster* cluster = proxy_cluster.cluster();

  ASSERT_FALSE(cluster->WaitForLeader(10 * kSecond).empty());
  cluster->loop()->RunFor(2 * kSecond);  // settle any witness handoff
  const MemberId leader_id = cluster->CurrentLeader();
  ASSERT_FALSE(leader_id.empty());
  raft::RaftConsensus* leader = cluster->node(leader_id)->consensus();
  const RegionId home = cluster->node(leader_id)->region();

  // Delay one remote relay heavily so PROXY_OPs reach other members of
  // its region before the relay has the entry.
  MemberId relay;
  for (const MemberId& id : cluster->ids()) {
    if (cluster->node(id)->region() != home &&
        cluster->node(id)->kind() == MemberKind::kMySql) {
      relay = id;
      break;
    }
  }
  ASSERT_FALSE(relay.empty());
  cluster->network()->SetNodeExtraDelay(relay, 200'000);  // +200 ms

  OpId last;
  for (int i = 0; i < 10; ++i) {
    auto opid = leader->Replicate(EntryType::kNoOp, std::string(300, 'q'));
    ASSERT_TRUE(opid.ok());
    last = *opid;
    cluster->loop()->RunFor(50'000);
  }
  cluster->loop()->RunFor(5 * kSecond);

  // The ring converges despite the slow relay (waits, degradations and
  // leader retries all compose).
  for (const MemberId& id : cluster->ids()) {
    EXPECT_EQ(cluster->node(id)->consensus()->last_logged(), last) << id;
  }
}

TEST(ProxyRouterTest, ResponsesRelayUpstreamThroughOwnRegion) {
  // §4.2.1: "the response from the downstream follower will then be
  // proxied back upstream" — a logtailer's response to a remote leader
  // routes via its region's relay; the relay itself responds direct.
  sim::EventLoop loop(2);
  std::vector<Message> sent;
  ProxyOptions options;
  ProxyRouter router("lt1a", "r1", options, &loop,
                     [&](Message m) { sent.push_back(std::move(m)); });

  auto env = NewMemEnv();
  raft::ConsensusMetadataStore meta(env.get(), "/m");
  raft::MemLog log;
  static raft::MajorityQuorumEngine quorum;
  Random rng(3);
  struct NullOutbox : raft::RaftOutbox {
    void Send(Message) override {}
  } null_outbox;
  raft::StateMachineListener listener;
  raft::RaftOptions raft_options;
  raft_options.self = "lt1a";
  raft_options.region = "r1";
  raft::RaftConsensus consensus(raft_options, &log, &quorum, &meta,
                                loop.clock(), &rng, &null_outbox, &listener);
  MembershipConfig config;
  config.members = {
      {"db0", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
      {"db1", "r1", MemberKind::kMySql, RaftMemberType::kVoter},
      {"lt1a", "r1", MemberKind::kLogtailer, RaftMemberType::kVoter},
  };
  ASSERT_TRUE(consensus.Bootstrap(config).ok());
  router.BindConsensus(&consensus);

  AppendEntriesResponse response;
  response.from = "lt1a";
  response.dest = "db0";  // remote leader
  response.term = 1;
  response.success = true;
  router.Send(Message(response));
  ASSERT_EQ(sent.size(), 1u);
  {
    const auto& out = std::get<AppendEntriesResponse>(sent[0]);
    ASSERT_EQ(out.route, std::vector<MemberId>{"db1"});  // region relay
    EXPECT_EQ(MessageNextHop(sent[0]), "db1");
    EXPECT_EQ(MessageDest(sent[0]), "db0");
  }

  // Same-region responses are direct.
  response.dest = "db1";
  router.Send(Message(response));
  ASSERT_EQ(sent.size(), 2u);
  EXPECT_TRUE(std::get<AppendEntriesResponse>(sent[1]).route.empty());

  // The relay (db1's router) would pop itself and forward: simulate the
  // hop on an intermediate router.
  ProxyRouter relay("db1", "r1", options, &loop,
                    [&](Message m) { sent.push_back(std::move(m)); });
  relay.BindConsensus(&consensus);  // config access only
  AppendEntriesResponse routed = response;
  routed.dest = "db0";
  routed.route = {"db1"};
  EXPECT_TRUE(relay.HandleInbound(Message(routed)));
  ASSERT_EQ(sent.size(), 3u);
  {
    const auto& out = std::get<AppendEntriesResponse>(sent[2]);
    EXPECT_TRUE(out.route.empty());
    EXPECT_EQ(out.dest, "db0");
  }
  EXPECT_EQ(relay.stats().relayed_responses, 1u);
}

TEST(ProxyRouterTest, MissingEntryWaitsThenDegradesToHeartbeat) {
  // Deterministic final-hop behaviour: a PROXY_OP referencing an entry the
  // relay does not have waits reconstitute_wait_micros, then degrades to a
  // heartbeat (§4.2.1); if the entry shows up during the wait it is
  // reconstituted instead.
  sim::EventLoop loop(1);
  std::vector<Message> sent;
  ProxyOptions options;
  options.reconstitute_wait_micros = 50'000;
  options.reconstitute_poll_micros = 5'000;
  ProxyRouter router("relay", "r1", options, &loop,
                     [&](Message m) { sent.push_back(std::move(m)); });

  auto env = NewMemEnv();
  raft::ConsensusMetadataStore meta(env.get(), "/m");
  raft::MemLog log;
  static raft::MajorityQuorumEngine quorum;
  Random rng(9);
  struct NullOutbox : raft::RaftOutbox {
    void Send(Message) override {}
  } null_outbox;
  raft::StateMachineListener listener;
  raft::RaftOptions raft_options;
  raft_options.self = "relay";
  raft_options.region = "r1";
  raft::RaftConsensus consensus(raft_options, &log, &quorum, &meta,
                                loop.clock(), &rng, &null_outbox, &listener);
  MembershipConfig config;
  config.members = {
      {"leader", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
      {"relay", "r1", MemberKind::kMySql, RaftMemberType::kVoter},
      {"lt1a", "r1", MemberKind::kLogtailer, RaftMemberType::kVoter},
  };
  ASSERT_TRUE(consensus.Bootstrap(config).ok());
  router.BindConsensus(&consensus);

  const LogEntry real =
      LogEntry::Make({3, 9}, EntryType::kTransaction, std::string(400, 'd'));

  auto make_proxy_op = [&]() {
    AppendEntriesRequest proxied;
    proxied.leader = "leader";
    proxied.dest = "lt1a";
    proxied.route = {"relay"};
    proxied.term = 3;
    proxied.prev = {3, 8};
    proxied.proxy_payload_omitted = true;
    LogEntry stripped = real;
    stripped.payload.clear();
    proxied.entries.push_back(stripped);
    return proxied;
  };

  // Case 1: entry never arrives -> degrade after the wait.
  EXPECT_TRUE(router.HandleInbound(Message(make_proxy_op())));
  loop.RunFor(200'000);
  ASSERT_EQ(sent.size(), 1u);
  {
    const auto& out = std::get<AppendEntriesRequest>(sent[0]);
    EXPECT_TRUE(out.entries.empty());  // heartbeat
    EXPECT_EQ(out.dest, "lt1a");
    EXPECT_FALSE(out.proxy_payload_omitted);
  }
  EXPECT_EQ(router.stats().degraded_to_heartbeat, 1u);

  // Case 2: entry arrives mid-wait -> reconstituted in full.
  sent.clear();
  EXPECT_TRUE(router.HandleInbound(Message(make_proxy_op())));
  loop.Schedule(20'000, [&]() {
    // Simulate the relay's own replication stream catching up. MemLog
    // needs indexes 1..9; only 9 matters for the lookup, but appends are
    // contiguous.
    for (uint64_t i = 1; i <= 8; ++i) {
      ASSERT_TRUE(
          log.Append(LogEntry::Make({3, i}, EntryType::kNoOp, "")).ok());
    }
    ASSERT_TRUE(log.Append(real).ok());
  });
  loop.RunFor(200'000);
  ASSERT_EQ(sent.size(), 1u);
  {
    const auto& out = std::get<AppendEntriesRequest>(sent[0]);
    ASSERT_EQ(out.entries.size(), 1u);
    // Rebuilt in the wire form: the compressed span of the real entry.
    EXPECT_EQ(out.entries[0].id, real.id);
    EXPECT_EQ(out.entries[0].type, real.type);
    EXPECT_EQ(out.entries[0].checksum, real.checksum);
    EXPECT_EQ(Inflated(out.entries[0]), real.payload);
    EXPECT_FALSE(out.proxy_payload_omitted);
  }
  EXPECT_EQ(router.stats().reconstitutions, 1u);
  EXPECT_EQ(router.stats().degraded_to_heartbeat, 1u);  // unchanged
}

/// One member of the relay-rebuild test below: a consensus over its own
/// MemLog, bootstrapped into the shared three-member config.
struct StandaloneMember {
  StandaloneMember(const MemberId& self, const RegionId& region,
                   sim::EventLoop* loop)
      : env(NewMemEnv()), meta(env.get(), "/m") {
    raft::RaftOptions options;
    options.self = self;
    options.region = region;
    consensus = std::make_unique<raft::RaftConsensus>(
        options, &log, &quorum, &meta, loop->clock(), &rng, &outbox,
        &listener);
    MembershipConfig config;
    config.members = {
        {"leader", "r0", MemberKind::kMySql, RaftMemberType::kVoter},
        {"relay", "r1", MemberKind::kMySql, RaftMemberType::kVoter},
        {"lt1a", "r1", MemberKind::kLogtailer, RaftMemberType::kVoter},
    };
    MYRAFT_CHECK(consensus->Bootstrap(config).ok());
  }

  struct NullOutbox : raft::RaftOutbox {
    void Send(Message) override {}
  };
  std::unique_ptr<Env> env;
  raft::ConsensusMetadataStore meta;
  raft::MemLog log;
  raft::MajorityQuorumEngine quorum;
  Random rng{3};
  NullOutbox outbox;
  raft::StateMachineListener listener;
  std::unique_ptr<raft::RaftConsensus> consensus;
};

TEST(ProxyRouterTest, RelayRebuildsFromCacheSpanAndFromLogOnMiss) {
  sim::EventLoop loop(1);
  StandaloneMember relay("relay", "r1", &loop);
  StandaloneMember dest("lt1a", "r1", &loop);
  std::vector<Message> sent;
  ProxyRouter router("relay", "r1", ProxyOptions(), &loop,
                     [&](Message m) { sent.push_back(std::move(m)); });
  router.BindConsensus(relay.consensus.get());

  Random payload_rng(17);
  std::vector<LogEntry> real;
  for (uint64_t i = 1; i <= 4; ++i) {
    std::string chunk(50, '\0');  // repeated below: the span is smaller
    for (char& c : chunk) c = static_cast<char>(payload_rng.Uniform(256));
    std::string payload;
    for (int r = 0; r < 10; ++r) payload += chunk;
    real.push_back(
        LogEntry::Make({3, i}, EntryType::kTransaction, std::move(payload)));
  }
  // Entries 1-2 reach the relay through replication (log + cache);
  // entries 3-4 only through its log, so its cache misses them.
  AppendEntriesRequest to_relay;
  to_relay.leader = "leader";
  to_relay.dest = "relay";
  to_relay.term = 3;
  to_relay.entries = WireForm(std::vector<LogEntry>{real[0], real[1]});
  relay.consensus->HandleMessage(Message(to_relay));
  ASSERT_EQ(relay.consensus->last_logged(), real[1].id);
  ASSERT_TRUE(relay.log.Append(real[2]).ok());
  ASSERT_TRUE(relay.log.Append(real[3]).ok());
  ASSERT_FALSE(relay.consensus->log_cache().Contains(3));

  auto proxy_op = [&](size_t first) {
    AppendEntriesRequest proxied;
    proxied.leader = "leader";
    proxied.dest = "lt1a";
    proxied.route = {"relay"};
    proxied.term = 3;
    proxied.prev = first == 0 ? kZeroOpId : real[first - 1].id;
    proxied.proxy_payload_omitted = true;
    for (size_t i = first; i < first + 2; ++i) {
      LogEntry stripped = real[i];
      stripped.payload.clear();
      proxied.entries.push_back(std::move(stripped));
    }
    return proxied;
  };

  // From the cache: the relay forwards its cached spans as they are.
  EXPECT_TRUE(router.HandleInbound(Message(proxy_op(0))));
  ASSERT_EQ(sent.size(), 1u);
  {
    const auto& out = std::get<AppendEntriesRequest>(sent[0]);
    ASSERT_EQ(out.entries.size(), 2u);
    EXPECT_FALSE(out.proxy_payload_omitted);
    EXPECT_EQ(out.entries[0].shared_payload,
              relay.consensus->log_cache().GetCompressed(1)->compressed);
  }
  // From the log after a cache miss: compressed by the relay.
  EXPECT_TRUE(router.HandleInbound(Message(proxy_op(2))));
  ASSERT_EQ(sent.size(), 2u);
  {
    const auto& out = std::get<AppendEntriesRequest>(sent[1]);
    ASSERT_EQ(out.entries.size(), 2u);
    EXPECT_LT(out.entries[0].payload_bytes().size(), real[2].payload.size());
  }
  EXPECT_EQ(router.stats().reconstitutions, 2u);

  // The destination stores byte-identical, checksum-valid entries.
  for (const Message& m : sent) dest.consensus->HandleMessage(m);
  ASSERT_EQ(dest.consensus->last_logged(), real[3].id);
  for (const LogEntry& want : real) {
    auto stored = dest.log.Read(want.id.index);
    ASSERT_TRUE(stored.ok()) << want.id.ToString();
    EXPECT_EQ(stored->payload, want.payload) << want.id.ToString();
    EXPECT_EQ(stored->checksum, want.checksum);
    EXPECT_TRUE(stored->VerifyChecksum());
  }
}

}  // namespace
}  // namespace myraft::proxy
