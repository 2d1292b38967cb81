// Raft Proxying (§4.2). The leader keeps all replication bookkeeping
// (safety-wise this is standard Raft); the router sits between
// RaftConsensus and the network and rewrites the *transport* of
// AppendEntries:
//
//  * outbound from the leader, messages to a remote-region member are
//    addressed through a relay in that region, with payloads stripped
//    (PROXY_OP: "request metadata but no payload");
//  * the final relay hop reconstitutes each entry's compressed span from
//    its own log-entry cache (compressing a read of its log on a cache
//    miss); if an entry has not arrived yet it waits a configurable
//    period, then degrades the message to a simple heartbeat;
//  * responses are relayed back upstream through the same tree;
//  * votes are never proxied (§4.2.1);
//  * unhealthy relays are detected via recent-traffic health checks and
//    routed around (§4.2.3).

#ifndef MYRAFT_PROXY_PROXY_ROUTER_H_
#define MYRAFT_PROXY_PROXY_ROUTER_H_

#include <functional>
#include <map>
#include <memory>
#include <string>

#include "raft/consensus.h"
#include "sim/event_loop.h"

namespace myraft::proxy {

struct ProxyOptions {
  bool enabled = true;
  /// How long a relay waits for a missing entry before degrading the
  /// message to a heartbeat.
  uint64_t reconstitute_wait_micros = 100'000;
  uint64_t reconstitute_poll_micros = 10'000;
  /// A relay with no traffic for this long is considered unhealthy and
  /// routed around.
  uint64_t relay_unhealthy_after_micros = 3'000'000;
  /// Destination for "proxy.*" metrics. Null means a private per-instance
  /// registry (unit-test isolation).
  metrics::MetricRegistry* metrics = nullptr;
  /// Optional trace journal; forwarding decisions (proxied / relayed /
  /// reconstituted / degraded) emit "proxy.*" instants stitched to the
  /// trace carried by the AppendEntries batch.
  trace::Tracer* tracer = nullptr;
};

class ProxyRouter final : public raft::RaftOutbox {
 public:
  /// Point-in-time snapshot of the registry-backed "proxy.*" counters.
  struct Stats {
    uint64_t direct_requests = 0;
    uint64_t proxied_requests = 0;       // leader-side PROXY_OPs created
    uint64_t relayed_requests = 0;       // forwarded as intermediate hop
    uint64_t reconstitutions = 0;        // payloads restored at final hop
    uint64_t degraded_to_heartbeat = 0;  // missing entry after wait
    uint64_t relayed_responses = 0;
    uint64_t route_arounds = 0;          // unhealthy relay bypassed
    uint64_t bytes_relayed = 0;          // wire bytes forwarded as a hop
    uint64_t reads_routed_follower = 0;  // reads steered to a follower
    uint64_t reads_routed_leader = 0;    // reads kept on the leader
  };

  using SendFn = std::function<void(Message)>;

  ProxyRouter(MemberId self, RegionId region, ProxyOptions options,
              sim::EventLoop* loop, SendFn lower_send)
      : self_(std::move(self)),
        region_(std::move(region)),
        options_(options),
        loop_(loop),
        lower_send_(std::move(lower_send)),
        created_micros_(loop->now()) {
    metrics::MetricRegistry* registry = options_.metrics;
    if (registry == nullptr) {
      owned_metrics_ = std::make_unique<metrics::MetricRegistry>();
      registry = owned_metrics_.get();
    }
    direct_requests_ = registry->GetCounter("proxy.direct_requests");
    proxied_requests_ = registry->GetCounter("proxy.proxied_requests");
    relayed_requests_ = registry->GetCounter("proxy.relayed_requests");
    reconstitutions_ = registry->GetCounter("proxy.reconstitutions");
    degraded_to_heartbeat_ =
        registry->GetCounter("proxy.degraded_to_heartbeat");
    relayed_responses_ = registry->GetCounter("proxy.relayed_responses");
    route_arounds_ = registry->GetCounter("proxy.route_arounds");
    bytes_relayed_ = registry->GetCounter("proxy.bytes_relayed");
    reads_routed_follower_ =
        registry->GetCounter("proxy.reads_routed_follower");
    reads_routed_leader_ = registry->GetCounter("proxy.reads_routed_leader");
  }

  ~ProxyRouter() {
    // Scheduled reconstitution polls may outlive the router (process
    // crash); they check this guard before touching it.
    *alive_ = false;
  }

  /// Must be called once the consensus instance exists (the router needs
  /// its config, cache and log for relay selection and reconstitution).
  void BindConsensus(raft::RaftConsensus* consensus) {
    consensus_ = consensus;
  }

  // RaftOutbox: outbound messages from the local consensus.
  void Send(Message message) override;

  /// Inbound hook. Returns true if the message was consumed by the proxy
  /// layer (relayed / reconstituted); false if the host should hand it to
  /// the local consensus.
  bool HandleInbound(const Message& message);

  /// Host calls this for every message received from `from` so relay
  /// health can be tracked.
  void ObserveTraffic(const MemberId& from);

  void set_enabled(bool enabled) { options_.enabled = enabled; }
  bool enabled() const { return options_.enabled; }
  Stats stats() const;

  /// Structured routing-state dump for raftstat / flight-recorder bundles
  /// (DESIGN.md §14): enablement, per-member relay health as this node
  /// sees it, and the routing counters.
  std::string DebugStatusJson() const;

  /// Read steering (§13): pick the member a read from `client_region`
  /// should hit. With a nonzero staleness budget and this node leading,
  /// prefers the most caught-up healthy MySQL member in the client's
  /// region whose replication lag (commit marker − match index) fits the
  /// budget; otherwise the read stays on the leader (self when leading,
  /// else the last known leader — "" when none is known). The follower
  /// still read-your-writes gates via SubmitRead, so the budget only
  /// bounds expected wait, never correctness.
  MemberId ChooseReadTarget(const RegionId& client_region,
                            uint64_t staleness_budget_entries) const;

 private:
  /// Relay member for `region` (prefers MySQL voters), or "" when no
  /// healthy relay exists. `allow_self` lets a node recognise itself as
  /// its region's relay (responses then go direct).
  MemberId ChooseRelay(const RegionId& region, bool allow_self) const;
  bool RelayHealthy(const MemberId& relay) const;
  RegionId RegionOf(const MemberId& member) const;

  void RouteRequest(AppendEntriesRequest request);
  void RouteResponse(AppendEntriesResponse response);
  /// Final hop: restore payloads and deliver to the downstream member.
  void ReconstituteAndForward(AppendEntriesRequest request,
                              uint64_t deadline_micros);
  Result<LogEntry> LookupEntry(const LogEntry& proxy_entry) const;

  MemberId self_;
  RegionId region_;
  ProxyOptions options_;
  sim::EventLoop* loop_;
  SendFn lower_send_;
  raft::RaftConsensus* consensus_ = nullptr;

  std::map<MemberId, uint64_t> last_traffic_micros_;
  uint64_t created_micros_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);

  std::unique_ptr<metrics::MetricRegistry> owned_metrics_;
  metrics::Counter* direct_requests_;
  metrics::Counter* proxied_requests_;
  metrics::Counter* relayed_requests_;
  metrics::Counter* reconstitutions_;
  metrics::Counter* degraded_to_heartbeat_;
  metrics::Counter* relayed_responses_;
  metrics::Counter* route_arounds_;
  metrics::Counter* bytes_relayed_;
  metrics::Counter* reads_routed_follower_;
  metrics::Counter* reads_routed_leader_;
};

}  // namespace myraft::proxy

#endif  // MYRAFT_PROXY_PROXY_ROUTER_H_
