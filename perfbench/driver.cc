// Two-clock benchmark driver. Runs one workload as one single-threaded
// process on the simulator and prints one JSON object (last stdout line)
// with both clocks:
//
//   host clock  process CPU (CLOCK_PROCESS_CPUTIME_ID) over a timed window
//               that starts after set-up and warm-up; everything before the
//               window is set-up, measured over several fresh set-ups.
//   sim clock   latencies, throughput and downtime in simulated time; these
//               and every count repeat exactly for a given seed.
//
// The window's size is fixed in simulated work (scaled by --seconds), never
// by host time, so the sim-clock results do not depend on host speed.
//
// Usage:
//   perfbench_driver --workload ring_sysbench|fleet_quiet|failover_reads
//                    [--seed N] [--seconds S] [--setups K]
//                    [--profile-out FILE]   (traced run: SIGPROF samples)
//
// perfbench/run.py builds this binary and turns its report into the
// benchmark's result line; perfbench/README.md documents the workloads.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <malloc.h>
#include <sys/wait.h>
#include <unistd.h>

#include "fleet/fleet.h"
#include "flexiraft/flexiraft.h"
#include "host.h"
#include "ring_load.h"
#include "sim/cluster.h"
#include "util/logging.h"
#include "util/string_util.h"
#include "util/trace.h"

namespace perfbench {
namespace {

using myraft::MemberId;
using myraft::Status;
namespace flexiraft = myraft::flexiraft;
namespace metrics = myraft::metrics;
namespace sim = myraft::sim;
namespace trace = myraft::trace;

constexpr uint64_t kSecond = 1'000'000;

// --- Workload shapes -------------------------------------------------------------

// ring_sysbench: sysbench oltp_write against one 9-member ring.
constexpr int kSysbenchClients = 8;
constexpr uint64_t kSysbenchKeys = 100'000;
// fleet_quiet: many mostly idle rings on one loop.
constexpr int kFleetRings = 64;
constexpr double kFleetWritesPerRingPerSec = 0.25;
constexpr uint64_t kFleetWarmUpMicros = 30 * kSecond;
// Client execute cost jitter (200-600 us) for the open-loop workloads.
// Without it every lease read takes exactly 500 us; with a narrow jitter
// the median still lands on one integer microsecond for most seeds.
constexpr uint64_t kClientJitterMicros = 400;
// Per-node trace ring of the single-ring workloads (the fleet keeps its
// own small default): enough for one failover's analysis.
constexpr size_t kTraceCapacity = 8'192;
// failover_reads (and the failover epilogue of the other two workloads).
constexpr double kFailoverWritesPerSec = 40;
constexpr double kFailoverReadsPerSec = 400;
// One crash per 25 s cycle keeps outage-delayed operations to ~7% of a
// cycle, so each cycle's p99 (>= 10 samples beyond it) sits inside the
// outage tail instead of on the edge between that tail and normal traffic.
// It also gives the restarted member 21 s to catch up before the next
// crash; with 10 s cycles about one ring_sysbench seed in six fell into a
// mode where most failovers needed extra election rounds (2.6 s instead of
// 1.85 s), against one in fifteen at 25 s.
constexpr uint64_t kFailoverCycleMicros = 25 * kSecond;
constexpr uint64_t kRestartAfterMicros = 4 * kSecond;
// Epilogue after the timed window of ring_sysbench / fleet_quiet, where
// those workloads' read and downtime metrics come from: the failover_reads
// mix at a quarter of its rate (its cost is outside the timed window but
// inside every run's wall time), a fault-free lead-in, then crash cycles.
constexpr double kEpilogueRateScale = 0.25;
// The lead-in gives ~3000 reads per ring_sysbench run: 30 beyond the p99.
constexpr uint64_t kEpilogueLeadInMicros = 30 * kSecond;
constexpr int kSysbenchEpilogueCycles = 10;
constexpr int kFleetEpilogueRings = 8;
constexpr int kFleetEpilogueCycles = 2;

// Host-time calibration: simulated work per --seconds, chosen so that the
// timed window takes roughly --seconds of CPU on a 4-core Xeon VM. Fixed
// constants, never measured at run time: the window must be the same
// simulated work on every host.
constexpr double kSysbenchSimSecondsPerSecond = 0.045;
constexpr double kFleetSimSecondsPerSecond = 30.0;
constexpr double kFailoverCyclesPerSecond = 1.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  int setups = 3;
  std::string profile_out;
};

// Requested SIGPROF period; the kernel delivers at most one per tick.
constexpr uint64_t kProfilePeriodMicros = 1'000;

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = atof(value.c_str());
    } else if (flag == "--setups") {
      args->setups = atoi(value.c_str());
    } else if (flag == "--profile-out") {
      args->profile_out = value;
    } else {
      return false;
    }
  }
  return (args->workload == "ring_sysbench" ||
          args->workload == "fleet_quiet" ||
          args->workload == "failover_reads") &&
         args->seconds > 0 && args->setups > 0;
}

// --- Statistics ------------------------------------------------------------------

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(rank));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - lo);
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 50);
}

// --- The simulated world ---------------------------------------------------------

const myraft::raft::QuorumEngine* Engine(flexiraft::QuorumMode mode) {
  static std::map<flexiraft::QuorumMode,
                  std::unique_ptr<flexiraft::FlexiRaftQuorumEngine>>
      engines;
  auto& engine = engines[mode];
  if (engine == nullptr) {
    engine = std::make_unique<flexiraft::FlexiRaftQuorumEngine>(
        flexiraft::FlexiRaftOptions{mode});
  }
  return engine.get();
}

/// One failover's phases (TraceAnalyzer::FailoverBreakdown).
struct FailoverLog {
  std::vector<trace::TraceAnalyzer::FailoverPhases> phases;
  uint64_t durability_checks = 0;
};

struct World {
  // Exactly one of cluster / fleet is set.
  std::unique_ptr<sim::ClusterHarness> cluster;
  std::unique_ptr<myraft::fleet::FleetHarness> fleet;
  sim::EventLoop* loop = nullptr;
  sim::SimNetwork* network = nullptr;
  std::vector<sim::Shard*> shards;
  std::vector<sim::SimClient*> clients;
  // Declared after the harnesses: destroyed first, and the loop (which
  // holds their callbacks) never runs again once they are gone.
  std::vector<std::unique_ptr<RingLoad>> loads;
  uint64_t rss_growth_kb = 0;
  // Largest VmRSS seen while `rss_sampling` is set (the timed window).
  bool rss_sampling = false;
  uint64_t peak_rss_kb = 0;
};

/// Runs the loop for `micros`, sampling VmRSS ten times on the way while
/// the timed window is open.
void RunSampled(World* world, uint64_t micros) {
  if (!world->rss_sampling) {
    world->loop->RunFor(micros);
    return;
  }
  const uint64_t end = world->loop->now() + micros;
  for (int i = 1; i <= 10; ++i) {
    world->loop->RunUntil(end - micros + micros * i / 10);
    ExcludedScope excluded;
    world->peak_rss_kb = std::max(world->peak_rss_kb, RssKb());
  }
}

std::unique_ptr<World> SingleRing(uint64_t seed, sim::ClusterOptions options,
                                  flexiraft::QuorumMode mode, Gates* gates) {
  auto world = std::make_unique<World>();
  options.seed = seed;
  world->cluster =
      std::make_unique<sim::ClusterHarness>(std::move(options), Engine(mode));
  world->loop = world->cluster->loop();
  world->network = world->cluster->network();
  world->shards.push_back(world->cluster->shard());
  world->clients.push_back(world->cluster->client());
  if (!world->cluster->Bootstrap().ok() ||
      world->cluster->WaitForPrimary(60 * kSecond).empty()) {
    gates->Fail("ring never elected a primary");
  }
  world->loads.push_back(std::make_unique<RingLoad>(
      world->shards[0], world->clients[0], seed * 7919 + 1, gates));
  return world;
}

std::unique_ptr<World> SetUp(const Args& args, Gates* gates) {
  const uint64_t rss_before = RssKb();
  std::unique_ptr<World> world;
  if (args.workload == "ring_sysbench") {
    // §6.1 sysbench shape: client co-located with the primary (10 us one
    // way), execute cost 195-395 us, 3 regions x (db + 2 logtailers).
    sim::ClusterOptions options;
    options.topology.db_regions = 3;
    options.topology.logtailers_per_db = 2;
    options.client.one_way_micros = 10;
    options.client.processing_micros = 195;
    options.client.processing_jitter_micros = 200;
    options.trace_capacity = kTraceCapacity;
    world = SingleRing(args.seed, std::move(options),
                       flexiraft::QuorumMode::kSingleRegionDynamic, gates);
    world->loop->RunFor(2 * kSecond);
    world->loads[0]->StartClosedLoop(kSysbenchClients, kSysbenchKeys);
    // Warm-up: the replication pipeline ramps (adaptive windows, relay
    // reconstitution) for ~0.2 simulated seconds before its cost settles.
    world->loop->RunFor(kSecond / 4);
  } else if (args.workload == "failover_reads") {
    // The paper's 5-region deployment, vanilla-majority quorums (a read
    // quorum must leave the leader's region) and LeaseGuard leases.
    sim::ClusterOptions options;
    options.topology.db_regions = 5;
    options.topology.logtailers_per_db = 2;
    options.raft.enable_leader_leases = true;
    options.client.processing_jitter_micros = kClientJitterMicros;
    options.trace_capacity = kTraceCapacity;
    world = SingleRing(args.seed, std::move(options),
                       flexiraft::QuorumMode::kVanillaMajority, gates);
    world->loads[0]->StartOpenLoop(kFailoverWritesPerSec,
                                   kFailoverReadsPerSec,
                                   ValueShape::kFixedRow);
    // Warm-up: reads get a key set, and the set-up is long enough (about
    // a CPU second) to time.
    world->loop->RunFor(kFailoverCycleMicros);
  } else {
    // 64 rings x 9 members on one loop, multi-region commit quorums.
    world = std::make_unique<World>();
    myraft::fleet::FleetOptions options;
    options.shards = kFleetRings;
    options.regions = 3;
    options.seed = args.seed;
    options.worker_budget = kFleetRings;
    options.client.processing_jitter_micros = kClientJitterMicros;
    world->fleet = std::make_unique<myraft::fleet::FleetHarness>(
        options, Engine(flexiraft::QuorumMode::kMultiRegion));
    world->loop = world->fleet->loop();
    world->network = world->fleet->network();
    if (!world->fleet->Bootstrap().ok() ||
        world->fleet->WaitForAllPrimaries(120 * kSecond) != kFleetRings) {
      gates->Fail("not every fleet ring elected a primary");
    }
    for (int i = 0; i < kFleetRings; ++i) {
      world->shards.push_back(world->fleet->shard(i));
      world->clients.push_back(world->fleet->client(i));
      world->loads.push_back(std::make_unique<RingLoad>(
          world->shards[i], world->clients[i],
          args.seed * 7919 + 1 + static_cast<uint64_t>(i), gates));
      world->loads[i]->StartOpenLoop(kFleetWritesPerRingPerSec, 0,
                                     ValueShape::kProductionPareto);
    }
    world->loop->RunFor(kFleetWarmUpMicros);
  }
  const uint64_t rss_after = RssKb();
  world->rss_growth_kb = rss_after > rss_before ? rss_after - rss_before : 0;
  return world;
}

// --- Failover cycles -------------------------------------------------------------

/// The first write a ring acknowledges after its leader crashed: every
/// write acknowledged before the crash must be on the new leader, and the
/// failover's phases are read off the ring's trace journals.
void OnFirstWriteAfterCrash(World* world, int ring, uint64_t crash_micros,
                            const MemberId& crashed, Gates* gates,
                            FailoverLog* log) {
  ExcludedScope excluded;
  sim::Shard* shard = world->shards[ring];
  const MemberId primary = shard->CurrentPrimary();
  if (primary.empty()) {
    gates->Fail("ring " + shard->replicaset() +
                " acknowledged a write but publishes no primary");
    return;
  }
  std::string missing;
  if (!world->loads[ring]->LedgerDurableOn(shard->node(primary)->server(),
                                           crash_micros, &missing)) {
    gates->Fail("write " + missing + " acknowledged before " + crashed +
                " lost power is missing on new leader " + primary);
  }
  ++log->durability_checks;
  std::vector<trace::JournalView> journals = shard->TraceJournals();
  trace::TraceRecord crash;
  crash.kind = trace::RecordKind::kInstant;
  crash.ts_micros = crash_micros;
  crash.category = "fault";
  crash.name = "crash";
  crash.args = "node=" + crashed + " mode=lose_unsynced";
  journals.push_back(trace::JournalView{"bench", {crash}});
  const auto phases = trace::TraceAnalyzer(std::move(journals))
                          .FailoverBreakdown();
  if (phases.complete) log->phases.push_back(phases);
}

/// One fixed cycle on each of `rings`: crash the leader with power loss
/// (unsynced bytes are torn away), restart it kRestartAfterMicros later,
/// run to the end of the kFailoverCycleMicros cycle.
void FailoverCycle(World* world, const std::vector<int>& rings, Gates* gates,
                   FailoverLog* log) {
  std::vector<std::pair<int, MemberId>> crashed;
  for (int ring : rings) {
    sim::Shard* shard = world->shards[ring];
    const MemberId leader = shard->CurrentPrimary();
    if (leader.empty()) {
      gates->Fail("ring " + shard->replicaset() +
                  " has no serving primary at cycle start");
      continue;
    }
    {
      // Journals restart each cycle so the analysis sees one failover.
      ExcludedScope excluded;
      for (const MemberId& id : shard->ids()) {
        shard->node(id)->tracer()->Clear();
      }
    }
    const uint64_t now = world->loop->now();
    world->loads[ring]->NoteCrash(
        now, [world, ring, leader, gates, log](uint64_t crash_micros) {
          OnFirstWriteAfterCrash(world, ring, crash_micros, leader, gates,
                                 log);
        });
    shard->Crash(leader, sim::SimNode::CrashMode::kLoseUnsynced);
    crashed.emplace_back(ring, leader);
  }
  RunSampled(world, kRestartAfterMicros);
  for (const auto& [ring, id] : crashed) {
    const Status status = world->shards[ring]->Restart(id);
    if (!status.ok()) gates->Fail("restart of " + id + ": " + status.ToString());
  }
  RunSampled(world, kFailoverCycleMicros - kRestartAfterMicros);
}

// --- Measurement -----------------------------------------------------------------

/// Registry roll-up over every ring; fleet keys are namespaced per shard
/// ("shard.rs3.raft.x"), so families are matched by suffix.
struct Rollup {
  metrics::MetricSnapshot snapshot;
  uint64_t net_messages = 0;
  uint64_t net_bytes = 0;
  uint64_t net_cross_region_bytes = 0;

  static bool Matches(const std::string& key, const std::string& name) {
    return key == name ||
           (key.size() > name.size() &&
            key.compare(key.size() - name.size(), name.size(), name) == 0 &&
            key[key.size() - name.size() - 1] == '.');
  }
  uint64_t Counter(const std::string& name) const {
    uint64_t sum = 0;
    for (const auto& [key, value] : snapshot.counters) {
      if (Matches(key, name)) sum += value;
    }
    return sum;
  }
  myraft::Histogram Hist(const std::string& name) const {
    myraft::Histogram merged;
    for (const auto& [key, value] : snapshot.histograms) {
      if (Matches(key, name)) merged.Merge(value);
    }
    return merged;
  }
};

Rollup TakeRollup(World* world) {
  ExcludedScope excluded;
  Rollup rollup;
  for (sim::Shard* shard : world->shards) {
    rollup.snapshot.MergeFrom(shard->MetricsRollup());
  }
  for (const auto& [pair, stats] : world->network->link_stats()) {
    rollup.net_messages += stats.messages;
    rollup.net_bytes += stats.bytes;
  }
  rollup.net_cross_region_bytes = world->network->CrossRegionBytes();
  return rollup;
}

/// Host-clock readings at one edge of the timed window.
struct Mark {
  uint64_t sim_micros = 0;
  // Process CPU and heap allocations, minus excluded bookkeeping.
  uint64_t cpu_nanos = 0;
  uint64_t allocs = 0;
};

Mark TakeMark(World* world) {
  return Mark{world->loop->now(), CpuNanos() - ExcludedCpuNanos(),
              AllocCount() - ExcludedAllocCount()};
}

struct Report {
  std::string gate;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::map<std::string, double> host;   // host clock
  std::map<std::string, double> exact;  // sim clock + counts (repeat exactly)
  std::map<std::string, double> samples;  // sample count behind each timing
};

std::vector<double> LatenciesBetween(const std::vector<OpSample>& ops,
                                     uint64_t from, uint64_t to) {
  std::vector<double> out;
  for (const OpSample& op : ops) {
    if (op.done_micros >= from && op.done_micros < to) {
      out.push_back(static_cast<double>(op.latency_micros));
    }
  }
  return out;
}

uint64_t OpsBetween(World* world, uint64_t from, uint64_t to) {
  uint64_t n = 0;
  for (const auto& load : world->loads) {
    for (const auto* ops : {&load->writes(), &load->reads()}) {
      for (const OpSample& op : *ops) {
        if (op.done_micros >= from && op.done_micros < to) ++n;
      }
    }
  }
  return n;
}

void Drain(World* world, Gates* gates) {
  for (auto& load : world->loads) load->StopIssuing();
  const uint64_t deadline = world->loop->now() + 60 * kSecond;
  auto busy = [world]() {
    for (auto& load : world->loads) {
      if (load->outstanding() > 0) return true;
    }
    return false;
  };
  while (busy() && world->loop->now() < deadline) {
    world->loop->RunFor(10'000);
  }
  if (busy()) gates->Fail("operations still outstanding after drain");
}

/// Times one set-up in a forked child, so every timed set-up starts from
/// the same fresh heap and the parent's memory high-water mark covers only
/// the world it measures. Returns the child's CPU seconds, or -1.
double TimeSetUpInChild(const Args& args) {
  int fds[2];
  if (pipe(fds) != 0) return -1;
  const pid_t pid = fork();
  if (pid < 0) return -1;
  if (pid == 0) {
    close(fds[0]);
    Gates gates;
    const uint64_t start = CpuNanos();
    std::unique_ptr<World> world = SetUp(args, &gates);
    const double seconds = static_cast<double>(CpuNanos() - start) / 1e9;
    const bool sent = write(fds[1], &seconds, sizeof(seconds)) ==
                      static_cast<ssize_t>(sizeof(seconds));
    _exit(gates.ok() && sent ? 0 : 1);  // no destructors, no stdio flush
  }
  close(fds[1]);
  double seconds = -1;
  if (read(fds[0], &seconds, sizeof(seconds)) !=
      static_cast<ssize_t>(sizeof(seconds))) {
    seconds = -1;
  }
  close(fds[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  return WIFEXITED(status) && WEXITSTATUS(status) == 0 ? seconds : -1;
}

int Run(const Args& args) {
  Gates gates;
  // All but the last set-up run in children; the last one, in this
  // process, is the world the window measures.
  std::vector<double> setup_seconds;
  for (int i = 1; i < args.setups; ++i) {
    setup_seconds.push_back(TimeSetUpInChild(args));
    if (setup_seconds.back() < 0) gates.Fail("a timed set-up failed");
  }
  const uint64_t setup_start = CpuNanos();
  std::unique_ptr<World> world = SetUp(args, &gates);
  setup_seconds.push_back(static_cast<double>(CpuNanos() - setup_start) /
                          1e9);

  FailoverLog failover_log;
  const bool failover_workload = args.workload == "failover_reads";

  // --- Timed window ---------------------------------------------------------------
  const Rollup before = TakeRollup(world.get());
  if (!args.profile_out.empty()) {
    Sampler::Start(kProfilePeriodMicros, 1u << 20);
  }
  std::vector<uint64_t> cycle_starts;  // failover_reads only
  // Heap a set-up freed goes back to the OS first, so the window's peak
  // RSS is the memory the window itself holds.
  malloc_trim(0);
  world->rss_sampling = true;
  world->peak_rss_kb = RssKb();
  const Mark first = TakeMark(world.get());
  if (args.workload == "ring_sysbench") {
    RunSampled(world.get(), static_cast<uint64_t>(
        args.seconds * kSysbenchSimSecondsPerSecond * kSecond));
  } else if (args.workload == "fleet_quiet") {
    RunSampled(world.get(), static_cast<uint64_t>(
        args.seconds * kFleetSimSecondsPerSecond * kSecond));
  } else {
    const int cycles = std::max(
        3, static_cast<int>(std::lround(args.seconds *
                                        kFailoverCyclesPerSecond)));
    for (int c = 0; c < cycles && gates.ok(); ++c) {
      cycle_starts.push_back(world->loop->now());
      FailoverCycle(world.get(), {0}, &gates, &failover_log);
    }
  }
  const Mark last = TakeMark(world.get());
  if (!args.profile_out.empty()) Sampler::Stop();
  world->rss_sampling = false;
  const Rollup after = TakeRollup(world.get());
  const uint64_t window_from = first.sim_micros;
  const uint64_t window_to = last.sim_micros;

  // fleet_quiet gate: every ring served writes in the window.
  if (args.workload == "fleet_quiet") {
    for (size_t i = 0; i < world->loads.size(); ++i) {
      if (LatenciesBetween(world->loads[i]->writes(), window_from, window_to)
              .empty()) {
        gates.Fail("fleet ring rs" + std::to_string(i) +
                   " acknowledged no write in the window");
      }
    }
  }

  // --- Failover epilogue ------------------------------------------------------------
  // ring_sysbench and fleet_quiet have no reads or crashes in their
  // window; their read and downtime metrics come from these fixed cycles
  // of failover_reads traffic on the workload's own rings.
  uint64_t reads_from = window_from;
  uint64_t reads_to = window_to;
  if (!failover_workload && gates.ok()) {
    Drain(world.get(), &gates);
    std::vector<int> cycle_rings{0};
    int epilogue_cycles = kSysbenchEpilogueCycles;
    if (args.workload == "fleet_quiet") {
      cycle_rings.clear();
      for (int i = 0; i < kFleetEpilogueRings; ++i) {
        cycle_rings.push_back(i * kFleetRings / kFleetEpilogueRings);
      }
      epilogue_cycles = kFleetEpilogueCycles;
    }
    for (int ring : cycle_rings) {
      world->loads[ring]->StartOpenLoop(
          kFailoverWritesPerSec * kEpilogueRateScale,
          kFailoverReadsPerSec * kEpilogueRateScale,
          ValueShape::kFixedRow);
    }
    // Fault-free lead-in: the read latencies of these two workloads.
    reads_from = world->loop->now();
    world->loop->RunFor(kEpilogueLeadInMicros);
    reads_to = world->loop->now();
    for (int c = 0; c < epilogue_cycles && gates.ok(); ++c) {
      FailoverCycle(world.get(), cycle_rings, &gates, &failover_log);
    }
  }

  // --- Final correctness gates ---------------------------------------------------
  if (gates.ok()) Drain(world.get(), &gates);
  world->loop->RunFor(5 * kSecond);  // restarted members catch up
  for (sim::Shard* shard : world->shards) {
    if (!shard->CheckReplicaConsistency()) {
      gates.Fail("replica divergence on ring " + shard->replicaset());
    }
    if (shard->CurrentPrimary().empty()) {
      gates.Fail("ring " + shard->replicaset() + " ends without a primary");
    }
  }
  const Rollup end = TakeRollup(world.get());

  Report report;
  for (const auto& load : world->loads) {
    report.attempted += load->attempted();
    report.failed += load->failed();
  }
  report.gate = gates.failure;

  // --- End-to-end metrics -----------------------------------------------------------
  const uint64_t window_ops = OpsBetween(world.get(), window_from, window_to);
  const double window_sim_s =
      static_cast<double>(window_to - window_from) / kSecond;
  const double window_cpu_s =
      static_cast<double>(last.cpu_nanos - first.cpu_nanos) / 1e9;
  const double ops = window_ops > 0 ? static_cast<double>(window_ops) : 1.0;

  std::vector<double> commit_lat, read_lat, write_down, read_down;
  for (const auto& load : world->loads) {
    const auto w = LatenciesBetween(load->writes(), window_from, window_to);
    commit_lat.insert(commit_lat.end(), w.begin(), w.end());
    const auto r = LatenciesBetween(load->reads(), reads_from, reads_to);
    read_lat.insert(read_lat.end(), r.begin(), r.end());
    for (const Outage& outage : load->outages()) {
      write_down.push_back(outage.write_down_micros / 1e3);
      read_down.push_back(outage.read_down_micros / 1e3);
    }
  }

  report.host["setup_s"] = Median(setup_seconds);
  report.host["host_us_per_op"] = window_cpu_s * 1e6 / ops;
  report.host["host_ms_per_sim_s"] = window_cpu_s * 1e3 / window_sim_s;
  report.host["peak_rss_mb"] = world->peak_rss_kb / 1024.0;
  report.host["window_cpu_s"] = window_cpu_s;
  report.exact["allocs_per_op"] =
      static_cast<double>(last.allocs - first.allocs) / ops;
  report.exact["commit_p50_us"] = Percentile(commit_lat, 50);
  report.exact["commit_p99_us"] = Percentile(commit_lat, 99);
  report.exact["read_p99_us"] = Percentile(read_lat, 99);
  if (failover_workload) {
    // Each cycle repeats one failover experiment; its p99 sits in the
    // outage tail. The median over cycles is steady where a p99 pooled
    // over all cycles would hinge on how many elections went to a second
    // round.
    cycle_starts.push_back(window_to);
    std::vector<double> commit_p99s, read_p99s;
    for (size_t c = 1; c < cycle_starts.size(); ++c) {
      commit_p99s.push_back(Percentile(
          LatenciesBetween(world->loads[0]->writes(), cycle_starts[c - 1],
                           cycle_starts[c]),
          99));
      read_p99s.push_back(Percentile(
          LatenciesBetween(world->loads[0]->reads(), cycle_starts[c - 1],
                           cycle_starts[c]),
          99));
    }
    report.exact["commit_p99_us"] = Median(commit_p99s);
    report.exact["read_p99_us"] = Median(read_p99s);
    report.samples["cycles"] = commit_p99s.size();
  }
  report.exact["commits_per_sim_s"] = commit_lat.size() / window_sim_s;
  report.exact["read_p50_us"] = Percentile(read_lat, 50);
  report.exact["write_downtime_ms"] = Median(write_down);
  report.exact["read_downtime_ms"] = Median(read_down);
  report.samples["setups"] = setup_seconds.size();
  report.samples["commits"] = commit_lat.size();
  report.samples["reads"] = read_lat.size();
  report.samples["outages"] = write_down.size();
  report.samples["window_ops"] = window_ops;
  report.samples["window_sim_s"] = window_sim_s;

  // --- Per-layer counts (window unless noted) ---------------------------------------
  auto delta = [&](const std::string& name) {
    return static_cast<double>(after.Counter(name) - before.Counter(name));
  };
  auto run_delta = [&](const std::string& name) {
    return static_cast<double>(end.Counter(name) - before.Counter(name));
  };
  auto hist_delta = [&](const std::string& name, double p) {
    return after.Hist(name).Delta(before.Hist(name)).Percentile(p);
  };
  auto run_hist_delta = [&](const std::string& name, double p) {
    return end.Hist(name).Delta(before.Hist(name)).Percentile(p);
  };
  auto& L = report.exact;
  L["sim.net.msgs_per_op"] = (after.net_messages - before.net_messages) / ops;
  L["sim.net.bytes_per_op"] = (after.net_bytes - before.net_bytes) / ops;
  L["sim.net.cross_region_bytes_per_op"] =
      (after.net_cross_region_bytes - before.net_cross_region_bytes) / ops;
  L["proxy.reconstitutions_per_op"] = delta("proxy.reconstitutions") / ops;
  L["proxy.bytes_relayed_per_op"] = delta("proxy.bytes_relayed") / ops;
  const double cache_hits = delta("log_cache.hits");
  const double cache_reads = cache_hits + delta("log_cache.misses");
  L["raft.log_cache_reads_per_op"] = cache_reads / ops;
  L["raft.log_cache_hit_ratio"] = cache_reads > 0 ? cache_hits / cache_reads : 0;
  L["raft.heartbeats_per_sim_s"] = delta("raft.heartbeats_sent") / window_sim_s;
  L["raft.group_syncs_per_op"] = delta("raft.group_syncs") / ops;
  L["raft.elections_started"] = run_delta("raft.elections_started");
  L["raft.elections_won"] = run_delta("raft.elections_won");
  L["server.flush_p50_us"] = hist_delta("server.commit_stage_flush_us", 50);
  L["server.consensus_wait_p50_us"] =
      hist_delta("server.commit_stage_consensus_wait_us", 50);
  L["server.consensus_wait_p99_us"] =
      hist_delta("server.commit_stage_consensus_wait_us", 99);
  L["server.engine_commit_p50_us"] =
      hist_delta("server.commit_stage_engine_commit_us", 50);
  L["server.read_wait_p99_us"] = run_hist_delta("server.read_wait_us", 99);
  L["server.promotion_p50_us"] =
      run_hist_delta("server.promotion_latency_us", 50);
  L["binlog.syncs_per_op"] = delta("binlog.syncs") / ops;
  L["binlog.bytes_per_op"] = delta("binlog.bytes_written") / ops;
  std::vector<double> detect, election, promotion, first_write;
  for (const auto& p : failover_log.phases) {
    detect.push_back(p.detect_micros / 1e3);
    election.push_back(p.election_micros / 1e3);
    promotion.push_back(p.promotion_micros / 1e3);
    first_write.push_back(p.first_write_micros / 1e3);
  }
  L["failover.detect_ms"] = Median(detect);
  L["failover.election_ms"] = Median(election);
  L["failover.promotion_ms"] = Median(promotion);
  L["failover.first_write_ms"] = Median(first_write);
  report.samples["failovers_traced"] = failover_log.phases.size();
  report.samples["durability_checks"] = failover_log.durability_checks;
  report.host["fleet.rss_kb_per_ring"] =
      static_cast<double>(world->rss_growth_kb) / world->shards.size();
  uint64_t retries = 0;
  for (const auto& load : world->loads) retries += load->retries();
  L["client.retries"] = retries;
  L["attempted"] = report.attempted;
  L["failed"] = report.failed;

  if (!args.profile_out.empty()) {
    report.samples["profile_samples"] = Sampler::samples();
    report.samples["profile_dropped"] = Sampler::dropped();
    if (!Sampler::WriteTo(args.profile_out)) {
      fprintf(stderr, "cannot write %s\n", args.profile_out.c_str());
      return 1;
    }
  }

  // --- Output -------------------------------------------------------------------------
  auto section = [](const std::map<std::string, double>& values) {
    std::string out = "{";
    for (const auto& [name, value] : values) {
      if (out.size() > 1) out += ",";
      out += myraft::StringPrintf("\"%s\":%.17g", name.c_str(), value);
    }
    return out + "}";
  };
  std::string gate_json;
  for (char c : report.gate) {
    if (c == '"' || c == '\\') gate_json += '\\';
    gate_json += c;
  }
  printf("{\"workload\":\"%s\",\"seed\":%llu,\"correct\":%s,"
         "\"gate\":\"%s\",\"attempted\":%llu,\"failed\":%llu,"
         "\"host\":%s,\"exact\":%s,\"samples\":%s}\n",
         args.workload.c_str(), (unsigned long long)args.seed,
         report.gate.empty() ? "true" : "false", gate_json.c_str(),
         (unsigned long long)report.attempted,
         (unsigned long long)report.failed, section(report.host).c_str(),
         section(report.exact).c_str(), section(report.samples).c_str());
  return report.gate.empty() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    fprintf(stderr,
            "usage: perfbench_driver --workload "
            "ring_sysbench|fleet_quiet|failover_reads [--seed N] "
            "[--seconds S] [--setups K] [--profile-out FILE]\n");
    return 2;
  }
  return perfbench::Run(args);
}
