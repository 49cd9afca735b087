// Host-cost benchmark for Scatter on the deterministic simulator.
//
//   scatter_perfbench --workload chirpchat|kv_write|churn --seed N
//                     --seconds S --trace 0|1 [--self-check]
//
// One run sets up a cluster (construction, warmup, preload of the key
// population), measures a window of simulated time, drains, and checks the
// outputs. The window is S times the workload's calibrated simulated seconds
// per host second, so every build does the same simulated work for a given
// (seed, S) and the host cost per op is comparable across builds.
//
// --trace 0 prints the end-to-end metrics. --trace 1 runs the same seed
// untraced and then traced, fails unless both report identical simulated
// results, and prints the per-layer metrics. --self-check runs the seed
// twice untraced and twice traced and fails on any mismatch.
//
// The last stdout line is one JSON object with "correct", "attempted",
// "failed" and "metrics"; on a failed correctness check the metrics are
// withheld and the exit code is 1. perfbench/README.md explains the
// workloads and metrics.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/drivers.h"
#include "perfbench/probes.h"
#include "src/churn/churn.h"
#include "src/core/cluster.h"
#include "src/verify/linearizability.h"
#include "src/verify/ring_checker.h"
#include "src/verify/staleness.h"

namespace perfbench {
namespace {

namespace core = scatter::core;
namespace verify = scatter::verify;
using scatter::Millis;
using scatter::Seconds;

constexpr TimeMicros kWarmup = Seconds(3);
constexpr TimeMicros kPreloadBudget = Seconds(60);
constexpr TimeMicros kSlice = Millis(100);
// Host CPU between two machine-speed probes.
constexpr double kSegmentCpuSeconds = 0.05;
constexpr TimeMicros kDrain = Seconds(5);
constexpr size_t kWireSample = 4096;

struct Workload {
  std::string name;
  core::ClusterConfig cluster;
  size_t clients = 8;
  LoadConfig load;
  bool churn = false;
  // Simulated seconds measured per requested second, calibrated so a run on
  // the reference machine takes about --seconds of host time.
  double sim_per_second = 1.0;
  // Simulated settle time after the drain, before the ring checks.
  TimeMicros settle = Seconds(5);
};

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* w) {
  w->name = name;
  w->cluster.seed = seed;
  w->cluster.transport = scatter::sim::TransportKind::kInProcess;
  w->cluster.persistence = core::ClusterConfig::Persistence::kOff;
  if (name == "chirpchat") {
    // E8 with the load-aware policies: lease reads on Zipf-hot walls.
    w->cluster.initial_nodes = 30;
    w->cluster.initial_groups = 6;
    auto& policy = w->cluster.scatter.policy;
    policy.enable_repartition = true;
    policy.load_aware_split = true;
    policy.repartition_imbalance = 2.0;
    policy.repartition_min_keys = 32;
    policy.repartition_min_rate = 100.0;
    w->clients = 8;
    w->load.mix = LoadConfig::Mix::kChirp;
    w->load.think = Millis(2);
    w->load.write_fraction = 0.2;
    w->load.keys = 2000;
    w->load.zipf_s = 1.0;
    w->load.fanin = 8;
    w->sim_per_second = 16.0;
    return true;
  }
  if (name == "kv_write") {
    // Write-heavy: the Paxos commit path, the wire codec and the WAL.
    w->cluster.initial_nodes = 48;
    w->cluster.initial_groups = 8;
    w->cluster.transport = scatter::sim::TransportKind::kSerializing;
    w->cluster.persistence = core::ClusterConfig::Persistence::kOn;
    w->clients = 24;
    w->load.think = Millis(2);
    w->load.write_fraction = 0.9;
    w->load.keys = 2400;
    w->load.record_history = true;
    w->sim_per_second = 1.2;
    return true;
  }
  if (name == "churn") {
    // E1 churn at the sweep's 120 s median lifetime, driven open-loop so
    // requests due while a group has no leader are counted. The 60 s point
    // loses whole groups within minutes, which fails the ring-cover check.
    // An op is bounded by a 30 s deadline alone: the default 64 attempts
    // run out in about 1.4 s of redirects, shorter than a leader failover.
    // 64 clients with one op each carry the open loop (see drivers.h).
    w->cluster.initial_nodes = 48;
    w->cluster.initial_groups = 8;
    w->cluster.client.max_attempts = 100000;
    w->cluster.client.op_deadline = Seconds(30);
    w->clients = 64;
    w->load.open_rate = 1200.0;
    w->load.write_fraction = 0.5;
    w->load.keys = 500;
    w->load.record_history = true;
    w->churn = true;
    w->sim_per_second = 6.0;
    w->settle = Seconds(30);
    return true;
  }
  return false;
}

// Every simulated quantity a run reports; traced and untraced runs of one
// seed must agree on all of it.
struct Fingerprint {
  uint64_t events = 0;
  uint64_t messages_sent = 0;
  TimeMicros end_time = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t window_ops = 0;
  int64_t read_us_sum = 0;
  int64_t write_us_sum = 0;
  size_t history_ops = 0;
  size_t failovers = 0;
  size_t live_nodes = 0;
  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

// Registry and client counters, read before and after the window.
struct Counters {
  uint64_t events = 0;
  uint64_t wire_frames = 0, wire_bytes = 0, pool_hits = 0, pool_misses = 0;
  uint64_t paxos_msgs = 0, committed = 0, accepts = 0, accept_entries = 0;
  uint64_t lease_reads = 0, barrier_reads = 0, elections = 0, snapshots = 0;
  uint64_t wal_appends = 0, wal_fsyncs = 0, wal_bytes = 0, checkpoints = 0;
  uint64_t txn_started = 0, txn_committed = 0, txn_aborted = 0;
  uint64_t ring_lookups = 0, ring_misses = 0;
  uint64_t client_ops = 0, client_attempts = 0, client_redirects = 0;
};

Counters ReadCounters(core::Cluster& cluster) {
  const auto& m = cluster.sim().metrics();
  Counters c;
  c.events = cluster.sim().events_processed();
  c.wire_frames = SumCounter(m, "wire.frames_serialized");
  c.wire_bytes = SumCounter(m, "wire.bytes_serialized");
  c.pool_hits = SumCounter(m, "wire.pool.hit");
  c.pool_misses = SumCounter(m, "wire.pool.miss");
  c.paxos_msgs = SumCounter(m, "paxos.messages_sent");
  c.committed = SumCounter(m, "paxos.entries_committed");
  c.accepts = SumCounter(m, "paxos.accepts_sent");
  c.accept_entries = SumCounter(m, "paxos.accept_entries_sent");
  c.lease_reads = SumCounter(m, "paxos.lease_reads");
  c.barrier_reads = SumCounter(m, "paxos.barrier_reads");
  c.elections = SumCounter(m, "paxos.elections_started");
  c.snapshots = SumCounter(m, "paxos.snapshots_installed");
  c.wal_appends = SumCounter(m, "wal.appends");
  c.wal_fsyncs = SumCounter(m, "wal.fsyncs");
  c.wal_bytes = SumCounter(m, "wal.bytes");
  c.checkpoints = SumCounter(m, "wal.checkpoints");
  c.txn_started = SumCounter(m, "txn.txns_started");
  c.txn_committed = SumCounter(m, "txn.txns_committed");
  c.txn_aborted = SumCounter(m, "txn.txns_aborted");
  c.ring_lookups = SumCounter(m, "ring.lookups");
  c.ring_misses = SumCounter(m, "ring.lookup_misses");
  for (const auto& client : cluster.clients()) {
    const auto& s = client->stats();
    c.client_ops += s.ops_ok + s.ops_not_found + s.ops_failed;
    c.client_attempts += s.attempts;
    c.client_redirects += s.redirects;
  }
  return c;
}

std::string Num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

double Ratio(double num, double den) { return den == 0 ? 0.0 : num / den; }

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// Exact percentile with linear interpolation between order statistics.
double PercentileMs(std::vector<int64_t> v, double p) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  const double pos = p / 100.0 * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return (static_cast<double>(v[lo]) +
          frac * static_cast<double>(v[hi] - v[lo])) /
         1000.0;
}

// The correctness gate must be able to fire. One successful read of the
// recorded history is made to return its key's preloaded value although a
// later write had completed before the read began; the checker has to reject
// that key.
bool GateFires(const verify::HistoryRecorder& history) {
  auto per_key = history.PerKeyHistories();
  for (auto& [key, ops] : per_key) {
    const verify::Operation* preload = nullptr;
    TimeMicros overwritten_at = std::numeric_limits<TimeMicros>::max();
    for (const verify::Operation& op : ops) {
      if (op.type != verify::OpType::kWrite ||
          op.outcome != verify::Outcome::kOk) {
        continue;
      }
      if (op.value.starts_with("pre:")) {
        preload = &op;
      } else {
        overwritten_at = std::min(overwritten_at, op.completed_at);
      }
    }
    if (preload == nullptr) {
      continue;
    }
    for (verify::Operation& op : ops) {
      if (op.type == verify::OpType::kRead &&
          op.outcome == verify::Outcome::kOk && op.invoked_at > overwritten_at &&
          op.value != preload->value) {
        op.value = preload->value;
        return verify::LinearizabilityChecker().CheckKey(ops) == 0;
      }
    }
  }
  return false;
}

struct Metric {
  Metric() = default;
  Metric(double v, std::string u, std::string n = "")
      : value(v), unit(std::move(u)), note(std::move(n)) {}

  double value = 0;
  std::string unit;
  std::string note;  // printed beside the value, e.g. a sample count
};
using Metrics = std::map<std::string, Metric>;

struct RunResult {
  bool correct = true;
  std::vector<std::string> problems;
  Fingerprint fp;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  double host_us_per_op = 0;
  double machine_speed = 1;  // mean scale the probe applied to the window
  Metrics e2e;
  Metrics layer;  // traced runs only
};

void Fail(RunResult* r, const std::string& why) {
  r->correct = false;
  r->problems.push_back(why);
}

RunResult RunOnce(const Workload& w, uint64_t seed, double seconds,
                  bool traced, int setups) {
  RunResult r;
  std::unique_ptr<core::Cluster> cluster;
  std::unique_ptr<Probe> probe;
  std::unique_ptr<LoadDriver> driver;
  // Host CPU time is scaled to reference machine speed by the probe run
  // around each measured segment (see MachineProbe), which cancels most of
  // the slow phases a shared host goes through. Raw figures are printed
  // beside the scaled ones.
  MachineProbe machine;

  // --- Set-up, repeated so its time is a median; the last one is measured.
  std::vector<double> setup_s;
  bool preload_ok = false;
  for (int i = 0; i < setups; ++i) {
    driver.reset();
    probe.reset();
    cluster.reset();
    machine.EndSegment();  // a fresh reading right before the set-up
    const double start = ProcessCpuSeconds();
    cluster = std::make_unique<core::Cluster>(w.cluster);
    cluster->RunFor(kWarmup);
    std::vector<core::Client*> clients;
    for (size_t c = 0; c < w.clients; ++c) {
      clients.push_back(cluster->AddClient());
    }
    if (traced) {
      probe = std::make_unique<Probe>(cluster.get(), seed, kWireSample);
      for (NodeId id : cluster->live_node_ids()) {
        probe->Wrap(id, cluster->node(id));
      }
      for (core::Client* c : clients) {
        probe->Wrap(c->id(), c);
      }
    }
    driver = std::make_unique<LoadDriver>(cluster.get(), clients, w.load,
                                          seed * 0x9e3779b97f4a7c15ULL + 1);
    preload_ok = driver->Preload(kPreloadBudget);
    const double used = ProcessCpuSeconds() - start;
    setup_s.push_back(used * machine.EndSegment());
  }
  if (!preload_ok) {
    Fail(&r, "preload did not complete");
  }
  scatter::sim::Simulator& sim = cluster->sim();

  // --- Churn hooks: timed, and the crash hook notes which ranges lose
  // their leader so the first later success on each gives a failover time.
  struct Failover {
    TimeMicros crashed_at;
    scatter::ring::KeyRange range;
  };
  std::vector<Failover> pending;
  std::vector<int64_t> failover_us;
  std::vector<int64_t> spawn_ns, crash_ns;
  scatter::churn::ChurnHooks hooks = cluster->ChurnHooksFor();
  hooks.crash = [&, crash = hooks.crash](NodeId id) {
    if (core::ScatterNode* node = cluster->node(id)) {
      for (const scatter::ring::GroupInfo& info : node->ServingInfos()) {
        if (info.leader == id) {
          pending.push_back({sim.now(), info.range});
        }
      }
    }
    const int64_t start = NowNs();
    crash(id);
    crash_ns.push_back(NowNs() - start);
    if (probe) {
      probe->Forget(id);
    }
  };
  hooks.spawn = [&, spawn = hooks.spawn]() {
    const int64_t start = NowNs();
    const NodeId id = spawn();
    spawn_ns.push_back(NowNs() - start);
    if (probe) {
      probe->Wrap(id, cluster->node(id));
    }
    return id;
  };
  driver->on_success = [&](Key key, TimeMicros invoked, TimeMicros completed) {
    for (auto it = pending.begin(); it != pending.end();) {
      if (invoked >= it->crashed_at && it->range.Contains(key)) {
        failover_us.push_back(completed - it->crashed_at);
        it = pending.erase(it);
      } else {
        ++it;
      }
    }
  };
  std::unique_ptr<scatter::churn::ChurnDriver> churner;
  if (w.churn) {
    scatter::churn::ChurnConfig cc;
    cc.median_lifetime = Seconds(120);
    churner = std::make_unique<scatter::churn::ChurnDriver>(&sim, hooks, cc);
  }

  // --- Measured window.
  const auto window = static_cast<TimeMicros>(seconds * w.sim_per_second * 1e6);
  const Counters before = ReadCounters(*cluster);
  if (probe) {
    probe->set_active(true);
  }
  driver->Start();
  if (churner) {
    churner->Start();
  }
  const TimeMicros end = sim.now() + window;
  int64_t run_ns = 0;
  double raw_cpu_s = 0;
  double cpu_s = 0;
  machine.EndSegment();  // a fresh reading right before the window
  double segment_start = ProcessCpuSeconds();
  while (sim.now() < end) {
    const int64_t start = NowNs();
    sim.RunUntil(std::min(sim.now() + kSlice, end));
    run_ns += NowNs() - start;
    const double used = ProcessCpuSeconds() - segment_start;
    if (used >= kSegmentCpuSeconds || sim.now() >= end) {
      raw_cpu_s += used;
      cpu_s += used * machine.EndSegment();
      segment_start = ProcessCpuSeconds();
    }
  }
  const Counters after = ReadCounters(*cluster);
  const uint64_t window_ops = driver->stats().completed;
  const size_t window_spawns = spawn_ns.size();
  const size_t window_crashes = crash_ns.size();
  const Ledger window_ledger = probe ? probe->ledger() : Ledger{};

  // --- Drain, then exercise the churn hooks once on every workload so
  // spawn, join and crash are timed on each cluster shape: a node joins
  // before the checks and is crashed after them.
  driver->Stop();
  if (churner) {
    churner->Stop();
  }
  sim.RunFor(kDrain);
  const NodeId joiner = hooks.spawn();
  sim.RunFor(w.settle);
  driver->history().Close(sim.now());

  // --- Correctness.
  const auto cover = verify::CheckQuiescentCover(*cluster);
  const auto agreement = verify::CheckReplicaAgreement(*cluster);
  const bool ring_ok = cover.ok && agreement.ok;
  if (!cover.ok) {
    Fail(&r, "ring cover: " + cover.problems.front());
  }
  if (!agreement.ok) {
    Fail(&r, "replica agreement: " + agreement.problems.front());
  }
  double linearizable = 1;
  double stale_reads = 0;
  if (w.load.record_history) {
    const auto lin = verify::LinearizabilityChecker().CheckAll(
        driver->history().PerKeyHistories());
    linearizable = lin.linearizable && lin.inconclusive.empty() ? 1 : 0;
    if (linearizable == 0) {
      Fail(&r, "linearizability: " + lin.Summary());
    }
    stale_reads = static_cast<double>(
        verify::AuditStaleness(driver->history()).stale_reads);
    if (stale_reads > 0) {
      Fail(&r, "stale reads: " + Num(stale_reads));
    }
    if (!GateFires(driver->history())) {
      Fail(&r, "the checker accepted a history with an altered read");
    }
  }
  hooks.crash(joiner);

  // --- End-to-end metrics.
  const LoadDriver::Stats& stats = driver->stats();
  r.attempted = stats.attempted;
  // An op still pending after the drain failed too.
  r.failed = stats.attempted - stats.reads - stats.writes;
  r.host_us_per_op = Ratio(cpu_s * 1e6, static_cast<double>(window_ops));
  r.machine_speed = Ratio(cpu_s, raw_cpu_s);
  const double window_s = static_cast<double>(window) / 1e6;
  auto count_note = [](size_t n) { return "n=" + std::to_string(n); };
  r.e2e["host_us_per_op"] = {r.host_us_per_op, "us",
                             "ops=" + std::to_string(window_ops)};
  r.e2e["host_us_per_op_raw"] = {
      Ratio(raw_cpu_s * 1e6, static_cast<double>(window_ops)), "us",
      "unscaled"};
  r.e2e["setup_s"] = {Median(setup_s), "s",
                      "median of " + std::to_string(setup_s.size())};
  r.e2e["peak_rss_mb"] = {PeakRssMb(), "MB"};
  r.e2e["sim_ops_per_s"] = {static_cast<double>(window_ops) / window_s,
                            "ops/s"};
  r.e2e["read_p50_ms"] = {PercentileMs(stats.read_us, 50), "ms",
                          count_note(stats.read_us.size())};
  r.e2e["read_p999_ms"] = {PercentileMs(stats.read_us, 99.9), "ms",
                           count_note(stats.read_us.size())};
  r.e2e["write_p50_ms"] = {PercentileMs(stats.write_us, 50), "ms",
                           count_note(stats.write_us.size())};
  r.e2e["write_p999_ms"] = {PercentileMs(stats.write_us, 99.9), "ms",
                            count_note(stats.write_us.size())};
  r.e2e["failed_frac"] = {Ratio(static_cast<double>(r.failed),
                                static_cast<double>(stats.attempted)),
                          "fraction"};
  if (w.churn) {
    std::vector<double> fo(failover_us.begin(), failover_us.end());
    r.e2e["failover_p50_ms"] = {Median(fo) / 1000.0, "ms",
                                count_note(fo.size())};
  }
  if (w.load.open_rate > 0) {
    // How far the open loop fell behind: arrivals waiting for a client.
    r.e2e["backlog_peak"] = {static_cast<double>(stats.backlog_peak), "count"};
  }
  if (w.load.record_history) {
    r.e2e["linearizable"] = {linearizable, "0/1"};
    r.e2e["stale_reads"] = {stale_reads, "count"};
  }
  r.e2e["ring_ok"] = {ring_ok ? 1.0 : 0.0, "0/1"};

  r.fp.events = sim.events_processed();
  r.fp.messages_sent = cluster->net().messages_sent();
  r.fp.end_time = sim.now();
  r.fp.attempted = stats.attempted;
  r.fp.failed = r.failed;
  r.fp.window_ops = window_ops;
  for (int64_t v : stats.read_us) {
    r.fp.read_us_sum += v;
  }
  for (int64_t v : stats.write_us) {
    r.fp.write_us_sum += v;
  }
  r.fp.history_ops = driver->history().total_ops();
  r.fp.failovers = failover_us.size();
  r.fp.live_nodes = cluster->live_node_count();

  if (!traced) {
    return r;
  }

  // --- Per-layer metrics (window deltas, per completed op).
  const double ops = static_cast<double>(window_ops);
  auto per_op = [&](uint64_t a, uint64_t b) {
    return Ratio(static_cast<double>(b - a), ops);
  };
  const Ledger& L = window_ledger;
  auto type_span = [&](MessageType t) {
    return L.deliveries[static_cast<size_t>(t)];
  };
  auto avg_ns = [](const Ledger::Span& s) {
    return Ratio(static_cast<double>(s.ns), static_cast<double>(s.count));
  };
  auto us_per_op = [&](double ns) { return Ratio(ns / 1000.0, ops); };
  int64_t hook_ns = 0;
  for (size_t i = 0; i < window_spawns; ++i) {
    hook_ns += spawn_ns[i];
  }
  for (size_t i = 0; i < window_crashes; ++i) {
    hook_ns += crash_ns[i];
  }
  const WireCost wire = ReplayWire(L.sample);
  const uint64_t frames = after.wire_frames - before.wire_frames;
  const double wire_ns =
      static_cast<double>(frames) * (wire.encode_ns + wire.decode_ns);
  const Ledger::Span handlers = L.TotalSpan();
  const double spans_ns =
      static_cast<double>(handlers.ns + hook_ns) + wire_ns;
  const double residual_ns = static_cast<double>(run_ns) - spans_ns;
  const uint64_t events = after.events - before.events;
  const uint64_t message_events = L.sends + L.self_deliveries;
  auto M = [&](const char* name, double v, const char* unit) {
    r.layer[name] = {v, unit};
  };
  M("sim.events_per_op", Ratio(static_cast<double>(events), ops), "count");
  M("sim.timer_events_per_op",
    Ratio(static_cast<double>(events > message_events ? events - message_events
                                                      : 0),
          ops),
    "count");
  M("sim.ns_per_event",
    Ratio(static_cast<double>(run_ns), static_cast<double>(events)), "ns");
  M("sim.residual_us_per_op", us_per_op(residual_ns), "us");
  M("sim.residual_share", Ratio(residual_ns, static_cast<double>(run_ns)),
    "ratio");
  M("sim.msgs_per_op", Ratio(static_cast<double>(L.sends), ops), "count");
  M("sim.bytes_per_op", Ratio(static_cast<double>(L.send_bytes), ops),
    "count");
  M("sim.pending_peak", static_cast<double>(L.pending_peak), "count");
  M("wire.frames_per_op", per_op(before.wire_frames, after.wire_frames),
    "count");
  M("wire.bytes_per_op", per_op(before.wire_bytes, after.wire_bytes), "count");
  const uint64_t hits = after.pool_hits - before.pool_hits;
  const uint64_t misses = after.pool_misses - before.pool_misses;
  M("wire.pool_hit_ratio",
    Ratio(static_cast<double>(hits), static_cast<double>(hits + misses)),
    "ratio");
  M("wire.encode_ns", wire.encode_ns, "ns");
  M("wire.decode_ns", wire.decode_ns, "ns");
  M("paxos.accept_ns", avg_ns(type_span(MessageType::kPaxosAccept)), "ns");
  M("paxos.accepted_ns", avg_ns(type_span(MessageType::kPaxosAccepted)), "ns");
  M("paxos.accepts_per_op",
    Ratio(static_cast<double>(type_span(MessageType::kPaxosAccept).count), ops),
    "count");
  M("paxos.handler_us_per_op",
    us_per_op(static_cast<double>(L.ModuleSpan(Module::kPaxos).ns)), "us");
  M("paxos.avg_batch",
    Ratio(static_cast<double>(after.accept_entries - before.accept_entries),
          static_cast<double>(after.accepts - before.accepts)),
    "count");
  M("paxos.msgs_per_commit",
    Ratio(static_cast<double>(after.paxos_msgs - before.paxos_msgs),
          static_cast<double>(after.committed - before.committed)),
    "count");
  const uint64_t lease = after.lease_reads - before.lease_reads;
  const uint64_t barrier = after.barrier_reads - before.barrier_reads;
  M("paxos.lease_read_share",
    Ratio(static_cast<double>(lease), static_cast<double>(lease + barrier)),
    "ratio");
  M("paxos.elections", static_cast<double>(after.elections - before.elections),
    "count");
  M("paxos.snapshots_installed",
    static_cast<double>(after.snapshots - before.snapshots), "count");
  M("storage.wal_appends_per_op", per_op(before.wal_appends, after.wal_appends),
    "count");
  M("storage.fsyncs_per_op", per_op(before.wal_fsyncs, after.wal_fsyncs),
    "count");
  M("storage.wal_bytes_per_op", per_op(before.wal_bytes, after.wal_bytes),
    "count");
  M("storage.checkpoints_per_op", per_op(before.checkpoints, after.checkpoints),
    "count");
  M("core.client_request_ns", avg_ns(type_span(MessageType::kClientRequest)),
    "ns");
  M("core.client_reply_ns", avg_ns(type_span(MessageType::kClientReply)), "ns");
  M("core.handler_us_per_op",
    us_per_op(static_cast<double>(L.ModuleSpan(Module::kCore).ns)), "us");
  const double client_ops =
      static_cast<double>(after.client_ops - before.client_ops);
  M("core.attempts_per_op",
    Ratio(static_cast<double>(after.client_attempts - before.client_attempts),
          client_ops),
    "count");
  M("core.redirects_per_op",
    Ratio(static_cast<double>(after.client_redirects - before.client_redirects),
          client_ops),
    "count");
  // Join, spawn and crash cover the window and the post-window exercise.
  M("core.join_ns",
    avg_ns(probe->ledger().deliveries[static_cast<size_t>(
        MessageType::kJoinRequest)]),
    "ns");
  std::vector<double> spawn_ms, crash_ms;
  for (int64_t ns : spawn_ns) {
    spawn_ms.push_back(static_cast<double>(ns) / 1e6);
  }
  for (int64_t ns : crash_ns) {
    crash_ms.push_back(static_cast<double>(ns) / 1e6);
  }
  M("core.spawn_ms", Median(spawn_ms), "ms");
  M("core.crash_ms", Median(crash_ms), "ms");
  M("txn.committed",
    static_cast<double>(after.txn_committed - before.txn_committed), "count");
  M("txn.abort_ratio",
    Ratio(static_cast<double>(after.txn_aborted - before.txn_aborted),
          static_cast<double>(after.txn_started - before.txn_started)),
    "ratio");
  // A share, not a time: most workloads run no transaction in the window.
  M("txn.handler_share",
    Ratio(static_cast<double>(L.ModuleSpan(Module::kTxn).ns),
          static_cast<double>(run_ns)),
    "ratio");
  M("ring.lookup_miss_ratio",
    Ratio(static_cast<double>(after.ring_misses - before.ring_misses),
          static_cast<double>(after.ring_lookups - before.ring_lookups)),
    "ratio");
  M("bench.unattributed_frac", Ratio(raw_cpu_s * 1e9 - spans_ns, raw_cpu_s * 1e9),
    "ratio");
  return r;
}

void PrintMetrics(const char* title, const Metrics& metrics) {
  std::printf("-- %s\n", title);
  for (const auto& [name, m] : metrics) {
    std::printf("%-28s %16.6f %-8s %s\n", name.c_str(), m.value,
                m.unit.c_str(), m.note.c_str());
  }
}

void PrintResultJson(const RunResult& r, const Metrics& metrics) {
  std::string out = "{\"correct\": ";
  out += r.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(r.attempted);
  out += ", \"failed\": " + std::to_string(r.failed);
  out += ", \"metrics\": {";
  bool first = true;
  if (r.correct) {
    for (const auto& [name, m] : metrics) {
      out += first ? "" : ", ";
      first = false;
      out += "\"" + name + "\": {\"value\": " + Num(m.value) +
             ", \"unit\": \"" + m.unit + "\"}";
    }
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void ReportProblems(const RunResult& r) {
  for (const std::string& p : r.problems) {
    std::fprintf(stderr, "perfbench: FAILED %s\n", p.c_str());
  }
}

int Usage() {
  std::fprintf(stderr,
               "usage: scatter_perfbench --workload chirpchat|kv_write|churn "
               "--seed N --seconds S --trace 0|1 [--self-check]\n");
  return 2;
}

int Main(int argc, char** argv) {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  int trace = 0;
  bool self_check = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--self-check") {
      self_check = true;
    } else {
      return Usage();
    }
  }
  Workload w;
  if (!MakeWorkload(workload, seed, &w) || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return Usage();
  }
  std::printf("workload=%s seed=%llu seconds=%g simulated_window_s=%g\n",
              w.name.c_str(), static_cast<unsigned long long>(seed), seconds,
              seconds * w.sim_per_second);

  if (self_check) {
    // Same seed twice untraced and twice traced: the probes must not
    // perturb the run, and the run must repeat exactly.
    const RunResult runs[] = {RunOnce(w, seed, seconds, false, 1),
                              RunOnce(w, seed, seconds, false, 1),
                              RunOnce(w, seed, seconds, true, 1),
                              RunOnce(w, seed, seconds, true, 1)};
    bool ok = true;
    for (const RunResult& run : runs) {
      ReportProblems(run);
      ok = ok && run.correct && run.fp == runs[0].fp;
    }
    std::printf("self-check: events=%llu ops=%llu %s\n",
                static_cast<unsigned long long>(runs[0].fp.events),
                static_cast<unsigned long long>(runs[0].fp.window_ops),
                ok ? "identical" : "MISMATCH");
    return ok ? 0 : 1;
  }

  if (trace == 0) {
    RunResult r = RunOnce(w, seed, seconds, false, 5);
    PrintMetrics("end-to-end", r.e2e);
    ReportProblems(r);
    PrintResultJson(r, r.e2e);
    return r.correct ? 0 : 1;
  }

  const RunResult plain = RunOnce(w, seed, seconds, false, 1);
  RunResult traced = RunOnce(w, seed, seconds, true, 1);
  if (!(plain.fp == traced.fp)) {
    Fail(&traced, "traced run diverged from the untraced run of this seed");
  }
  if (!plain.correct) {
    Fail(&traced, "untraced run failed its checks");
  }
  traced.layer["bench.trace_overhead"] = {
      Ratio(traced.host_us_per_op, plain.host_us_per_op), "ratio"};
  traced.layer["bench.machine_speed"] = {plain.machine_speed, "ratio"};
  PrintMetrics("end-to-end (untraced)", plain.e2e);
  PrintMetrics("per-layer", traced.layer);
  ReportProblems(plain);
  ReportProblems(traced);
  PrintResultJson(traced, traced.layer);
  return traced.correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
