// E10 — microbenchmarks (wall-clock, via google-benchmark).
//
// Measures the building blocks whose cost bounds simulation scale and, for
// the consensus path, the message/commit machinery itself:
//   - the simulator event queue under RPC-timeout churn,
//   - KV store operations and range extraction, and one replica applying
//     a client write (dedup record + store update),
//   - routing cache lookups,
//   - Zipf sampling and histogram recording,
//   - a full Paxos commit (propose -> quorum -> apply) on a simulated LAN,
//   - lease reads vs barrier reads on the same group, and one lease-read
//     RPC round trip alone and 64 deep,
//   - the linearizability checker on sequential histories,
//   - WAL framing + append throughput, crash-recovery replay and one
//     group's checkpoint.

#include <benchmark/benchmark.h>

#include "bench/bench_util.h"
#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/core/cluster.h"
#include "src/core/wire_codecs.h"
#include "src/membership/commands.h"
#include "src/membership/group_state_machine.h"
#include "src/obs/metrics.h"
#include "src/paxos/journal.h"
#include "src/paxos/log.h"
#include "src/paxos/messages.h"
#include "src/paxos/payload_codec.h"
#include "src/ring/ring_map.h"
#include "src/sim/simulator.h"
#include "src/storage/sim_disk.h"
#include "src/storage/wal.h"
#include "src/store/kv_store.h"
#include "src/verify/linearizability.h"
#include "src/wire/buffer.h"
#include "src/wire/codec.h"
#include "src/wire/frame_view.h"

namespace scatter {
namespace {

// The event queue as ChirpChat loads it: a few hundred message deliveries
// in flight, and every client RPC arms an 800 ms timeout that its reply
// cancels about a millisecond later. Each iteration schedules one delivery
// at +0.5-2 ms, arms one timeout through a TimerOwner, cancels the previous
// iteration's timeout and steps once, so ~300 deliveries stay live while
// the clock creeps forward a few microseconds per event.
void BM_SimulatorTimerChurn(benchmark::State& state) {
  constexpr int kLiveDeliveries = 300;
  struct Caller {
    explicit Caller(sim::Simulator* sim) : timers(sim) {}
    uint64_t calls = 0;
    uint64_t timeouts = 0;
    sim::TimerOwner timers;
  };
  sim::Simulator sim(1);
  Rng rng(7);
  Caller caller(&sim);
  uint64_t delivered = 0;
  auto deliver = [&sim, &rng, &delivered]() {
    sim.Schedule(rng.Range(Micros(500), Millis(2)),
                 [&delivered]() { delivered++; });
  };
  for (int i = 0; i < kLiveDeliveries; ++i) {
    deliver();
  }
  sim::TimerId timeout = sim::kInvalidTimer;
  for (auto _ : state) {
    deliver();
    const uint64_t call = ++caller.calls;
    const sim::TimerId next = caller.timers.Schedule(
        Millis(800), [&caller, call]() { caller.timeouts += call; });
    caller.timers.Cancel(timeout);
    timeout = next;
    sim.Step();
  }
  benchmark::DoNotOptimize(delivered);
  benchmark::DoNotOptimize(caller.timeouts);
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_SimulatorTimerChurn);

void BM_KvStorePut(benchmark::State& state) {
  store::KvStore store;
  Rng rng(7);
  for (auto _ : state) {
    store.Put(rng.Next(), "value");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_KvStorePut);

void BM_KvStoreGet(benchmark::State& state) {
  store::KvStore store;
  Rng rng(7);
  std::vector<Key> keys;
  for (int i = 0; i < 100000; ++i) {
    keys.push_back(rng.Next());
    store.Put(keys.back(), "value");
  }
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.Get(keys[i++ % keys.size()]));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_KvStoreGet);

void BM_KvStoreExtractRange(benchmark::State& state) {
  store::KvStore store;
  Rng rng(7);
  for (int i = 0; i < 100000; ++i) {
    store.Put(rng.Next(), "value");
  }
  const ring::KeyRange half{0, uint64_t{1} << 63};
  for (auto _ : state) {
    benchmark::DoNotOptimize(store.ExtractRange(half));
  }
}
BENCHMARK(BM_KvStoreExtractRange);

// Listener for group state machines that never split or merge here.
struct NullGroupListener : membership::GroupListener {
  void OnGroupsFounded(GroupId,
                       const std::vector<membership::FoundingGroup>&) override {
  }
};

// One replica applying one client write, the state-machine cost every
// replica of a kv_write group pays per write: the (client, seq) dedup record,
// then the store update. The group holds kv_write's share of the keys (2,400
// over 8 groups = 300) and dedup entries for its 24 client sessions. Each
// iteration writes the next key for the next client; a client's seq steps
// by 8 per visit because its other writes go to the other 7 groups, so each
// window holds 16 results as it does in kv_write.
void BM_GroupApplyWrite(benchmark::State& state) {
  constexpr uint64_t kKeys = 300;
  constexpr uint64_t kClients = 24;
  constexpr uint64_t kGroups = 8;
  NullGroupListener listener;
  membership::GroupState initial;
  initial.id = 1;
  initial.range = ring::KeyRange::Full();
  initial.epoch = 1;
  membership::GroupStateMachine sm(&listener, std::move(initial));
  sm.BindConfigProvider([] { return std::vector<NodeId>{1, 2, 3}; });
  Rng rng(7);
  std::vector<Key> keys;
  for (uint64_t i = 0; i < kKeys; ++i) {
    keys.push_back(rng.Next());
  }
  std::vector<membership::PutCommand> clients(kClients);
  for (uint64_t c = 0; c < kClients; ++c) {
    clients[c].client_id = c + 1;
    clients[c].value = "value-payload";
  }
  uint64_t index = 0;
  uint64_t next = 0;
  auto apply_next = [&]() {
    membership::PutCommand& cmd = clients[next % kClients];
    cmd.key = keys[next % kKeys];
    cmd.client_seq += kGroups;
    sm.Apply(++index, cmd);
    next++;
  };
  // Fill the store and every dedup window before timing.
  while (next < kKeys * kClients) {
    apply_next();
  }
  for (auto _ : state) {
    apply_next();
  }
  if (sm.stats().puts_applied != next || sm.state().data.size() != kKeys) {
    state.SkipWithError("a write was rejected or a key went missing");
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_GroupApplyWrite);

void BM_RingMapLookup(benchmark::State& state) {
  ring::RingMap map;
  const size_t groups = static_cast<size_t>(state.range(0));
  const uint64_t arc = (~uint64_t{0} / groups) + 1;
  for (size_t i = 0; i < groups; ++i) {
    ring::GroupInfo info;
    info.id = i + 1;
    info.epoch = 1;
    info.range = ring::KeyRange{static_cast<Key>(arc * i),
                                i + 1 == groups
                                    ? Key{0}
                                    : static_cast<Key>(arc * (i + 1))};
    info.members = {1, 2, 3};
    map.Upsert(info);
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(map.Lookup(rng.Next()));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RingMapLookup)->Arg(8)->Arg(64)->Arg(512);

void BM_ZipfSample(benchmark::State& state) {
  Rng rng(5);
  ZipfSampler zipf(1000000, 0.99);
  for (auto _ : state) {
    benchmark::DoNotOptimize(zipf.Sample(rng));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_ZipfSample);

void BM_HistogramRecord(benchmark::State& state) {
  Histogram h;
  Rng rng(5);
  for (auto _ : state) {
    h.Record(static_cast<int64_t>(rng.Below(1000000)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_HistogramRecord);

// Full replicated commits: client-visible puts against a 5-replica group on
// a simulated LAN (measures the whole stack: rpc, paxos, state machine).
// Arg = number of concurrent in-flight proposals (closed loop); each
// benchmark iteration is one committed op, so items_per_second is
// committed-ops/sec. Higher concurrency exercises the leader's group-commit
// batching and pipelining.
void BM_PaxosCommit(benchmark::State& state) {
  // Puts cycle over a fixed key set, so the store's size, and with it the
  // per-op cost, does not grow with the iteration count.
  constexpr uint64_t kKeys = 1024;
  const uint64_t concurrency = static_cast<uint64_t>(state.range(0));
  core::ClusterConfig cfg;
  cfg.seed = 77;
  cfg.initial_nodes = 5;
  cfg.initial_groups = 1;
  // SCATTER_BENCH_OBS=on: the monitoring-overhead leg of the A/B that
  // scripts/bench_snapshot.sh records — tracing, health monitor and
  // timeline all live while the commit path is measured.
  const bool obs = bench::ObsEnabledFromEnv();
  cfg.enable_health_monitor = obs;
  cfg.enable_timeline = obs;
  core::Cluster cluster(cfg);
  if (obs) {
    cluster.sim().EnableTracing();
  }
  cluster.RunFor(Seconds(2));
  core::Client* client = cluster.AddClient();
  uint64_t issued = 0;
  uint64_t completed = 0;
  for (auto _ : state) {
    while (issued - completed < concurrency) {
      client->Put(issued++ % kKeys, "v", [&completed](Status) { completed++; });
    }
    const uint64_t want = completed + 1;
    while (completed < want) {
      cluster.sim().Step();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  // Commit-path efficiency: average Accept batch size and protocol messages
  // per committed op, aggregated over the single group's replicas.
  bench::CommitPathSummary summary;
  uint64_t group_committed = 0;
  for (NodeId id : cluster.live_node_ids()) {
    const core::ScatterNode* node = cluster.node(id);
    for (const auto* sm : node->ServingGroups()) {
      const paxos::Replica* rep = node->GroupReplica(sm->id());
      summary.AbsorbReplica(rep->stats());
      group_committed = std::max<uint64_t>(group_committed,
                                           rep->stats().entries_committed);
    }
  }
  summary.AddCommittedOps(group_committed);
  state.counters["avg_batch"] = summary.AvgBatch();
  state.counters["msgs_per_op"] = summary.MsgsPerCommittedOp();
}
BENCHMARK(BM_PaxosCommit)->Arg(1)->Arg(8)->Arg(64);

// Codec cost in isolation: one frame round-trip of a representative batched
// Accept (8 entries, each a small put). This is the per-delivery overhead
// the serializing transport adds on the hottest protocol message.
void BM_WireAcceptRoundTrip(benchmark::State& state) {
  core::RegisterScatterWireCodecs();
  paxos::AcceptMsg msg(1);
  msg.from = 1;
  msg.to = 2;
  msg.ballot = Ballot{3, 1};
  msg.commit_index = 100;
  for (uint64_t i = 0; i < 8; ++i) {
    paxos::LogEntry e;
    e.index = 100 + i;
    e.ballot = msg.ballot;
    auto cmd = std::make_shared<membership::PutCommand>(i, "value-payload");
    cmd->client_id = 9;
    cmd->client_seq = i;
    e.command = std::move(cmd);
    msg.entries.push_back(std::move(e));
  }
  for (auto _ : state) {
    wire::Buffer frame;
    wire::EncodeFrame(msg, frame);
    size_t consumed = 0;
    benchmark::DoNotOptimize(
        wire::DecodeFrame(frame.data(), frame.size(), &consumed, nullptr));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WireAcceptRoundTrip);

// Builds the representative batched Accept used by the wire benches:
// `entries` small puts sharing one ballot, the shape ReplicateTo emits on
// the commit path.
paxos::AcceptMsg MakeBatchedAccept(uint64_t entries) {
  paxos::AcceptMsg msg(1);
  msg.from = 1;
  msg.to = 2;
  msg.ballot = Ballot{3, 1};
  msg.commit_index = 100;
  for (uint64_t i = 0; i < entries; ++i) {
    paxos::LogEntry e;
    e.index = 100 + i;
    e.ballot = msg.ballot;
    auto cmd = std::make_shared<membership::PutCommand>(i, "value-payload");
    cmd->client_id = 9;
    cmd->client_seq = i;
    e.command = std::move(cmd);
    msg.entries.push_back(std::move(e));
  }
  return msg;
}

// Scatter-gather encode in isolation: the same N-entry batched Accept
// encoded into one reused buffer over and over, the shape of ReplicateTo
// fanning one batch out to peers and retransmitting. After the first
// iteration every command's canonical bytes come from its wire memo, so
// steady state measures header+metadata writes plus one memcpy per command.
// Counters (from the buffer's capacity and the payload-codec memo stats):
//   allocs_per_op      encodes that had to grow the buffer, per encode
//   memo_bytes_per_op  payload bytes served from memos instead of re-encoded
//   bytes_per_op       total frame bytes produced per encode
void BM_WireEncodeBatched(benchmark::State& state) {
  core::RegisterScatterWireCodecs();
  paxos::AcceptMsg msg = MakeBatchedAccept(static_cast<uint64_t>(state.range(0)));
  wire::Buffer frame;
  const paxos::PayloadEncodeStats before = paxos::GetPayloadEncodeStats();
  uint64_t allocs = 0;
  uint64_t bytes = 0;
  for (auto _ : state) {
    frame.clear();
    const size_t capacity = frame.capacity();
    wire::EncodeFrame(msg, frame);
    allocs += frame.capacity() != capacity;
    bytes += frame.size();
    benchmark::DoNotOptimize(frame.data());
    benchmark::ClobberMemory();
  }
  const paxos::PayloadEncodeStats after = paxos::GetPayloadEncodeStats();
  const double iters = static_cast<double>(state.iterations());
  state.counters["allocs_per_op"] = static_cast<double>(allocs) / iters;
  state.counters["memo_bytes_per_op"] =
      static_cast<double>(after.memo_bytes_reused - before.memo_bytes_reused) /
      iters;
  state.counters["bytes_per_op"] = static_cast<double>(bytes) / iters;
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WireEncodeBatched)->Arg(1)->Arg(8)->Arg(64);

// Lazy decode in isolation on the same batched Accept frame. Arg 0: header
// peek only (what routing/tracing/frame-compare consumers pay under
// FrameView). Arg 1: peek + materialize (the full decode a handler-bound
// delivery pays). The spread between the two is the cost lazy decode avoids
// for frames whose payload is never inspected.
void BM_WireDecodeLazy(benchmark::State& state) {
  core::RegisterScatterWireCodecs();
  const bool materialize = state.range(0) != 0;
  paxos::AcceptMsg msg = MakeBatchedAccept(8);
  wire::Buffer frame;
  wire::EncodeFrame(msg, frame);
  for (auto _ : state) {
    wire::FrameView view;
    const bool ok = view.Parse(frame.data(), frame.size());
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(view.to());
    if (materialize) {
      benchmark::DoNotOptimize(view.Materialize());
    }
  }
  state.counters["payload_bytes"] = static_cast<double>(frame.size());
  state.SetLabel(materialize ? "peek+materialize" : "peek");
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_WireDecodeLazy)->Arg(0)->Arg(1);

// Transport A/B on the full commit path: identical seeded cluster and
// closed-loop put workload (concurrency 8), carried either by the zero-copy
// in-process transport (arg 0) or the serializing transport (arg 1). The
// delta is the end-to-end cost of encode -> bytes -> decode per delivery;
// the in-process leg doubles as a guard that the Transport seam itself adds
// nothing to the recorded BM_PaxosCommit baseline.
void BM_TransportCommit(benchmark::State& state) {
  core::ClusterConfig cfg;
  cfg.seed = 77;
  cfg.initial_nodes = 5;
  cfg.initial_groups = 1;
  cfg.transport = state.range(0) == 0 ? sim::TransportKind::kInProcess
                                      : sim::TransportKind::kSerializing;
  core::Cluster cluster(cfg);
  cluster.RunFor(Seconds(2));
  core::Client* client = cluster.AddClient();
  uint64_t issued = 0;
  uint64_t completed = 0;
  for (auto _ : state) {
    while (issued - completed < 8) {
      client->Put(issued++, "v", [&completed](Status) { completed++; });
    }
    const uint64_t want = completed + 1;
    while (completed < want) {
      cluster.sim().Step();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  if (state.range(0) != 0) {
    const obs::MetricsRegistry& metrics = cluster.sim().metrics();
    auto sum = [&metrics](const char* name) {
      uint64_t total = 0;
      metrics.ForEachCounter(name, [&total](NodeId, GroupId, const Counter& c) {
        total += c.value;
      });
      return static_cast<double>(total);
    };
    const double iters = static_cast<double>(state.iterations());
    state.counters["frames_per_op"] = sum("wire.frames_serialized") / iters;
    state.counters["wire_bytes_per_op"] = sum("wire.bytes_serialized") / iters;
    const double hits = sum("wire.pool.hit");
    state.counters["pool_hit_rate"] = hits / (hits + sum("wire.pool.miss"));
  }
  state.SetLabel(cluster.net().transport_name());
}
BENCHMARK(BM_TransportCommit)->Arg(0)->Arg(1);

void BM_LeaseRead(benchmark::State& state) {
  const bool lease = state.range(0) != 0;
  core::ClusterConfig cfg;
  cfg.seed = 78;
  cfg.initial_nodes = 5;
  cfg.initial_groups = 1;
  cfg.scatter.paxos.enable_lease_reads = lease;
  core::Cluster cluster(cfg);
  cluster.RunFor(Seconds(2));
  core::Client* client = cluster.AddClient();
  bool seeded = false;
  client->Put(1, "v", [&seeded](Status) { seeded = true; });
  while (!seeded) {
    cluster.sim().Step();
  }
  for (auto _ : state) {
    bool done = false;
    client->Get(1, [&done](StatusOr<Value>) { done = true; });
    while (!done) {
      cluster.sim().Step();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_LeaseRead)->Arg(1)->Arg(0);

// One ChirpChat-style RPC round trip: a lease-read Get from a Client to its
// group's leader and back on the in-process transport — op record, request,
// call-table entry, two deliveries, the leader's read and reply. The arg is
// the number of Gets kept in flight over distinct keys: 1 times a lone round
// trip, 64 loads the call table and the near-time event wheel the way a
// timeline fan-out does.
void BM_RpcRoundTrip(benchmark::State& state) {
  const uint64_t window = static_cast<uint64_t>(state.range(0));
  core::ClusterConfig cfg;
  cfg.seed = 79;
  cfg.initial_nodes = 3;
  cfg.initial_groups = 1;
  cfg.transport = sim::TransportKind::kInProcess;
  core::Cluster cluster(cfg);
  cluster.RunFor(Seconds(2));
  core::Client* client = cluster.AddClient();
  uint64_t written = 0;
  for (uint64_t k = 0; k < window; ++k) {
    client->Put(k, "wall", [&written](Status) { written++; });
  }
  while (written < window) {
    cluster.sim().Step();
  }
  uint64_t issued = 0;
  uint64_t completed = 0;
  for (auto _ : state) {
    while (issued - completed < window) {
      client->Get(issued++ % window,
                  [&completed](StatusOr<Value>) { completed++; });
    }
    const uint64_t want = completed + 1;
    while (completed < want) {
      cluster.sim().Step();
    }
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_RpcRoundTrip)->Arg(1)->Arg(64);

void BM_LinearizabilityCheckSequential(benchmark::State& state) {
  std::vector<verify::Operation> history;
  TimeMicros t = 0;
  for (uint64_t i = 0; i < static_cast<uint64_t>(state.range(0)); ++i) {
    verify::Operation w;
    w.op_id = 2 * i + 1;
    w.type = verify::OpType::kWrite;
    w.key = 1;
    w.value = "v" + std::to_string(i);
    w.invoked_at = t;
    w.completed_at = t + 5;
    w.outcome = verify::Outcome::kOk;
    history.push_back(w);
    verify::Operation r = w;
    r.op_id = 2 * i + 2;
    r.type = verify::OpType::kRead;
    r.invoked_at = t + 10;
    r.completed_at = t + 15;
    history.push_back(r);
    t += 20;
  }
  verify::LinearizabilityChecker checker;
  for (auto _ : state) {
    benchmark::DoNotOptimize(checker.CheckKey(history));
  }
  state.SetItemsProcessed(
      static_cast<int64_t>(state.iterations()) * state.range(0) * 2);
}
BENCHMARK(BM_LinearizabilityCheckSequential)->Arg(64)->Arg(512);

// One framed WAL append (length prefix + version/type + CRC32 over the
// payload) onto the simulated disk, framed in place in a reused buffer the
// way GroupJournal appends, fsyncing every 8 records the way the replica's
// group-commit scheduler batches barriers. Arg = payload bytes. The file is
// rewritten empty every 4k records (the checkpoint-truncation path) so the
// benchmark measures steady-state append cost, not the cost of growing one
// unbounded file.
void BM_WalAppend(benchmark::State& state) {
  storage::SimDisk disk;
  const std::string file = "bench.wal";
  std::vector<uint8_t> bytes(static_cast<size_t>(state.range(0)), 0xA5);
  wire::Buffer framed;
  uint64_t appended = 0;
  for (auto _ : state) {
    framed.clear();
    const size_t record = storage::BeginWalRecord(/*type=*/2, &framed);
    framed.WriteBytes(bytes.data(), bytes.size());
    storage::EndWalRecord(record, &framed);
    disk.Append(file, framed.data(), framed.size());
    if (++appended % 8 == 0) {
      disk.Sync();
    }
    if (appended % 4096 == 0) {
      disk.Replace(file, nullptr, 0);
    }
  }
  disk.Sync();
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_WalAppend)->Arg(64)->Arg(1024);

// Full crash-recovery replay: a group journal holding a checkpoint plus
// Arg accepted-and-committed PutCommand entries is rebuilt from disk —
// state restore, WAL scan with per-record CRC verification, and command
// decode for every entry. Items/sec is log entries replayed per second.
void BM_RecoveryReplay(benchmark::State& state) {
  core::RegisterScatterWireCodecs();
  storage::SimDisk disk;
  obs::MetricsRegistry metrics;
  const GroupId group = 7;
  paxos::GroupJournal journal(&disk, &metrics, /*node=*/1, group);
  NullGroupListener listener;
  membership::GroupState initial;
  initial.id = group;
  const membership::GroupStateMachine sm(&listener, std::move(initial));
  const Ballot ballot{1, 1};
  journal.WriteCheckpoint({0, Ballot{}, {1, 2, 3}, 0, ballot, 0}, sm,
                          paxos::Log());
  const uint64_t entries = static_cast<uint64_t>(state.range(0));
  for (uint64_t i = 1; i <= entries; ++i) {
    paxos::LogEntry e;
    e.index = i;
    e.ballot = ballot;
    e.command = std::make_shared<membership::PutCommand>(i, "bench-value");
    journal.LogAccept(e);
    journal.LogCommit(i);
    if (i % 8 == 0) {
      journal.Sync();
    }
  }
  journal.Sync();
  membership::GroupState empty;
  empty.id = group;
  membership::GroupStateMachine target(&listener, std::move(empty));
  for (auto _ : state) {
    paxos::RecoveredState recovered;
    const bool ok =
        paxos::GroupJournal::Recover(disk, group, &target, &recovered);
    benchmark::DoNotOptimize(ok);
    benchmark::DoNotOptimize(recovered.entries.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
}
BENCHMARK(BM_RecoveryReplay)->Arg(256)->Arg(2048);

// One group's durable checkpoint, which every kv_write replica writes once
// per 256 applied entries: the header and the live group state encoded
// into the framed snapshot file, then the WAL rewritten to a residual
// suffix of 4 unapplied writes. The group holds Arg keys with kv_write's
// values ("v<client>:<seq>") and a 16-result dedup window for each of
// kv_write's 24 client sessions; a kv_write group holds about 300 keys.
// Bytes/sec is snapshot-file bytes written per second.
void BM_Checkpoint(benchmark::State& state) {
  core::RegisterScatterWireCodecs();
  constexpr uint64_t kClients = 24;
  const uint64_t keys = static_cast<uint64_t>(state.range(0));
  NullGroupListener listener;
  membership::GroupState initial;
  initial.id = 1;
  initial.range = ring::KeyRange::Full();
  initial.epoch = 1;
  Rng rng(7);
  for (uint64_t i = 0; i < keys; ++i) {
    initial.data.Put(rng.Next(), "v" + std::to_string(i % kClients + 1) +
                                     ":" + std::to_string(i / kClients + 1));
  }
  for (uint64_t c = 1; c <= kClients; ++c) {
    membership::DedupEntry& entry = initial.dedup[c];
    entry.max_seq = 128;
    for (uint64_t seq = 8; seq <= entry.max_seq; seq += 8) {
      entry.results[seq] = 0;
    }
  }
  const membership::GroupStateMachine sm(&listener, std::move(initial));
  const uint64_t base = 1024;
  paxos::Log log;
  log.ResetToSnapshot(base);
  for (uint64_t i = base + 1; i <= base + 4; ++i) {
    log.Set(i, Ballot{1, 1},
            std::make_shared<membership::PutCommand>(i, "v1:99999"));
  }
  storage::SimDisk disk;
  obs::MetricsRegistry metrics;
  paxos::GroupJournal journal(&disk, &metrics, /*node=*/1, /*group=*/1);
  const paxos::CheckpointHeader header{base, Ballot{1, 1}, {1, 2, 3}, 0,
                                       Ballot{1, 1}, base};
  for (auto _ : state) {
    journal.WriteCheckpoint(header, sm, log);
  }
  std::vector<uint8_t> snapshot;
  disk.Read(paxos::SnapFileName(1), &snapshot);
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(snapshot.size()));
}
BENCHMARK(BM_Checkpoint)->Arg(300)->Arg(30000);

}  // namespace
}  // namespace scatter

// Expanded BENCHMARK_MAIN so the report carries the build type of the repo
// code under test (see bench::kScatterBuildType for why the library's own
// "library_build_type" field can't be trusted for this).
int main(int argc, char** argv) {
  benchmark::AddCustomContext("scatter_build_type",
                              scatter::bench::kScatterBuildType);
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
