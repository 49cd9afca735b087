// Focused tests of the Scatter client library's retry machinery against a
// scriptable fake server: redirects, busy backoff, deadlines, seed
// fallback, and cache repair — without a real cluster in the loop.

#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/client.h"
#include "src/core/cluster.h"
#include "src/core/messages.h"
#include "src/rpc/rpc_node.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "tests/alloc_counter.h"

// The scripted Steps below use designated initializers that deliberately
// omit fields covered by default member initializers; GCC's
// -Wmissing-field-initializers flags those even though every field is
// initialized (gcc bug 82283).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"
#endif

namespace scatter::core {
namespace {

// Replies to client requests from a script of canned responses; repeats
// the last entry once the script is exhausted.
class FakeServer : public rpc::RpcNode {
 public:
  struct Step {
    StatusCode code = StatusCode::kOk;
    Value value;
    bool found = false;
    std::vector<ring::GroupInfo> updates;
    bool drop = false;  // no reply at all
  };

  FakeServer(NodeId id, sim::Network* net) : RpcNode(id, net) {}

  void OnRequest(const sim::MessagePtr& m) override {
    requests++;
    Step step = script.size() > 1 ? script.front() : script.front();
    if (script.size() > 1) {
      script.pop_front();
    }
    if (step.drop) {
      return;
    }
    auto reply = std::make_shared<ClientReplyMsg>();
    reply->code = step.code;
    reply->value = step.value;
    reply->found = step.found;
    reply->ring_updates = step.updates;
    Reply(*m, std::move(reply));
  }

  std::deque<Step> script{{}};
  int requests = 0;
};

ring::GroupInfo InfoFor(GroupId id, std::vector<NodeId> members,
                        NodeId leader, uint64_t epoch = 1) {
  ring::GroupInfo info;
  info.id = id;
  info.range = ring::KeyRange::Full();
  info.epoch = epoch;
  info.members = std::move(members);
  info.leader = leader;
  return info;
}

class ClientTest : public ::testing::Test {
 protected:
  ClientTest() : sim_(1), net_(&sim_, NetConfig()) {}

  static sim::NetworkConfig NetConfig() {
    sim::NetworkConfig cfg;
    cfg.latency = sim::LatencyModel{.kind = sim::LatencyModel::Kind::kConstant,
                                    .base = Millis(1)};
    return cfg;
  }

  sim::Simulator sim_;
  sim::Network net_;
};

TEST_F(ClientTest, SuccessfulGet) {
  FakeServer server(1, &net_);
  server.script = {{.code = StatusCode::kOk, .value = "v", .found = true}};
  Client client(100, &net_, {1}, ClientConfig());
  StatusOr<Value> got = UnavailableError("pending");
  client.Get(42, [&](StatusOr<Value> r) { got = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v");
  EXPECT_EQ(server.requests, 1);
}

TEST_F(ClientTest, NotFoundPropagates) {
  FakeServer server(1, &net_);
  server.script = {{.code = StatusCode::kOk, .found = false}};
  Client client(100, &net_, {1}, ClientConfig());
  Status status = Status::Ok();
  client.Get(42, [&](StatusOr<Value> r) { status = r.status(); });
  sim_.Run();
  EXPECT_EQ(status.code(), StatusCode::kNotFound);
}

TEST_F(ClientTest, RedirectFollowsRingUpdate) {
  FakeServer wrong(1, &net_);
  FakeServer right(2, &net_);
  wrong.script = {
      {.code = StatusCode::kWrongGroup,
       .updates = {InfoFor(7, {2}, 2)}},
  };
  right.script = {{.code = StatusCode::kOk, .value = "v", .found = true}};
  Client client(100, &net_, {1}, ClientConfig());
  StatusOr<Value> got = UnavailableError("pending");
  client.Get(42, [&](StatusOr<Value> r) { got = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(wrong.requests, 1);
  EXPECT_EQ(right.requests, 1);
  // And the cache stuck: a second op goes straight to the right server.
  got = UnavailableError("pending");
  client.Get(43, [&](StatusOr<Value> r) { got = std::move(r); });
  sim_.Run();
  EXPECT_EQ(wrong.requests, 1);
  EXPECT_EQ(right.requests, 2);
}

TEST_F(ClientTest, BusyServerBackedOffAndRetried) {
  FakeServer server(1, &net_);
  server.script = {
      {.code = StatusCode::kConflict},  // frozen group: busy
      {.code = StatusCode::kConflict},
      {.code = StatusCode::kOk},
  };
  ClientConfig cfg;
  Client client(100, &net_, {1}, cfg);
  Status status = UnavailableError("pending");
  const TimeMicros start = sim_.now();
  client.Put(42, "v", [&](Status s) { status = s; });
  sim_.Run();
  EXPECT_TRUE(status.ok());
  EXPECT_EQ(server.requests, 3);
  // Backoffs actually waited (>= 2 * kClientBackoffMin).
  EXPECT_GE(sim_.now() - start, 2 * kClientBackoffMin);
}

TEST_F(ClientTest, DeadlineBoundsUnresponsiveServer) {
  FakeServer server(1, &net_);
  server.script = {{.drop = true}};
  ClientConfig cfg;
  cfg.op_deadline = Millis(500);
  cfg.rpc_timeout = Millis(100);
  Client client(100, &net_, {1}, cfg);
  Status status = Status::Ok();
  const TimeMicros start = sim_.now();
  client.Get(42, [&](StatusOr<Value> r) { status = r.status(); });
  sim_.Run();
  EXPECT_EQ(status.code(), StatusCode::kTimeout);
  // Close to the configured deadline, not the full attempt budget.
  EXPECT_LE(sim_.now() - start, Millis(800));
}

TEST_F(ClientTest, FallsBackToOtherSeeds) {
  FakeServer dead(1, &net_);  // Will be destroyed (crash) below.
  FakeServer live(2, &net_);
  live.script = {{.code = StatusCode::kOk, .value = "v", .found = true}};
  ClientConfig cfg;
  cfg.rpc_timeout = Millis(50);
  Client client(100, &net_, {1, 2}, cfg);
  // Crash seed 1 before the op. Some attempts hit the void and time out;
  // retries rotate to seed 2.
  net_.Detach(1);
  StatusOr<Value> got = UnavailableError("pending");
  client.Get(42, [&](StatusOr<Value> r) { got = std::move(r); });
  sim_.Run();
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, "v");
  net_.Attach(1, &dead);  // Restore for clean destruction.
}

TEST_F(ClientTest, WritesCarrySequencesReadsDoNot) {
  // Writes carry (client_id, seq) for server-side dedup; reads carry none.
  class CapturingServer : public rpc::RpcNode {
   public:
    CapturingServer(NodeId id, sim::Network* net) : RpcNode(id, net) {}
    void OnRequest(const sim::MessagePtr& m) override {
      const auto& req = sim::As<ClientRequestMsg>(m);
      last_client = req.client_id;
      last_seq = req.client_seq;
      auto reply = std::make_shared<ClientReplyMsg>();
      reply->code = StatusCode::kOk;
      reply->found = true;
      Reply(*m, std::move(reply));
    }
    uint64_t last_client = 0;
    uint64_t last_seq = 0;
  };
  CapturingServer server(1, &net_);
  Client client(100, &net_, {1}, ClientConfig());
  bool done = false;
  client.Put(42, "v", [&](Status) { done = true; });
  sim_.Run();
  ASSERT_TRUE(done);
  EXPECT_EQ(server.last_client, 100u);
  EXPECT_EQ(server.last_seq, 1u);
  client.Get(42, [&](StatusOr<Value>) {});
  sim_.Run();
  EXPECT_EQ(server.last_client, 0u);  // reads are anonymous
  EXPECT_EQ(server.last_seq, 0u);
  client.Delete(42, [&](Status) {});
  sim_.Run();
  EXPECT_EQ(server.last_seq, 2u);  // deletes are sequenced writes
}

// Answers each key of a request on its own: from `outcomes` when the key is
// listed there, else OK with the value "v<key>". Records every request.
class KeyedServer : public rpc::RpcNode {
 public:
  struct Request {
    ClientOp op;
    std::vector<Key> keys;
    TimeMicros at;
  };

  KeyedServer(NodeId id, sim::Network* net, std::vector<NodeId>* arrivals)
      : RpcNode(id, net), arrivals_(arrivals) {}

  void OnRequest(const sim::MessagePtr& m) override {
    const auto& req = sim::As<ClientRequestMsg>(m);
    Request r{req.op, {}, now()};
    for (size_t i = 0; i < req.key_count(); ++i) {
      r.keys.push_back(req.key_at(i));
    }
    requests.push_back(r);
    if (arrivals_ != nullptr) {
      arrivals_->push_back(id());
    }
    if (drop_first > 0) {
      drop_first--;
      return;
    }
    auto reply = std::make_shared<ClientReplyMsg>();
    reply->more_results.resize(r.keys.size() - 1);
    for (size_t i = 0; i < r.keys.size(); ++i) {
      KeyResult result{StatusCode::kOk, true,
                       "v" + std::to_string(r.keys[i])};
      if (auto it = outcomes.find(r.keys[i]); it != outcomes.end()) {
        result = it->second;
      }
      if (i == 0) {
        reply->code = result.code;
        reply->found = result.found;
        reply->value = result.value;
      } else {
        reply->more_results[i - 1] = result;
      }
    }
    reply->ring_updates = updates;
    Reply(*m, std::move(reply));
  }

  std::map<Key, KeyResult> outcomes;
  std::vector<ring::GroupInfo> updates;
  int drop_first = 0;
  std::vector<Request> requests;

 private:
  std::vector<NodeId>* arrivals_;
};

std::vector<std::vector<Key>> KeysOf(const KeyedServer& server) {
  std::vector<std::vector<Key>> out;
  for (const KeyedServer::Request& r : server.requests) {
    out.push_back(r.keys);
  }
  return out;
}

using Keys = std::vector<std::vector<Key>>;

TEST_F(ClientTest, BatchRetriesOnlyTheRedirectedOps) {
  KeyedServer first(1, &net_, nullptr);
  KeyedServer second(2, &net_, nullptr);
  first.outcomes = {
      {2, KeyResult{StatusCode::kOk, false, ""}},
      {3, KeyResult{StatusCode::kNotLeader, false, ""}},
      {4, KeyResult{StatusCode::kWrongGroup, false, ""}},
  };
  first.updates = {InfoFor(7, {2}, 2)};
  Client client(100, &net_, {1}, ClientConfig());
  std::map<Key, StatusOr<Value>> got;
  for (Key key : {1, 2, 3, 4}) {
    client.Get(key, [&got, key](StatusOr<Value> r) {
      got.emplace(key, std::move(r));
    });
  }
  sim_.Run();
  // One request for the four Gets; the two redirected ops, repaired by the
  // reply's ring update, share one retry.
  EXPECT_EQ(KeysOf(first), (Keys{{1, 2, 3, 4}}));
  EXPECT_EQ(KeysOf(second), (Keys{{3, 4}}));
  ASSERT_EQ(got.size(), 4u);
  EXPECT_EQ(*got.at(1), "v1");
  EXPECT_EQ(got.at(2).status().code(), StatusCode::kNotFound);
  EXPECT_EQ(*got.at(3), "v3");
  EXPECT_EQ(*got.at(4), "v4");
  EXPECT_EQ(client.stats().redirects, 2u);
  EXPECT_EQ(client.stats().attempts, 6u);
}

TEST_F(ClientTest, BatchTimeoutBacksOffEachOp) {
  KeyedServer server(1, &net_, nullptr);
  server.drop_first = 1;
  ClientConfig cfg;
  cfg.rpc_timeout = Millis(100);
  Client client(100, &net_, {1}, cfg);
  int ok = 0;
  for (Key key : {1, 2}) {
    client.Get(key, [&ok](StatusOr<Value> r) { ok += r.ok() ? 1 : 0; });
  }
  sim_.Run();
  EXPECT_EQ(ok, 2);
  // Each op drew its own backoff after the shared timeout, so the retries
  // went out in two events, each at least the minimum backoff later.
  ASSERT_EQ(server.requests.size(), 3u);
  EXPECT_EQ(server.requests[0].keys, (std::vector<Key>{1, 2}));
  EXPECT_EQ(server.requests[1].keys.size(), 1u);
  EXPECT_EQ(server.requests[2].keys.size(), 1u);
  EXPECT_NE(server.requests[1].keys, server.requests[2].keys);
  const TimeMicros timed_out = server.requests[0].at + Millis(100);
  for (size_t i = 1; i < 3; ++i) {
    EXPECT_GE(server.requests[i].at, timed_out + kClientBackoffMin);
  }
}

TEST_F(ClientTest, WritesNeverBatch) {
  KeyedServer server(1, &net_, nullptr);
  Client client(100, &net_, {1}, ClientConfig());
  int done = 0;
  client.Put(1, "a", [&done](Status) { done++; });
  client.Put(2, "b", [&done](Status) { done++; });
  client.Delete(3, [&done](Status) { done++; });
  client.Get(4, [&done](StatusOr<Value>) { done++; });
  client.Get(5, [&done](StatusOr<Value>) { done++; });
  sim_.Run();
  EXPECT_EQ(done, 5);
  EXPECT_EQ(KeysOf(server), (Keys{{1}, {2}, {3}, {4, 5}}));
  EXPECT_EQ(server.requests[0].op, ClientOp::kPut);
  EXPECT_EQ(server.requests[2].op, ClientOp::kDelete);
  EXPECT_EQ(server.requests[3].op, ClientOp::kGet);
}

TEST_F(ClientTest, GetsFromTwoEventsNeverShareARequest) {
  KeyedServer server(1, &net_, nullptr);
  Client client(100, &net_, {1}, ClientConfig());
  int done = 0;
  for (Key key : {1, 2}) {
    sim_.Schedule(0, [&client, &done, key] {
      client.Get(key, [&done](StatusOr<Value>) { done++; });
    });
  }
  sim_.Run();
  EXPECT_EQ(done, 2);
  EXPECT_EQ(KeysOf(server), (Keys{{1}, {2}}));
}

TEST_F(ClientTest, GetsToTwoTargetsGiveTwoRequestsInFirstUseOrder) {
  std::vector<NodeId> arrivals;
  KeyedServer low(1, &net_, &arrivals);
  KeyedServer high(2, &net_, &arrivals);
  constexpr Key kMid = Key{1} << 63;
  ring::GroupInfo a = InfoFor(7, {1}, 1);
  a.range = ring::KeyRange{0, kMid};
  ring::GroupInfo b = InfoFor(8, {2}, 2);
  b.range = ring::KeyRange{kMid, 0};
  Client client(100, &net_, {1}, ClientConfig());
  client.SeedRing({a, b});
  int done = 0;
  for (Key key : {kMid + 1, Key{1}, kMid + 2, Key{2}}) {
    client.Get(key, [&done](StatusOr<Value> r) { done += r.ok() ? 1 : 0; });
  }
  sim_.Run();
  EXPECT_EQ(done, 4);
  EXPECT_EQ(KeysOf(high), (Keys{{kMid + 1, kMid + 2}}));
  EXPECT_EQ(KeysOf(low), (Keys{{1, 2}}));
  EXPECT_EQ(arrivals, (std::vector<NodeId>{2, 1}));
}

// Once warmed up, a lease-read Get — the client's op record and request,
// the RPC call-table entry and callback, the leader's read callback and
// reply, and the delivery events both ways — allocates nothing but what
// the value itself needs: with a short (SSO) value, nothing at all. The
// cluster's own background work (heartbeats, periodic load windows) may
// allocate, so only Gets that ran as exactly their two delivery events are
// counted.
TEST(ClientAllocationTest, SteadyLeaseReadGetIsAllocationFree) {
  ClusterConfig cfg;
  cfg.seed = 78;
  cfg.initial_nodes = 3;
  cfg.initial_groups = 1;
  cfg.transport = sim::TransportKind::kInProcess;
  cfg.persistence = ClusterConfig::Persistence::kOff;
  Cluster cluster(cfg);
  cluster.RunFor(Seconds(2));
  Client* client = cluster.AddClient();
  bool seeded = false;
  client->Put(7, "short", [&seeded](Status s) { seeded = s.ok(); });
  while (!seeded) {
    ASSERT_TRUE(cluster.sim().Step());
  }
  Value got;
  const auto get = [&] {
    bool done = false;
    client->Get(7, [&done, &got](StatusOr<Value> v) {
      done = true;
      if (v.ok()) {
        got = std::move(*v);
      }
    });
    while (!done) {
      cluster.sim().Step();
    }
  };
  for (int i = 0; i < 200; ++i) {
    get();
  }
  uint64_t allocations = 0;
  int clean = 0;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t events = cluster.sim().events_processed();
    const uint64_t before = alloc_counter::AllocationCount();
    get();
    const uint64_t allocated = alloc_counter::AllocationCount() - before;
    if (cluster.sim().events_processed() - events == 2) {
      clean++;
      allocations += allocated;
    }
  }
  EXPECT_EQ(got, "short");
  EXPECT_GE(clean, 900);
  EXPECT_EQ(allocations, 0u);
}

// The batched form: eight Gets issued in one event to one leader travel as
// one request and one reply, and, once warmed up, allocate nothing either.
TEST(ClientAllocationTest, SteadyBatchOfEightLeaseReadsIsAllocationFree) {
  ClusterConfig cfg;
  cfg.seed = 78;
  cfg.initial_nodes = 3;
  cfg.initial_groups = 1;
  cfg.transport = sim::TransportKind::kInProcess;
  cfg.persistence = ClusterConfig::Persistence::kOff;
  Cluster cluster(cfg);
  cluster.RunFor(Seconds(2));
  Client* client = cluster.AddClient();
  constexpr Key kKeys = 8;
  int seeded = 0;
  for (Key key = 0; key < kKeys; ++key) {
    client->Put(key, "short", [&seeded](Status s) { seeded += s.ok(); });
  }
  while (seeded < static_cast<int>(kKeys)) {
    ASSERT_TRUE(cluster.sim().Step());
  }
  int found = 0;
  const auto batch = [&] {
    int done = 0;
    for (Key key = 0; key < kKeys; ++key) {
      client->Get(key, [&done, &found](StatusOr<Value> v) {
        done++;
        found += v.ok() && *v == "short";
      });
    }
    while (done < static_cast<int>(kKeys)) {
      cluster.sim().Step();
    }
  };
  for (int i = 0; i < 200; ++i) {
    batch();
  }
  uint64_t allocations = 0;
  int clean = 0;
  found = 0;
  for (int i = 0; i < 1000; ++i) {
    const uint64_t events = cluster.sim().events_processed();
    const uint64_t before = alloc_counter::AllocationCount();
    batch();
    const uint64_t allocated = alloc_counter::AllocationCount() - before;
    if (cluster.sim().events_processed() - events == 2) {
      clean++;
      allocations += allocated;
    }
  }
  EXPECT_EQ(found, 8000);
  EXPECT_GE(clean, 900);
  EXPECT_EQ(allocations, 0u);
}

}  // namespace
}  // namespace scatter::core
