// Focused tests of the Scatter client library's retry machinery against a
// scriptable fake server: redirects, busy backoff, deadlines, seed
// fallback, and cache repair — without a real cluster in the loop.

#include <deque>
#include <memory>

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

}  // namespace
}  // namespace scatter::core
