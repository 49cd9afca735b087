// Transport-seam tests: the serializing transport hands receivers fresh
// decoded copies, the auditing transport catches handlers that mutate
// delivered messages, and — the property the whole seam exists for — a
// seeded run produces the identical history on every transport, so the
// zero-copy in-process default is behaviorally indistinguishable from a
// deployment that ships real bytes.

#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/baseline/chord_messages.h"
#include "src/baseline/wire_codecs.h"
#include "src/common/hash.h"
#include "src/core/cluster.h"
#include "src/obs/metrics.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/wire/codec.h"
#include "src/wire/serializing_network.h"
#include "src/wire/transport_factory.h"

namespace scatter::wire {
namespace {

// Records the delivered message; optionally scribbles on it to simulate a
// buggy handler (the class of bug the audit transport exists to catch).
class RecordingEndpoint : public sim::Endpoint {
 public:
  explicit RecordingEndpoint(bool mutate = false) : mutate_(mutate) {}

  void HandleMessage(const sim::MessagePtr& message) override {
    received_.push_back(message);
    if (mutate_) {
      static_cast<baseline::ChordStoreMsg&>(*message).value = "scribbled";
    }
  }

  const std::vector<sim::MessagePtr>& received() const { return received_; }

 private:
  bool mutate_;
  std::vector<sim::MessagePtr> received_;
};

uint64_t SumCounter(const obs::MetricsRegistry& metrics,
                    const std::string& name) {
  uint64_t total = 0;
  metrics.ForEachCounter(name, [&total](NodeId, GroupId, const Counter& c) {
    total += c.value;
  });
  return total;
}

uint64_t CounterAt(const obs::MetricsRegistry& metrics, const std::string& name,
                   NodeId node) {
  const Counter* counter = metrics.FindCounter(name, node);
  return counter == nullptr ? 0 : counter->value;
}

sim::MessagePtr MakeStore(NodeId from, NodeId to, const Value& value) {
  auto m = std::make_shared<baseline::ChordStoreMsg>();
  m->from = from;
  m->to = to;
  m->key = 7;
  m->value = value;
  return m;
}

TEST(SerializingNetworkTest, DeliversFreshDecodedCopies) {
  baseline::RegisterWireCodecs();
  sim::Simulator sim(1);
  SerializingNetwork net(&sim, sim::NetworkConfig{});
  RecordingEndpoint a;
  RecordingEndpoint b;
  net.Attach(1, &a);
  net.Attach(2, &b);

  sim::MessagePtr sent = MakeStore(1, 2, "hello");
  net.Send(sent);
  sim.RunFor(Seconds(1));

  ASSERT_EQ(b.received().size(), 1u);
  const sim::MessagePtr& got = b.received()[0];
  // The receiver holds a decoded copy, never the sender's allocation.
  EXPECT_NE(got.get(), sent.get());
  EXPECT_EQ(got->type, sim::MessageType::kChordStore);
  EXPECT_EQ(static_cast<const baseline::ChordStoreMsg&>(*got).value, "hello");
  EXPECT_EQ(got->from, 1u);
  EXPECT_EQ(got->to, 2u);
  EXPECT_GE(SumCounter(sim.metrics(), "wire.frames_serialized"), 1u);
  EXPECT_GT(SumCounter(sim.metrics(), "wire.bytes_serialized"), 0u);
}

// A seeded 5-node put workload: every serialized frame is exactly one hit or
// one miss on its destination node, and once the frame buffer has grown to
// the workload's largest frame, encoding allocates nothing.
TEST(SerializingNetworkTest, SteadyStateFramesReuseTheirBuffer) {
  core::ClusterConfig cfg;
  cfg.seed = 77;
  cfg.initial_nodes = 5;
  cfg.initial_groups = 1;
  cfg.transport = sim::TransportKind::kSerializing;
  core::Cluster c(cfg);
  c.RunFor(Seconds(2));
  core::Client* client = c.AddClient();
  const obs::MetricsRegistry& metrics = c.sim().metrics();

  // Closed loop, 8 puts in flight.
  uint64_t issued = 0;
  uint64_t completed = 0;
  auto run_puts = [&](uint64_t n) {
    const uint64_t target = completed + n;
    const TimeMicros deadline = c.sim().now() + Seconds(60);
    while (completed < target && c.sim().now() < deadline) {
      while (issued - completed < 8 && issued < target) {
        client->Put(issued, "value-" + std::to_string(issued),
                    [&completed](Status s) {
                      EXPECT_TRUE(s.ok()) << s.ToString();
                      completed++;
                    });
        issued++;
      }
      c.sim().RunFor(Millis(1));
    }
    ASSERT_EQ(completed, target);
  };

  run_puts(200);
  const uint64_t misses = SumCounter(metrics, "wire.pool.miss");
  EXPECT_GT(misses, 0u);  // the buffer started empty and had to grow
  run_puts(200);
  EXPECT_EQ(SumCounter(metrics, "wire.pool.miss"), misses);

  int nodes = 0;
  metrics.ForEachCounter(
      "wire.frames_serialized",
      [&](NodeId node, GroupId, const Counter& frames) {
        nodes++;
        EXPECT_EQ(CounterAt(metrics, "wire.pool.hit", node) +
                      CounterAt(metrics, "wire.pool.miss", node),
                  frames.value)
            << "node " << node;
      });
  EXPECT_GE(nodes, 5);
}

// A frame past the 128 KiB retention bound does not pin its storage: the
// frame after it has to allocate again.
TEST(SerializingNetworkTest, OversizeFrameStorageIsNotKept) {
  baseline::RegisterWireCodecs();
  sim::Simulator sim(1);
  SerializingNetwork net(&sim, sim::NetworkConfig{});
  RecordingEndpoint a;
  RecordingEndpoint b;
  net.Attach(1, &a);
  net.Attach(2, &b);
  auto deliver = [&](const Value& value) {
    net.Send(MakeStore(1, 2, value));
    sim.RunFor(Seconds(1));
  };
  auto hits = [&] { return CounterAt(sim.metrics(), "wire.pool.hit", 2); };
  auto misses = [&] { return CounterAt(sim.metrics(), "wire.pool.miss", 2); };

  deliver("small");
  EXPECT_EQ(misses(), 1u);  // first frame: the buffer starts empty
  deliver("small");
  EXPECT_EQ(hits(), 1u);
  deliver(Value(200 * 1024, 'x'));
  EXPECT_EQ(misses(), 2u);
  deliver("small");
  EXPECT_EQ(misses(), 3u);  // the 200 KiB storage was given back
  deliver("small");
  EXPECT_EQ(hits(), 2u);
  ASSERT_EQ(b.received().size(), 5u);
  EXPECT_EQ(static_cast<const baseline::ChordStoreMsg&>(*b.received()[2])
                .value.size(),
            200u * 1024);
}

TEST(AuditingNetworkTest, CleanHandlerProducesNoViolations) {
  baseline::RegisterWireCodecs();
  sim::Simulator sim(1);
  AuditingNetwork net(&sim, sim::NetworkConfig{});
  RecordingEndpoint a;
  RecordingEndpoint b(/*mutate=*/false);
  net.Attach(1, &a);
  net.Attach(2, &b);

  net.Send(MakeStore(1, 2, "untouched"));
  sim.RunFor(Seconds(1));

  ASSERT_EQ(b.received().size(), 1u);
  EXPECT_TRUE(net.violations().empty());
}

TEST(AuditingNetworkTest, DetectsHandlerMutatingDeliveredMessage) {
  baseline::RegisterWireCodecs();
  sim::Simulator sim(1);
  AuditingNetwork net(&sim, sim::NetworkConfig{});
  net.set_fail_on_violation(false);  // inspect instead of dying
  RecordingEndpoint a;
  RecordingEndpoint b(/*mutate=*/true);
  net.Attach(1, &a);
  net.Attach(2, &b);

  net.Send(MakeStore(1, 2, "pristine"));
  sim.RunFor(Seconds(1));

  ASSERT_EQ(net.violations().size(), 1u);
  const AuditingNetwork::Violation& v = net.violations()[0];
  EXPECT_EQ(v.type, sim::MessageType::kChordStore);
  EXPECT_EQ(v.from, 1u);
  EXPECT_EQ(v.to, 2u);
  EXPECT_NE(v.detail.find("mutated"), std::string::npos) << v.detail;
}

// --- Cross-transport history equivalence -------------------------------------

struct RunHistory {
  std::vector<std::string> ring;  // authoritative ring, rendered
  std::vector<std::string> ops;   // outcome of every client op, in order
  uint64_t messages_sent = 0;
  uint64_t messages_delivered = 0;
};

// One fixed seeded scenario: bootstrap, a batch of writes, reads back, a
// node crash, more traffic. Everything that happens is a deterministic
// function of the seed and the transport — the test asserts the transport
// part is behaviorally invisible.
RunHistory RunScenario(sim::TransportKind kind) {
  core::ClusterConfig cfg;
  cfg.seed = 42;
  cfg.initial_nodes = 12;
  cfg.initial_groups = 3;
  cfg.transport = kind;
  core::Cluster c(cfg);
  c.RunFor(Seconds(3));

  RunHistory h;
  core::Client* client = c.AddClient();
  auto put = [&](const std::string& name, const Value& value) {
    bool done = false;
    client->Put(KeyFromString(name), value, [&](Status s) {
      done = true;
      h.ops.push_back("put " + name + " -> " + std::string(StatusCodeName(s.code())));
    });
    const TimeMicros deadline = c.sim().now() + Seconds(15);
    while (!done && c.sim().now() < deadline) {
      c.sim().RunFor(Millis(5));
    }
    if (!done) {
      h.ops.push_back("put " + name + " -> (hung)");
    }
  };
  auto get = [&](const std::string& name) {
    bool done = false;
    client->Get(KeyFromString(name), [&](StatusOr<Value> result) {
      done = true;
      h.ops.push_back("get " + name + " -> " +
                      (result.ok() ? *result
                                   : std::string(StatusCodeName(
                                         result.status().code()))));
    });
    const TimeMicros deadline = c.sim().now() + Seconds(15);
    while (!done && c.sim().now() < deadline) {
      c.sim().RunFor(Millis(5));
    }
    if (!done) {
      h.ops.push_back("get " + name + " -> (hung)");
    }
  };

  for (int i = 0; i < 8; ++i) {
    put("key-" + std::to_string(i), "v" + std::to_string(i));
  }
  for (int i = 0; i < 8; ++i) {
    get("key-" + std::to_string(i));
  }
  // Structural churn: lose a node, let the system recover, keep writing.
  c.CrashNode(c.live_node_ids().front());
  c.RunFor(Seconds(5));
  for (int i = 8; i < 12; ++i) {
    put("key-" + std::to_string(i), "v" + std::to_string(i));
    get("key-" + std::to_string(i));
  }
  c.RunFor(Seconds(2));

  for (const ring::GroupInfo& info : c.AuthoritativeRing()) {
    h.ring.push_back(info.ToString());
  }
  h.messages_sent = c.net().messages_sent();
  h.messages_delivered = c.net().messages_delivered();
  return h;
}

TEST(TransportEquivalenceTest, SeededHistoriesAreIdenticalAcrossTransports) {
  const RunHistory inprocess = RunScenario(sim::TransportKind::kInProcess);
  const RunHistory serializing = RunScenario(sim::TransportKind::kSerializing);

  EXPECT_EQ(inprocess.ops, serializing.ops);
  EXPECT_EQ(inprocess.ring, serializing.ring);
  EXPECT_EQ(inprocess.messages_sent, serializing.messages_sent);
  EXPECT_EQ(inprocess.messages_delivered, serializing.messages_delivered);

  // Sanity: the scenario actually exercised the system — every write
  // committed and every read returned the written value.
  ASSERT_EQ(inprocess.ops.size(), 24u);
  for (const std::string& op : inprocess.ops) {
    if (op.rfind("put ", 0) == 0) {
      EXPECT_NE(op.find("-> OK"), std::string::npos) << op;
    } else {
      EXPECT_NE(op.find("-> v"), std::string::npos) << op;
    }
  }
}

TEST(TransportEquivalenceTest, AuditTransportRunsScenarioCleanly) {
  // The audit transport CHECK-fails on the first handler that mutates a
  // delivered message or the first codec that fails to round-trip, so
  // merely completing the scenario is the assertion.
  const RunHistory audit = RunScenario(sim::TransportKind::kAudit);
  const RunHistory inprocess = RunScenario(sim::TransportKind::kInProcess);
  EXPECT_EQ(audit.ops, inprocess.ops);
  EXPECT_EQ(audit.ring, inprocess.ring);
}

TEST(TransportFactoryTest, HonorsExplicitKindOverEnvironment) {
  sim::Simulator sim(1);
  auto inproc =
      MakeNetwork(&sim, sim::NetworkConfig{}, sim::TransportKind::kInProcess);
  auto serializing =
      MakeNetwork(&sim, sim::NetworkConfig{}, sim::TransportKind::kSerializing);
  auto audit =
      MakeNetwork(&sim, sim::NetworkConfig{}, sim::TransportKind::kAudit);
  EXPECT_STREQ(inproc->transport_name(), "inprocess");
  EXPECT_STREQ(serializing->transport_name(), "serializing");
  EXPECT_STREQ(audit->transport_name(), "audit");
}

}  // namespace
}  // namespace scatter::wire
