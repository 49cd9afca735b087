// Wire-layer transports: Network subclasses that route every delivered
// message through the codec registry.
//
// Both reuse the whole simulation fabric (latency, loss, partitions,
// bandwidth) from sim::Network and override only the endpoint handoff, so a
// seeded run takes identical drop/latency decisions on every transport —
// which is what makes cross-transport history comparison meaningful.
//
//   SerializingNetwork  delivers a fresh decoded copy of the encoded bytes:
//                       receivers never share memory with senders, exactly
//                       like a real (TCP) deployment.
//   AuditingNetwork     delivers the original zero-copy message but encodes
//                       it before and after the handler runs, catching
//                       handlers that mutate a delivered (possibly shared)
//                       message, plus any codec that fails to round-trip.
//
// Hot-path mechanics (see DESIGN.md "wire hot path"): each transport encodes
// into its own reused wire::Buffer(s), header routing fields are read
// through a lazy FrameView, and the serializing transport publishes its
// traffic and buffer-reuse counters ("wire.*") in the simulation's metrics
// registry.
//
// One buffer per role is enough because deliveries never nest: every send,
// self-sends included, is scheduled, so a handler's sends are delivered on
// later event-loop turns (DeliverToEndpoint CHECKs this). And the decoded
// copy owns its fields, so nothing reads the frame bytes after the handoff.

#ifndef SCATTER_SRC_WIRE_SERIALIZING_NETWORK_H_
#define SCATTER_SRC_WIRE_SERIALIZING_NETWORK_H_

#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/common/histogram.h"
#include "src/sim/network.h"
#include "src/wire/buffer.h"

namespace scatter::wire {

class SerializingNetwork : public sim::Network {
 public:
  SerializingNetwork(sim::Simulator* sim, sim::NetworkConfig config);

  const char* transport_name() const override { return "serializing"; }

  void Attach(NodeId id, sim::Endpoint* endpoint) override;

 protected:
  void DeliverToEndpoint(sim::Endpoint* endpoint,
                         const sim::MessagePtr& message) override;

 private:
  // Registry cells ("wire.frames_serialized", "wire.bytes_serialized",
  // "wire.pool.hit", "wire.pool.miss"), keyed by the frame's destination
  // node — the transport is the one place that reliably knows which node
  // the traffic belongs to, so per-node health and scatter-top columns
  // don't aggregate the whole cluster. Bound lazily, on a node's first
  // delivery. A hit is a frame encoded into the retained storage of
  // frame_; a miss is one whose encode had to allocate (frame_'s capacity
  // changed).
  struct TrafficCells {
    Counter* frames = nullptr;
    Counter* bytes = nullptr;
    Counter* pool_hit = nullptr;
    Counter* pool_miss = nullptr;
  };

  // What this transport attaches in place of a node's endpoint: the node's
  // endpoint and its traffic cells side by side, so DeliverToEndpoint gets
  // both from the base class's one endpoint lookup. One per node id, kept
  // across restarts (re-attaching swaps `node`).
  struct AttachedNode final : sim::Endpoint {
    void HandleMessage(const sim::MessagePtr& message) override {
      node->HandleMessage(message);
    }
    sim::Endpoint* node = nullptr;
    TrafficCells cells;
  };

  obs::MetricsRegistry* metrics_;
  std::unordered_map<NodeId, AttachedNode> attached_;  // stable addresses
  Buffer frame_;
  bool delivering_ = false;
};

class AuditingNetwork : public sim::Network {
 public:
  AuditingNetwork(sim::Simulator* sim, sim::NetworkConfig config);

  const char* transport_name() const override { return "audit"; }

  struct Violation {
    sim::MessageType type = sim::MessageType::kInvalid;
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
    std::string detail;
  };

  const std::vector<Violation>& violations() const { return violations_; }

  // Default true: a violation CHECK-fails immediately (audit runs exist to
  // die loudly). Tests that prove detection works flip this off and inspect
  // violations() instead.
  void set_fail_on_violation(bool fail) { fail_on_violation_ = fail; }

 protected:
  void DeliverToEndpoint(sim::Endpoint* endpoint,
                         const sim::MessagePtr& message) override;

 private:
  void Report(const sim::MessagePtr& message, std::string detail);

  // The frame as sent, its decode -> re-encode, and the frame after the
  // handler ran.
  Buffer before_;
  Buffer reencoded_;
  Buffer after_;
  bool delivering_ = false;
  bool fail_on_violation_ = true;
  std::vector<Violation> violations_;
};

}  // namespace scatter::wire

#endif  // SCATTER_SRC_WIRE_SERIALIZING_NETWORK_H_
