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
// Hot-path mechanics (see DESIGN.md "wire hot path"): frame bytes live in
// pooled buffers (BufferPool), header routing fields are
// read through a lazy FrameView, and both transports publish their traffic
// and pool counters ("wire.*") in the simulation's metrics registry.

#ifndef SCATTER_SRC_WIRE_SERIALIZING_NETWORK_H_
#define SCATTER_SRC_WIRE_SERIALIZING_NETWORK_H_

#include <string>
#include <utility>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/histogram.h"
#include "src/sim/network.h"
#include "src/wire/buffer_pool.h"

namespace scatter::wire {

class SerializingNetwork : public sim::Network {
 public:
  SerializingNetwork(sim::Simulator* sim, sim::NetworkConfig config);

  const char* transport_name() const override { return "serializing"; }

  uint64_t frames_serialized() const { return total_frames_; }
  uint64_t bytes_serialized() const { return total_bytes_; }
  const BufferPool& buffer_pool() const { return pool_; }

 protected:
  void DeliverToEndpoint(sim::Endpoint* endpoint,
                         const sim::MessagePtr& message) override;

 private:
  // Registry cells ("wire.frames_serialized" / "wire.bytes_serialized"),
  // keyed by the frame's destination node — the transport is the one place
  // that reliably knows which node the traffic belongs to, so per-node
  // health and scatter-top columns don't aggregate the whole cluster.
  // Bound lazily per node; plain totals serve the accessors above.
  struct TrafficCells {
    Counter* frames = nullptr;
    Counter* bytes = nullptr;
  };
  TrafficCells& CellsFor(NodeId node);

  BufferPool pool_;
  obs::MetricsRegistry* metrics_;
  FlatMap<NodeId, TrafficCells> traffic_cells_;
  uint64_t total_frames_ = 0;
  uint64_t total_bytes_ = 0;
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

  const BufferPool& buffer_pool() const { return pool_; }

 protected:
  void DeliverToEndpoint(sim::Endpoint* endpoint,
                         const sim::MessagePtr& message) override;

 private:
  void Report(const sim::MessagePtr& message, std::string detail);

  BufferPool pool_;
  bool fail_on_violation_ = true;
  std::vector<Violation> violations_;
};

}  // namespace scatter::wire

#endif  // SCATTER_SRC_WIRE_SERIALIZING_NETWORK_H_
