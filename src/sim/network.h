// Simulated network: latency models, loss, partitions, node attachment.
// Network is the transport type every sender and receiver holds; the wire
// transports (src/wire/serializing_network.h) subclass it.
//
// The network delivers messages between attached endpoints after a sampled
// one-way latency. Messages to detached (crashed / departed) nodes vanish,
// as do messages crossing a partition or an administratively blocked link.
// Delivery order between two nodes is NOT FIFO — each message samples its
// own latency — which deliberately exercises protocol robustness to
// reordering. The network also keeps a fixed ring of its last deliveries,
// which the invariant auditor prints when an invariant breaks.

#ifndef SCATTER_SRC_SIM_NETWORK_H_
#define SCATTER_SRC_SIM_NETWORK_H_

#include <array>
#include <cstdint>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/sim/message.h"
#include "src/sim/scheduler.h"
#include "src/sim/simulator.h"
#include "src/sim/transport.h"

namespace scatter::sim {

// One-way message latency distribution.
struct LatencyModel {
  enum class Kind { kConstant, kUniform, kLogNormal };

  Kind kind = Kind::kConstant;
  // kConstant: `base`. kUniform: uniform in [base, base + spread].
  // kLogNormal: base + LogNormal(mu, sigma), capped at base + 50 * spread.
  TimeMicros base = Millis(1);
  TimeMicros spread = 0;
  double mu = 0.0;
  double sigma = 0.0;

  // A LAN-like profile: ~0.2 ms +/- jitter.
  static LatencyModel Lan();
  // A WAN-like profile: log-normal around tens of milliseconds, matching the
  // shape of PlanetLab inter-node RTT/2 distributions.
  static LatencyModel Wan();

  TimeMicros Sample(Rng& rng) const;
};

struct NetworkConfig {
  LatencyModel latency;
  // Independent per-message drop probability.
  double loss_rate = 0.0;
  // Independent per-message duplication probability (the copy takes its own
  // latency sample, so duplicates also reorder). Protocols must be
  // idempotent against this.
  double duplicate_rate = 0.0;
  // Link bandwidth in bytes per simulated second; adds a serialization
  // delay of ByteSize()/bandwidth to every message. Zero = infinite
  // (latency-only model). Bulk transfers (snapshots, merge data) are the
  // messages this matters for.
  uint64_t bandwidth_bytes_per_sec = 0;

  // Per-node speed heterogeneity: each node gets a deterministic latency
  // multiplier exp(sigma * z) with z ~ N(0,1) derived from its id, and a
  // link's latency scales by the mean of its endpoints' multipliers. Models
  // PlanetLab-style slow nodes; 0 = homogeneous.
  double heterogeneity_sigma = 0.0;
};

// The transport every protocol participant sends through and receives from:
// the in-process implementation plus the shared simulation fabric (latency
// models, loss, duplication, partitions, bandwidth and node-speed
// heterogeneity). The wire-layer transports (serializing, audit) subclass
// it and override only the endpoint handoff (DeliverToEndpoint), so every
// implementation shares one fault-injection surface and identical timing —
// a seeded run behaves the same on all of them.
class Network {
 public:
  Network(Simulator* sim, NetworkConfig config);
  virtual ~Network() = default;
  // Scheduled deliveries capture `this`.
  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  // Attaches an endpoint under `id`. A node that restarts re-attaches.
  void Attach(NodeId id, Endpoint* endpoint);

  // Detaches `id`; in-flight messages to it are dropped on delivery.
  void Detach(NodeId id);

  bool IsAttached(NodeId id) const { return endpoints_.count(id) > 0; }

  // Sends m.from -> m.to (both must be set). Self-sends are delivered with
  // zero latency on the next event-loop turn. The message must not be
  // touched by the sender after this call.
  void Send(MessagePtr message);

  Simulator* simulator() const { return sim_; }

  // Implementation name for diagnostics ("inprocess", "serializing", ...).
  virtual const char* transport_name() const { return "inprocess"; }

  // --- Fault injection -------------------------------------------------
  void set_loss_rate(double p) { config_.loss_rate = p; }

  // Splits the node id space into islands; messages between different
  // islands are dropped. Nodes not listed are unreachable from everyone.
  void Partition(const std::vector<std::vector<NodeId>>& islands);
  void HealPartition();

  // Blocks / unblocks one directed link.
  void BlockLink(NodeId from, NodeId to);
  void UnblockLink(NodeId from, NodeId to);

  // --- Scheduler seam (model checking; see src/sim/scheduler.h) ---------
  // Installs (or clears, with nullptr) the delivery-order scheduler. While
  // installed, every non-self-send that survives the fault fabric is
  // offered to it before any latency is sampled.
  void SetScheduler(Scheduler* scheduler) { scheduler_ = scheduler; }

  // Delivers a message the scheduler previously took ownership of, through
  // the same endpoint path (trace restore, transport override) a normally
  // scheduled delivery would take, after any deferred work (the delivery
  // stands in for the next event). Dropped if the receiver detached.
  void InjectDelivery(const MessagePtr& message) {
    sim_->RunDeferred();
    Deliver(message);
  }

  // Whether the fault fabric currently lets from -> to traffic through
  // (used by the scheduler to keep captured messages "in flight" across a
  // partition instead of delivering through it).
  bool AllowsLink(NodeId from, NodeId to) const {
    return LinkAllows(from, to);
  }

  // --- Stats ------------------------------------------------------------
  uint64_t messages_sent() const { return sent_; }
  uint64_t messages_delivered() const { return delivered_; }
  uint64_t messages_dropped() const { return dropped_; }

  // --- Delivery ring ------------------------------------------------------
  // Every delivery to an attached endpoint leaves its time, event seq, type
  // and endpoints in a fixed ring holding the last kDeliveryRingSize. The
  // invariant auditor prints the ring in its violation artifact: with the
  // seed, it pins down where the deterministic run was when the invariant
  // broke.
  struct Delivery {
    TimeMicros at = 0;
    uint64_t seq = 0;  // Simulator::current_seq() of the delivering event
    MessageType type{};
    NodeId from = kInvalidNode;
    NodeId to = kInvalidNode;
  };
  static constexpr size_t kDeliveryRingSize = 256;
  // The retained deliveries, oldest first.
  std::vector<Delivery> RecentDeliveries() const;

 protected:
  // The endpoint boundary: hands a message that survived the fabric (loss,
  // partition, latency) to its receiver. The base implementation is the
  // zero-copy in-process handoff; wire transports override it to round-trip
  // the message through the codec first.
  virtual void DeliverToEndpoint(Endpoint* endpoint, const MessagePtr& message);

 private:
  bool LinkAllows(NodeId from, NodeId to) const;
  void Deliver(const MessagePtr& message);
  double NodeFactor(NodeId id) const;

  Simulator* sim_;
  NetworkConfig config_;
  Scheduler* scheduler_ = nullptr;
  Rng rng_;
  std::unordered_map<NodeId, Endpoint*> endpoints_;
  // Partition islands: node -> island index. Empty map = no partition.
  std::unordered_map<NodeId, int> island_of_;
  bool partitioned_ = false;
  std::unordered_set<uint64_t> blocked_links_;  // (from << 32) ^ to packed

  uint64_t sent_ = 0;
  uint64_t delivered_ = 0;  // also the delivery ring's write cursor
  uint64_t dropped_ = 0;
  std::array<Delivery, kDeliveryRingSize> deliveries_{};
};

}  // namespace scatter::sim

#endif  // SCATTER_SRC_SIM_NETWORK_H_
