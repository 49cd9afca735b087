// Outside-in probes for the host-cost benchmark.
//
// Every probe times or counts calls into a layer's public interface, so the
// benchmark measures the tree exactly as shipped:
//   - each node's and client's sim::Endpoint is wrapped and re-attached
//     through Network::Attach; a delivery is one span, attributed to the
//     module that owns its message type;
//   - a pass-through sim::Scheduler counts sends (it never takes a message
//     and consumes no randomness, so the run is unchanged);
//   - a sample of delivered messages is replayed through wire::EncodeFrame
//     and FrameView after the run.
// Deliveries do not nest (each is its own simulator event), so a span's
// self time is its duration.

#ifndef PERFBENCH_PROBES_H_
#define PERFBENCH_PROBES_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <random>
#include <string>
#include <vector>

#include "src/core/cluster.h"
#include "src/obs/metrics.h"
#include "src/sim/message.h"
#include "src/sim/scheduler.h"
#include "src/sim/transport.h"

namespace perfbench {

using scatter::NodeId;
using scatter::sim::MessagePtr;
using scatter::sim::MessageType;

// Monotonic wall clock in nanoseconds, for spans.
int64_t NowNs();
// CPU time of the whole process in seconds.
double ProcessCpuSeconds();
// Peak resident set size of the process in MiB.
double PeakRssMb();

// Machine-speed probe. A shared host slows a process down in phases that
// last seconds (co-tenants contending for caches and memory bandwidth), and
// process CPU time grows with it. A fixed kernel owned by the benchmark
// slows down with it, so its time says how fast the machine runs right now.
// The kernel is allocator churn -- small blocks allocated, touched and freed
// -- which tracked the simulator's slow phases more closely than table
// updates, tree inserts or pointer chasing did.
class MachineProbe {
 public:
  // Kernel time on the reference machine in a quiet phase.
  static constexpr double kReferenceMs = 2.0;

  // Warms the allocator, then takes the first reading.
  MachineProbe();

  // Times the kernel and returns the factor that scales the CPU time of the
  // segment since the previous reading to reference speed: kReferenceMs
  // over the mean of the readings before and after the segment.
  double EndSegment();

 private:
  double RunKernel();

  std::vector<std::unique_ptr<uint64_t[]>> blocks_;
  uint64_t sink_ = 0;
  double last_ms_ = 0;
};

// Modules that own message types, following the blocks of
// SCATTER_MESSAGE_TYPE_LIST.
enum class Module { kRpc, kPaxos, kTxn, kCore, kBaseline };
Module ModuleOf(MessageType type);

inline constexpr size_t kTypeSlots = scatter::sim::kMessageTypeCount + 1;

// Everything the probes record during the measured window.
struct Ledger {
  struct Span {
    uint64_t count = 0;
    int64_t ns = 0;
  };
  std::array<Span, kTypeSlots> deliveries{};  // indexed by MessageType
  uint64_t self_deliveries = 0;
  uint64_t sends = 0;  // non-self sends that passed the fault fabric
  uint64_t send_bytes = 0;
  size_t pending_peak = 0;
  // Reservoir sample of delivered messages, uniform over the window's
  // deliveries so it follows the real message-type mix.
  std::vector<MessagePtr> sample;
  uint64_t sample_seen = 0;

  Span ModuleSpan(Module module) const;
  Span TotalSpan() const;
};

// Installs the endpoint wrappers and the counting scheduler on a cluster and
// removes them again on destruction. Declare it after the cluster it probes.
class Probe : public scatter::sim::Scheduler {
 public:
  Probe(scatter::core::Cluster* cluster, uint64_t seed, size_t sample_size);
  ~Probe() override;

  Probe(const Probe&) = delete;
  Probe& operator=(const Probe&) = delete;

  // Wraps the endpoint attached as `id` (a node or a client).
  void Wrap(NodeId id, scatter::sim::Endpoint* endpoint);
  // Drops the wrapper of a node that has crashed (its endpoint is gone).
  void Forget(NodeId id);

  // Recording happens only while active (the measured window).
  void set_active(bool active) { active_ = active; }
  bool active() const { return active_; }
  Ledger& ledger() { return ledger_; }

  // Scheduler: counts the send and lets the normal latency path proceed.
  bool OnSend(const MessagePtr& message) override;

 private:
  class TracedEndpoint;
  void RecordDelivery(const MessagePtr& message, int64_t ns);

  scatter::core::Cluster* cluster_;
  bool active_ = false;
  Ledger ledger_;
  size_t sample_size_;
  std::mt19937_64 sample_rng_;
  std::map<NodeId, std::unique_ptr<TracedEndpoint>> wrappers_;
};

// Sum of a counter over every (node, group) cell of the registry.
uint64_t SumCounter(const scatter::obs::MetricsRegistry& registry,
                    const std::string& name);

// Host cost of the wire codec on a sample of real messages, per frame.
struct WireCost {
  double encode_ns = 0;
  double decode_ns = 0;  // FrameView parse + materialize
  size_t frames = 0;
};
// Replays `sample` through EncodeFrame and FrameView and reports the median
// over several passes. Every pass encodes freshly decoded copies, which
// carry no payload memos.
WireCost ReplayWire(const std::vector<MessagePtr>& sample);

}  // namespace perfbench

#endif  // PERFBENCH_PROBES_H_
