#include "perfbench/probes.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <ctime>
#include <string_view>

#include "src/common/logging.h"
#include "src/wire/buffer.h"
#include "src/wire/codec.h"
#include "src/wire/frame_view.h"

namespace perfbench {

namespace sim = scatter::sim;
namespace wire = scatter::wire;

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double ProcessCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

MachineProbe::MachineProbe() {
  RunKernel();
  last_ms_ = RunKernel();
}

double MachineProbe::RunKernel() {
  constexpr int kBlocks = 20000;
  const double start = ProcessCpuSeconds();
  uint64_t x = 0x9e3779b97f4a7c15ULL;
  blocks_.reserve(kBlocks);
  for (int i = 0; i < kBlocks; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    const size_t words = (x >> 3) % 16 + 1;  // 8 to 128 bytes
    blocks_.emplace_back(new uint64_t[words]);
    blocks_.back()[0] = x;
    blocks_.back()[words - 1] = sink_;
  }
  for (const auto& block : blocks_) {
    sink_ += block[0];
  }
  blocks_.clear();
  return (ProcessCpuSeconds() - start) * 1e3;
}

double MachineProbe::EndSegment() {
  const double now_ms = RunKernel();
  const double factor = kReferenceMs / (0.5 * (last_ms_ + now_ms));
  last_ms_ = now_ms;
  return factor;
}

Module ModuleOf(MessageType type) {
  const std::string_view name = sim::MessageTypeName(type);
  if (name.starts_with("Rpc")) {
    return Module::kRpc;
  }
  if (name.starts_with("Paxos")) {
    return Module::kPaxos;
  }
  if (name.starts_with("Txn")) {
    return Module::kTxn;
  }
  if (name.starts_with("Chord")) {
    return Module::kBaseline;
  }
  return Module::kCore;
}

Ledger::Span Ledger::ModuleSpan(Module module) const {
  Span out;
  for (MessageType type : sim::kAllMessageTypes) {
    if (ModuleOf(type) == module) {
      const Span& s = deliveries[static_cast<size_t>(type)];
      out.count += s.count;
      out.ns += s.ns;
    }
  }
  return out;
}

Ledger::Span Ledger::TotalSpan() const {
  Span out;
  for (const Span& s : deliveries) {
    out.count += s.count;
    out.ns += s.ns;
  }
  return out;
}

class Probe::TracedEndpoint : public sim::Endpoint {
 public:
  TracedEndpoint(Probe* probe, sim::Endpoint* inner)
      : probe_(probe), inner_(inner) {}

  sim::Endpoint* inner() const { return inner_; }

  void HandleMessage(const MessagePtr& message) override {
    if (!probe_->active()) {
      inner_->HandleMessage(message);
      return;
    }
    const int64_t start = NowNs();
    inner_->HandleMessage(message);
    probe_->RecordDelivery(message, NowNs() - start);
  }

 private:
  Probe* probe_;
  sim::Endpoint* inner_;
};

Probe::Probe(scatter::core::Cluster* cluster, uint64_t seed,
             size_t sample_size)
    : cluster_(cluster), sample_size_(sample_size), sample_rng_(seed) {
  ledger_.sample.reserve(sample_size_);
  cluster_->net().SetScheduler(this);
}

Probe::~Probe() {
  cluster_->net().SetScheduler(nullptr);
  for (auto& [id, wrapper] : wrappers_) {
    if (cluster_->net().IsAttached(id)) {
      cluster_->net().Attach(id, wrapper->inner());
    }
  }
}

void Probe::Wrap(NodeId id, sim::Endpoint* endpoint) {
  SCATTER_CHECK(endpoint != nullptr);
  auto& slot = wrappers_[id];
  slot = std::make_unique<TracedEndpoint>(this, endpoint);
  cluster_->net().Attach(id, slot.get());
}

void Probe::Forget(NodeId id) { wrappers_.erase(id); }

bool Probe::OnSend(const MessagePtr& message) {
  if (active_) {
    ledger_.sends++;
    ledger_.send_bytes += message->ByteSize();
    ledger_.pending_peak =
        std::max(ledger_.pending_peak, cluster_->sim().pending_events());
  }
  return false;
}

void Probe::RecordDelivery(const MessagePtr& message, int64_t ns) {
  Ledger::Span& span = ledger_.deliveries[static_cast<size_t>(message->type)];
  span.count++;
  span.ns += ns;
  if (message->from == message->to) {
    ledger_.self_deliveries++;
  }
  // Reservoir sampling (Algorithm R) on the benchmark's own generator.
  const uint64_t seen = ledger_.sample_seen++;
  if (ledger_.sample.size() < sample_size_) {
    ledger_.sample.push_back(message);
  } else {
    const uint64_t slot = sample_rng_() % (seen + 1);
    if (slot < sample_size_) {
      ledger_.sample[slot] = message;
    }
  }
}

uint64_t SumCounter(const scatter::obs::MetricsRegistry& registry,
                    const std::string& name) {
  uint64_t total = 0;
  registry.ForEachCounter(
      name, [&](NodeId, scatter::GroupId, const scatter::Counter& c) {
        total += c.value;
      });
  return total;
}

WireCost ReplayWire(const std::vector<MessagePtr>& sample) {
  WireCost cost;
  if (sample.empty()) {
    return cost;
  }
  const size_t n = sample.size();
  wire::Buffer frames;
  std::vector<size_t> offsets;
  offsets.reserve(n + 1);
  for (const MessagePtr& m : sample) {
    offsets.push_back(frames.size());
    wire::EncodeFrame(*m, frames);
  }
  offsets.push_back(frames.size());

  constexpr int kPasses = 7;
  std::vector<double> encode, decode;
  std::vector<MessagePtr> copies(n);
  wire::Buffer out;
  out.Reserve(frames.size());
  for (int pass = 0; pass < kPasses; ++pass) {
    copies.assign(n, nullptr);
    const int64_t t0 = NowNs();
    for (size_t i = 0; i < n; ++i) {
      wire::FrameView view;
      std::string error;
      if (!view.Parse(frames.data() + offsets[i], offsets[i + 1] - offsets[i],
                      &error)) {
        SCATTER_ERROR() << "wire replay: frame failed to parse: " << error;
        SCATTER_CHECK(false);
      }
      copies[i] = view.Materialize(&error);
      SCATTER_CHECK(copies[i] != nullptr);
    }
    const int64_t t1 = NowNs();
    out.clear();
    for (size_t i = 0; i < n; ++i) {
      wire::EncodeFrame(*copies[i], out);
    }
    const int64_t t2 = NowNs();
    // The re-encoded sample must reproduce the original frames byte for
    // byte, or the replay timed something other than the real codec path.
    SCATTER_CHECK(out.size() == frames.size() &&
                  std::memcmp(out.data(), frames.data(), frames.size()) == 0);
    decode.push_back(static_cast<double>(t1 - t0) / static_cast<double>(n));
    encode.push_back(static_cast<double>(t2 - t1) / static_cast<double>(n));
  }
  std::sort(encode.begin(), encode.end());
  std::sort(decode.begin(), decode.end());
  cost.encode_ns = encode[kPasses / 2];
  cost.decode_ns = decode[kPasses / 2];
  cost.frames = n;
  return cost;
}

}  // namespace perfbench
