#include "src/sim/network.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace scatter::sim {
namespace {

uint64_t PackLink(NodeId from, NodeId to) {
  return (from << 32) ^ (to & 0xffffffffULL) ^ (from >> 32);
}

// Deterministic uniform(0,1) from a node id.
double UniformFromId(NodeId id) {
  uint64_t h = id * 0x9e3779b97f4a7c15ULL;
  h ^= h >> 30;
  h *= 0xbf58476d1ce4e5b9ULL;
  h ^= h >> 27;
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

LatencyModel LatencyModel::Lan() {
  LatencyModel m;
  m.kind = Kind::kUniform;
  m.base = Micros(150);
  m.spread = Micros(150);
  return m;
}

LatencyModel LatencyModel::Wan() {
  LatencyModel m;
  m.kind = Kind::kLogNormal;
  m.base = Millis(5);
  m.spread = Millis(10);
  // exp(mu) ~ 25 ms median extra latency with a heavy-ish tail.
  m.mu = 10.1;  // log(24500 us)
  m.sigma = 0.55;
  return m;
}

TimeMicros LatencyModel::Sample(Rng& rng) const {
  switch (kind) {
    case Kind::kConstant:
      return base;
    case Kind::kUniform:
      return base + (spread > 0 ? rng.Range(0, spread) : 0);
    case Kind::kLogNormal: {
      const double extra = rng.LogNormal(mu, sigma);
      const TimeMicros cap = base + 50 * std::max<TimeMicros>(spread, Millis(1));
      return std::min<TimeMicros>(base + static_cast<TimeMicros>(extra), cap);
    }
  }
  return base;
}

Network::Network(Simulator* sim, NetworkConfig config)
    : sim_(sim), config_(config), rng_(sim->rng().Fork()) {}

void Network::Attach(NodeId id, Endpoint* endpoint) {
  SCATTER_CHECK(id != kInvalidNode);
  SCATTER_CHECK(endpoint != nullptr);
  endpoints_[id] = endpoint;
}

void Network::Detach(NodeId id) { endpoints_.erase(id); }

bool Network::LinkAllows(NodeId from, NodeId to) const {
  // Fault-free fabric (the common case): no hash probe at all.
  if (!blocked_links_.empty() &&
      blocked_links_.count(PackLink(from, to)) > 0) {
    return false;
  }
  if (partitioned_) {
    auto a = island_of_.find(from);
    auto b = island_of_.find(to);
    if (a == island_of_.end() || b == island_of_.end() ||
        a->second != b->second) {
      return false;
    }
  }
  return true;
}

double Network::NodeFactor(NodeId id) const {
  if (config_.heterogeneity_sigma <= 0.0) {
    return 1.0;
  }
  // Approximate z ~ N(0,1) from a deterministic uniform via the scaled
  // uniform (variance-matched); crude tails are fine for this purpose.
  const double z = (UniformFromId(id) - 0.5) * 3.4641016151377544;
  return std::exp(config_.heterogeneity_sigma * z);
}

void Network::Send(MessagePtr message) {
  SCATTER_CHECK(message != nullptr);
  SCATTER_CHECK(message->from != kInvalidNode);
  SCATTER_CHECK(message->to != kInvalidNode);
  sent_++;

  // Piggyback the ambient trace context so the receive path can parent its
  // spans causally. Senders that stamped an explicit context keep it.
  if (obs::TraceRecorder* tracer = sim_->tracer();
      tracer != nullptr && message->trace_id == 0) {
    const obs::TraceContext ctx = tracer->current();
    message->trace_id = ctx.trace_id;
    message->span_id = ctx.span_id;
  }

  if (message->from != message->to) {
    if (!LinkAllows(message->from, message->to) ||
        rng_.Bernoulli(config_.loss_rate)) {
      dropped_++;
      return;
    }
    if (scheduler_ != nullptr && scheduler_->OnSend(message)) {
      // A controlled scheduler owns the delivery decision; nothing is
      // scheduled and no latency RNG is consumed, so a controlled run's
      // randomness is fully determined by the seed plus the schedule.
      return;
    }
  }

  TimeMicros latency =
      message->from == message->to ? 0 : config_.latency.Sample(rng_);
  if (config_.bandwidth_bytes_per_sec > 0 && message->from != message->to) {
    latency += static_cast<TimeMicros>(
        static_cast<double>(message->ByteSize()) * 1e6 /
        static_cast<double>(config_.bandwidth_bytes_per_sec));
  }
  if (config_.heterogeneity_sigma > 0.0 && latency > 0) {
    const double factor =
        0.5 * (NodeFactor(message->from) + NodeFactor(message->to));
    latency = static_cast<TimeMicros>(static_cast<double>(latency) * factor);
  }
  if (config_.duplicate_rate > 0 && message->from != message->to &&
      rng_.Bernoulli(config_.duplicate_rate)) {
    TimeMicros dup_latency = config_.latency.Sample(rng_);
    if (config_.heterogeneity_sigma > 0.0) {
      const double factor =
          0.5 * (NodeFactor(message->from) + NodeFactor(message->to));
      dup_latency =
          static_cast<TimeMicros>(static_cast<double>(dup_latency) * factor);
    }
    sim_->Schedule(dup_latency, [this, m = message]() { Deliver(m); });
  }
  sim_->Schedule(latency, [this, m = std::move(message)]() { Deliver(m); });
}

void Network::Deliver(const MessagePtr& message) {
  auto it = endpoints_.find(message->to);
  if (it == endpoints_.end()) {
    // Receiver crashed or departed while the message was in flight.
    dropped_++;
    return;
  }
  deliveries_[delivered_ % kDeliveryRingSize] =
      Delivery{sim_->now(), sim_->current_seq(), message->type, message->from,
               message->to};
  delivered_++;
  // Deliveries run from the top of the event loop (or the scheduler's
  // InjectDelivery, between decisions), where no context is ambient, so an
  // untraced message's handler runs with none.
  obs::TraceRecorder* tracer = sim_->tracer();
  SCATTER_CHECK(!obs::Ambient(tracer).valid());
  // Restore the sender's trace context for the duration of the handler so
  // spans opened on the receive path parent back across the network hop.
  obs::ScopedContext trace_scope(
      tracer, obs::TraceContext{message->trace_id, message->span_id});
  DeliverToEndpoint(it->second, message);
}

std::vector<Network::Delivery> Network::RecentDeliveries() const {
  const uint64_t n = std::min<uint64_t>(delivered_, kDeliveryRingSize);
  std::vector<Delivery> out;
  out.reserve(n);
  for (uint64_t i = delivered_ - n; i < delivered_; ++i) {
    out.push_back(deliveries_[i % kDeliveryRingSize]);
  }
  return out;
}

void Network::DeliverToEndpoint(Endpoint* endpoint, const MessagePtr& message) {
  endpoint->HandleMessage(message);
}

void Network::Partition(const std::vector<std::vector<NodeId>>& islands) {
  island_of_.clear();
  for (size_t i = 0; i < islands.size(); ++i) {
    for (NodeId n : islands[i]) {
      island_of_[n] = static_cast<int>(i);
    }
  }
  partitioned_ = true;
}

void Network::HealPartition() {
  island_of_.clear();
  partitioned_ = false;
}

void Network::BlockLink(NodeId from, NodeId to) {
  blocked_links_.insert(PackLink(from, to));
}

void Network::UnblockLink(NodeId from, NodeId to) {
  blocked_links_.erase(PackLink(from, to));
}

}  // namespace scatter::sim
