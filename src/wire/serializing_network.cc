#include "src/wire/serializing_network.h"

#include <utility>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/wire/codec.h"
#include "src/wire/frame_view.h"

// Poison frame bytes after each handoff whenever asserts are live or ASan
// is watching: a stale read through a kept pointer then sees 0xA5 instead
// of the previous frame, and the clear() that follows marks the storage
// unaddressable under ASan, so the same mistake becomes a hard error there.
#if !defined(NDEBUG) || defined(SCATTER_WIRE_ASAN)
#define SCATTER_WIRE_POISON_FRAMES 1
#endif

namespace scatter::wire {
namespace {

// A frame buffer that grew past this (snapshot installs, bulk merges) gives
// its storage back after the delivery instead of pinning it for the run.
constexpr size_t kMaxRetainedFrameBytes = 128 * 1024;

// Brackets one delivery. Deliveries never nest (every send is scheduled),
// which is what lets each transport reuse one buffer per role; the CHECK
// pins that. The destructor also runs when a CHECK inside the handler
// throws under the model checker.
class DeliveryScope {
 public:
  explicit DeliveryScope(bool* delivering) : delivering_(delivering) {
    SCATTER_CHECK(!*delivering_);
    *delivering_ = true;
  }
  ~DeliveryScope() { *delivering_ = false; }
  DeliveryScope(const DeliveryScope&) = delete;
  DeliveryScope& operator=(const DeliveryScope&) = delete;

 private:
  bool* delivering_;
};

// Ends a delivery's use of a reused frame buffer.
void Recycle(Buffer& frame) {
#ifdef SCATTER_WIRE_POISON_FRAMES
  frame.Poison(0xA5);
#endif
  frame.clear();
  if (frame.capacity() > kMaxRetainedFrameBytes) {
    frame.FreeStorage();
  }
}

// Compares two encoded frames ignoring the fixed `to` header slot:
// RpcNode::Forward legitimately rewrites `to` on a delivered message to
// relay it, and that rewrite is visible to the post-delivery encoding.
bool FramesEqualIgnoringTo(const Buffer& a, const Buffer& b) {
  if (a.size() != b.size()) {
    return false;
  }
  // The frame starts with a u32 length prefix; header offsets are relative
  // to the byte after it.
  const size_t to_begin = 4 + kFrameToOffset;
  const size_t to_end = to_begin + kFrameToSize;
  for (size_t i = 0; i < a.size(); ++i) {
    if (i >= to_begin && i < to_end) {
      continue;
    }
    if (a.data()[i] != b.data()[i]) {
      return false;
    }
  }
  return true;
}

}  // namespace

SerializingNetwork::SerializingNetwork(sim::Simulator* sim,
                                       sim::NetworkConfig config)
    : sim::Network(sim, config), metrics_(&sim->metrics()) {
  // Codecs are registered by the protocol modules that own the message
  // structs (core::RegisterScatterWireCodecs(), baseline's RegisterWireCodecs):
  // the wire layer sits below them in the include DAG and cannot name their
  // types. The first encode CHECK-fails loudly if a module forgot.
}

void SerializingNetwork::Attach(NodeId id, sim::Endpoint* endpoint) {
  AttachedNode& attached = attached_[id];
  attached.node = endpoint;
  sim::Network::Attach(id, &attached);
}

void SerializingNetwork::DeliverToEndpoint(sim::Endpoint* endpoint,
                                           const sim::MessagePtr& message) {
  DeliveryScope scope(&delivering_);
  // Cleared here as well as in Recycle: a CHECK that throws inside the
  // handler skips the end of this function.
  frame_.clear();
  const size_t retained = frame_.capacity();
  EncodeFrame(*message, frame_);
  // Every endpoint the base class holds was attached through Attach above.
  AttachedNode& attached = static_cast<AttachedNode&>(*endpoint);
  TrafficCells& cells = attached.cells;
  if (cells.frames == nullptr) {
    const NodeId node = message->to;
    cells.frames = &metrics_->GetCounter("wire.frames_serialized", node);
    cells.bytes = &metrics_->GetCounter("wire.bytes_serialized", node);
    cells.pool_hit = &metrics_->GetCounter("wire.pool.hit", node);
    cells.pool_miss = &metrics_->GetCounter("wire.pool.miss", node);
  }
  ++*cells.frames;
  *cells.bytes += frame_.size();
  ++*(frame_.capacity() == retained ? cells.pool_hit : cells.pool_miss);

  std::string error;
  FrameView view;
  if (!view.Parse(frame_.data(), frame_.size(), &error)) {
    SCATTER_ERROR() << "serializing transport: self-encoded "
                    << sim::MessageTypeName(message->type)
                    << " frame failed header peek: " << error;
    SCATTER_CHECK(false);
  }
  SCATTER_CHECK(view.frame_size() == frame_.size());
  const sim::MessagePtr copy = view.Materialize(&error);
  if (copy == nullptr) {
    SCATTER_ERROR() << "serializing transport: self-encoded "
                    << sim::MessageTypeName(message->type)
                    << " frame failed to decode: " << error;
    SCATTER_CHECK(copy != nullptr);
  }
  attached.node->HandleMessage(copy);
  Recycle(frame_);
}

AuditingNetwork::AuditingNetwork(sim::Simulator* sim,
                                 sim::NetworkConfig config)
    : sim::Network(sim, config) {}

void AuditingNetwork::Report(const sim::MessagePtr& message,
                             std::string detail) {
  SCATTER_ERROR() << "wire audit: " << sim::MessageTypeName(message->type)
                  << " " << message->from << "->" << message->to << ": "
                  << detail;
  violations_.push_back(Violation{message->type, message->from, message->to,
                                  std::move(detail)});
  if (fail_on_violation_) {
    SCATTER_CHECK(false);
  }
}

void AuditingNetwork::DeliverToEndpoint(sim::Endpoint* endpoint,
                                        const sim::MessagePtr& message) {
  DeliveryScope scope(&delivering_);
  before_.clear();
  reencoded_.clear();
  after_.clear();
  EncodeFrame(*message, before_);

  // Round-trip stability: decode a fresh copy of the frame and re-encode;
  // any divergence is a codec dropping or mangling a field. The decoded
  // copy carries no payload memos, so the re-encode exercises the real
  // per-type encoders even when `before` itself was served from a memo.
  std::string error;
  FrameView view;
  if (!view.Parse(before_.data(), before_.size(), &error)) {
    Report(message, "self-encoded frame failed header peek: " + error);
  } else {
    const sim::MessagePtr copy = view.Materialize(&error);
    if (copy == nullptr) {
      Report(message, "self-encoded frame failed to decode: " + error);
    } else {
      EncodeFrame(*copy, reencoded_);
      if (!(reencoded_ == before_)) {
        Report(message, "encode -> decode -> encode is not byte-identical");
      }
    }
  }

  endpoint->HandleMessage(message);

  // Delivered messages may be shared across broadcast fan-out and with the
  // sender's retransmission state; a handler that mutates one corrupts
  // state it does not own. Forward's `to` rewrite is the sanctioned
  // exception. Byte-level comparison of the re-encoded frame — no decode
  // needed on this leg.
  EncodeFrame(*message, after_);
  if (!FramesEqualIgnoringTo(before_, after_)) {
    Report(message, "handler mutated a delivered message");
  }
  Recycle(before_);
  Recycle(reencoded_);
  Recycle(after_);
}

}  // namespace scatter::wire
