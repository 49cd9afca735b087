#include "src/wire/serializing_network.h"

#include <utility>

#include "src/common/logging.h"
#include "src/obs/metrics.h"
#include "src/sim/simulator.h"
#include "src/wire/codec.h"
#include "src/wire/frame_view.h"

namespace scatter::wire {
namespace {

// Length prefix + fixed header; added to the message's self-reported payload
// estimate to pick the pool size class.
constexpr size_t kFrameOverhead = 4 + kFrameHeaderSize;

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
    : sim::Network(sim, config),
      pool_(BufferPool::Config{}, &sim->metrics()),
      metrics_(&sim->metrics()) {
  // Codecs are registered by the protocol modules that own the message
  // structs (core::RegisterScatterWireCodecs(), baseline's RegisterWireCodecs):
  // the wire layer sits below them in the include DAG and cannot name their
  // types. The first encode CHECK-fails loudly if a module forgot.
}

SerializingNetwork::TrafficCells& SerializingNetwork::CellsFor(NodeId node) {
  auto [it, inserted] = traffic_cells_.try_emplace(node);
  if (inserted) {
    it->second.frames =
        &metrics_->GetCounter("wire.frames_serialized", node);
    it->second.bytes = &metrics_->GetCounter("wire.bytes_serialized", node);
  }
  return it->second;
}

void SerializingNetwork::DeliverToEndpoint(sim::Endpoint* endpoint,
                                           const sim::MessagePtr& message) {
  BufferPool::Handle frame =
      pool_.Acquire(message->ByteSize() + kFrameOverhead, message->to);
  EncodeFrame(*message, *frame);
  TrafficCells& cells = CellsFor(message->to);
  ++*cells.frames;
  *cells.bytes += frame->size();
  total_frames_++;
  total_bytes_ += frame->size();

  std::string error;
  FrameView view;
  if (!view.Parse(frame.data(), frame.size(), &error)) {
    SCATTER_ERROR() << "serializing transport: self-encoded "
                    << sim::MessageTypeName(message->type)
                    << " frame failed header peek: " << error;
    SCATTER_CHECK(false);
  }
  SCATTER_CHECK(view.frame_size() == frame.size());
  const sim::MessagePtr& copy = view.Materialize(&error);
  if (copy == nullptr) {
    SCATTER_ERROR() << "serializing transport: self-encoded "
                    << sim::MessageTypeName(message->type)
                    << " frame failed to decode: " << error;
    SCATTER_CHECK(copy != nullptr);
  }
  endpoint->HandleMessage(copy);
}

AuditingNetwork::AuditingNetwork(sim::Simulator* sim,
                                 sim::NetworkConfig config)
    : sim::Network(sim, config),
      pool_(BufferPool::Config{}, &sim->metrics()) {}

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
  BufferPool::Handle before =
      pool_.Acquire(message->ByteSize() + kFrameOverhead);
  EncodeFrame(*message, *before);

  // Round-trip stability: decode a fresh copy of the frame and re-encode;
  // any divergence is a codec dropping or mangling a field. The decoded
  // copy carries no payload memos, so the re-encode exercises the real
  // per-type encoders even when `before` itself was served from a memo.
  std::string error;
  FrameView view;
  if (!view.Parse(before.data(), before.size(), &error)) {
    Report(message, "self-encoded frame failed header peek: " + error);
  } else {
    const sim::MessagePtr& copy = view.Materialize(&error);
    if (copy == nullptr) {
      Report(message, "self-encoded frame failed to decode: " + error);
    } else {
      BufferPool::Handle reencoded = pool_.Acquire(before.size());
      EncodeFrame(*copy, *reencoded);
      if (!(*reencoded == *before)) {
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
  BufferPool::Handle after = pool_.Acquire(before.size());
  EncodeFrame(*message, *after);
  if (!FramesEqualIgnoringTo(*before, *after)) {
    Report(message, "handler mutated a delivered message");
  }
}

}  // namespace scatter::wire
