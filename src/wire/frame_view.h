// Lazy frame decoding: header peek now, payload materialization on demand.
//
// A FrameView binds to one encoded frame in place (no copy) and validates
// everything that is knowable from the fixed header — length prefix, wire
// version, message-type registration, header completeness — without touching
// the payload. Routing, tracing, and byte-level frame comparison read the
// header accessors; only a consumer that needs the message object calls
// Materialize(), which runs the registered payload decoder and returns the
// message. Nothing is cached: every caller materializes a view once.
//
// This is strictly a reader-side optimization: the bytes on the wire are the
// PROTOCOL.md §6 frame format, unchanged. DecodeFrame (codec.h) is now a
// thin wrapper — Parse + Materialize — so the eager and lazy paths cannot
// drift apart; the wire fuzz tests assert they reject and decode
// identically.
//
// Lifetime: the view borrows [data, data+size). The caller keeps the bytes
// alive until the last header access or Materialize call; the materialized
// MessagePtr is independent of the bytes once returned.

#ifndef SCATTER_SRC_WIRE_FRAME_VIEW_H_
#define SCATTER_SRC_WIRE_FRAME_VIEW_H_

#include <string>

#include "src/sim/message.h"
#include "src/wire/codec.h"

namespace scatter::wire {

// Bytes between the length prefix and the payload: version, type, from, to,
// rpc_id, flags, trace_id, span_id.
inline constexpr size_t kFrameHeaderSize =
    2 + 2 + 8 + 8 + 8 + 1 + 8 + 8;  // = 45

class FrameView {
 public:
  // Binds to the frame at the front of [data, data+size) and validates the
  // length prefix + fixed header. Returns false (and sets `error` if
  // non-null) on exactly the conditions DecodeFrame rejects before reaching
  // the payload: short/overlong frame, unknown version, unregistered type,
  // truncated header. After a false return the view is unusable.
  bool Parse(const uint8_t* data, size_t size, std::string* error = nullptr);

  // --- Header accessors: valid after a successful Parse, no payload work ---
  sim::MessageType type() const { return static_cast<sim::MessageType>(raw_type_); }
  uint16_t raw_type() const { return raw_type_; }
  NodeId from() const { return from_; }
  NodeId to() const { return to_; }
  uint64_t rpc_id() const { return rpc_id_; }
  bool is_response() const { return is_response_; }
  uint64_t trace_id() const { return trace_id_; }
  uint64_t span_id() const { return span_id_; }

  // Total frame size including the u32 length prefix (what DecodeFrame
  // reports via *consumed).
  size_t frame_size() const { return 4 + frame_len_; }
  const uint8_t* payload() const { return payload_; }
  size_t payload_size() const { return payload_size_; }

  // Runs the registered payload decoder and returns the message, header
  // fields filled in. Returns nullptr (and sets `error` if non-null) on a
  // malformed or trailing-bytes payload. Each call decodes afresh.
  sim::MessagePtr Materialize(std::string* error = nullptr) const;

 private:
  uint32_t frame_len_ = 0;
  uint16_t raw_type_ = 0;
  NodeId from_ = kInvalidNode;
  NodeId to_ = kInvalidNode;
  uint64_t rpc_id_ = 0;
  bool is_response_ = false;
  uint64_t trace_id_ = 0;
  uint64_t span_id_ = 0;
  const uint8_t* payload_ = nullptr;
  size_t payload_size_ = 0;
  MessageDecodeFn decode_ = nullptr;
};

}  // namespace scatter::wire

#endif  // SCATTER_SRC_WIRE_FRAME_VIEW_H_
