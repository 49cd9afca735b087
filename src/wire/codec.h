// Central wire-format codec registry.
//
// Every sim::MessageType is registered, with RegisterMessage<T>, by the
// protocol module that owns the message struct and its field list
// (fields.h); this layer only frames and dispatches.
//
// Frame layout (all integers little-endian):
//
//   u32  frame_length        bytes after this field
//   u16  version             kWireVersion; unknown versions are rejected
//   u16  message type        sim::MessageType tag
//   u64  from                |
//   u64  to                  |  transport header, shared by every message
//   u64  rpc_id              |  (to lives at a fixed offset so the audit
//   u8   flags               |   transport can ignore legitimate routing
//   u64  trace_id            |   rewrites by Forward)
//   u64  span_id             |
//   ...  payload             type-specific: the message's field list
//
// Polymorphic payloads riding inside messages (replicated commands) have
// their own tagged registry in src/paxos/payload_codec.h — the paxos module
// owns that vocabulary. A state machine's state rides as plain bytes.

#ifndef SCATTER_SRC_WIRE_CODEC_H_
#define SCATTER_SRC_WIRE_CODEC_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/pooled.h"
#include "src/sim/message.h"
#include "src/wire/buffer.h"
#include "src/wire/fields.h"

namespace scatter::wire {

inline constexpr uint16_t kWireVersion = 1;

// Fixed byte offsets inside a frame (after the u32 length prefix).
inline constexpr size_t kFrameToOffset = 2 + 2 + 8;  // version, type, from
inline constexpr size_t kFrameToSize = 8;

// --- Message codecs ---------------------------------------------------------

// Writes the payload (everything after the shared header) of `m`.
using MessageEncodeFn = void (*)(const sim::Message& m, Buffer& out);
// Builds a fresh message and reads its payload. The frame decoder fills the
// shared header fields afterwards. Returns nullptr only on structural
// impossibility; out-of-bounds reads are reported through the Reader.
using MessageDecodeFn = sim::MessagePtr (*)(Reader& in);

void RegisterMessageCodec(sim::MessageType type, MessageEncodeFn encode,
                          MessageDecodeFn decode);

// Registers message struct T (default-constructible, with a field list) as
// the codec for `type`: both directions walk T's one Fields(T&, IO&).
template <typename T>
void RegisterMessage(sim::MessageType type) {
  RegisterMessageCodec(
      type,
      [](const sim::Message& m, Buffer& out) {
        Write(static_cast<const T&>(m), out);
      },
      [](Reader& in) -> sim::MessagePtr {
        auto m = MakePooled<T>();
        in(*m);
        return m;
      });
}

// X-list expander for the modules' (enumerator, Type) message lists.
#define SCATTER_REGISTER_MESSAGE(enumr, type) \
  ::scatter::wire::RegisterMessage<type>(::scatter::sim::MessageType::enumr);

bool HasMessageCodec(sim::MessageType type);

// Message types from the X-macro table with no registered codec. Empty once
// every module's RegisterWireCodecs() ran — asserted by tests and by the
// serializing transport before its first encode.
std::vector<sim::MessageType> MissingMessageCodecs();

// --- Framing ----------------------------------------------------------------

// Appends one length-prefixed frame for `m` to `out`.
void EncodeFrame(const sim::Message& m, Buffer& out);

// Decodes one frame from the front of [data, data+size). On success returns
// the message and sets *consumed to the total frame size (length prefix
// included). On failure returns nullptr, sets *consumed to 0 and, when
// `error` is non-null, describes the rejection (short frame, unknown
// version, unregistered type, payload overrun, trailing payload bytes).
sim::MessagePtr DecodeFrame(const uint8_t* data, size_t size,
                            size_t* consumed, std::string* error);

// Codec registration is owned by the module that owns the message structs:
// each protocol module defines an idempotent RegisterWireCodecs() in its own
// wire_codecs.{h,cc} (one RegisterMessage<T> per entry of that module's
// X-macro message list), and core::RegisterScatterWireCodecs() aggregates
// the full Scatter stack. This keeps the wire layer below the protocol
// layers in the include DAG — it never names a concrete message type.

// Shared between the eager frame decoder and the lazy FrameView
// (frame_view.h); not part of the module API.
namespace internal {

// Header flag bits (u8 on the wire).
inline constexpr uint8_t kFlagIsResponse = 1u << 0;

// Registered payload decoder for a raw type tag, or nullptr.
MessageDecodeFn FindMessageDecoder(uint16_t raw_type);

// CHECK with context: codec registration/encoding failures are build wiring
// bugs; die loudly with the offending type in the message.
[[noreturn]] void WireCodecFailure(const std::string& why);

}  // namespace internal

}  // namespace scatter::wire

#endif  // SCATTER_SRC_WIRE_CODEC_H_
