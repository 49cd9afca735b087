// Tagged codec registries for the polymorphic payloads that ride inside wire
// frames: replicated commands (paxos::Command in log entries) and state
// machine snapshots (paxos::SnapshotData in snapshot installs).
//
// These registries live in paxos/, not wire/, because the payload vocabulary
// is owned by this module: the wire layer frames raw bytes and must stay
// below every protocol layer in the include DAG (scripts/layers.json), so it
// cannot name paxos types. Application modules — and tests with private
// command or snapshot types — extend the wire format with
// RegisterCommand<T>(tag) / RegisterSnapshot<T>(tag), where T has a field
// list (src/wire/fields.h).
//
// Encoding: u16 tag + payload (tag 0 = null command / null snapshot).
// Per-module tag ranges are documented in PROTOCOL.md "Wire format".

#ifndef SCATTER_SRC_PAXOS_PAYLOAD_CODEC_H_
#define SCATTER_SRC_PAXOS_PAYLOAD_CODEC_H_

#include <memory>
#include <typeindex>

#include "src/common/pooled.h"
#include "src/paxos/command.h"
#include "src/paxos/state_machine.h"
#include "src/wire/buffer.h"
#include "src/wire/fields.h"

namespace scatter::paxos {

// Writes u16 tag + payload; the pointer may be null (tag 0). CHECK-fails on
// a type that was never registered — that is a build wiring bug, not a
// runtime condition. Decoding an unknown tag fails the Reader.
void EncodeCommand(const CommandPtr& cmd, wire::Buffer& out);
CommandPtr DecodeCommand(wire::Reader& in);
void EncodeSnapshot(const SnapshotPtr& snap, wire::Buffer& out);
SnapshotPtr DecodeSnapshot(wire::Reader& in);

// Field kinds for the payload pointers, so field lists can carry them.
inline void Field(wire::Writer& w, CommandPtr& c) { EncodeCommand(c, w.out()); }
inline void Field(wire::Reader& r, CommandPtr& c) { c = DecodeCommand(r); }
inline void Field(wire::Writer& w, SnapshotPtr& s) {
  EncodeSnapshot(s, w.out());
}
inline void Field(wire::Reader& r, SnapshotPtr& s) { s = DecodeSnapshot(r); }

namespace internal {

template <typename Base>
struct PayloadCodec {
  void (*encode)(const Base& payload, wire::Buffer& out) = nullptr;
  std::shared_ptr<const Base> (*decode)(wire::Reader& in) = nullptr;
};

// `type` is typeid of the concrete class, so the encoder is found from a
// base-class reference without adding wire methods to the hierarchy.
void RegisterPayload(uint16_t tag, std::type_index type,
                     PayloadCodec<Command> codec);
void RegisterPayload(uint16_t tag, std::type_index type,
                     PayloadCodec<SnapshotData> codec);

// The tag registered for snapshot type `type`; CHECK-fails on an
// unregistered type, like EncodeSnapshot.
uint16_t SnapshotTag(std::type_index type);

template <typename Base, typename T>
void RegisterPayload(uint16_t tag) {
  RegisterPayload(
      tag, typeid(T),
      PayloadCodec<Base>{
          [](const Base& payload, wire::Buffer& out) {
            wire::Write(static_cast<const T&>(payload), out);
          },
          [](wire::Reader& in) -> std::shared_ptr<const Base> {
            auto payload = MakePooled<T>();
            in(*payload);
            return payload;
          }});
}

}  // namespace internal

// T must be default-constructible and have a field list. Tag 0 is reserved.
template <typename T>
void RegisterCommand(uint16_t tag) {
  internal::RegisterPayload<Command, T>(tag);
}
template <typename T>
void RegisterSnapshot(uint16_t tag) {
  internal::RegisterPayload<SnapshotData, T>(tag);
}

// Appends the tag EncodeSnapshot writes before a T's field list. A state
// machine's EncodeState (state_machine.h) follows it with its live state's
// fields, producing a T's snapshot bytes without building a T.
template <typename T>
void WriteSnapshotTag(wire::Buffer& out) {
  out.WriteU16(internal::SnapshotTag(typeid(T)));
}

// Cumulative process-wide encode-memo statistics (benches and tests snapshot
// before/after and compare deltas). A "fill" runs the real per-type encoder
// and caches the bytes on the payload object; a "hit" appends the cached
// bytes with one copy. memo_bytes_reused counts the bytes served from memos
// — each one a byte the per-type encoder did NOT re-produce.
struct PayloadEncodeStats {
  uint64_t memo_fills = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_bytes_reused = 0;
};
PayloadEncodeStats GetPayloadEncodeStats();

}  // namespace scatter::paxos

#endif  // SCATTER_SRC_PAXOS_PAYLOAD_CODEC_H_
