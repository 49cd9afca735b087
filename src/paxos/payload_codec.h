// Tagged codec registry for the polymorphic payload that rides inside wire
// frames and journal records: replicated commands (paxos::Command in log
// entries). A state machine's state needs no registry: it travels as the
// bytes StateMachine::EncodeState writes (state_machine.h).
//
// The registry lives in paxos/, not wire/, because the command vocabulary
// is owned by this module: the wire layer frames raw bytes and must stay
// below every protocol layer in the include DAG (scripts/layers.json), so it
// cannot name paxos types. Application modules — and tests with private
// command types — extend the wire format with RegisterCommand<T>(tag),
// where T has a field list (src/wire/fields.h).
//
// Encoding: u16 tag + payload (tag 0 = null command). Per-module tag ranges
// are documented in PROTOCOL.md "Wire format".

#ifndef SCATTER_SRC_PAXOS_PAYLOAD_CODEC_H_
#define SCATTER_SRC_PAXOS_PAYLOAD_CODEC_H_

#include <memory>
#include <typeindex>

#include "src/common/pooled.h"
#include "src/paxos/command.h"
#include "src/wire/buffer.h"
#include "src/wire/fields.h"

namespace scatter::paxos {

// Writes u16 tag + payload; the pointer may be null (tag 0). CHECK-fails on
// a type that was never registered — that is a build wiring bug, not a
// runtime condition. Decoding an unknown tag fails the Reader.
//
// A command's wire memo (command.h), when present, supplies the bytes.
// `fill_memo` caches them on the command when it has none; only the frame
// encoder's send path asks for that (wire::Writer::memoize), so a journal
// append, a checkpoint or a comparison leaves the command as it was.
void EncodeCommand(const CommandPtr& cmd, wire::Buffer& out,
                   bool fill_memo = false);
CommandPtr DecodeCommand(wire::Reader& in);

// Field kind for the command pointer, so field lists can carry one.
inline void Field(wire::Writer& w, CommandPtr& c) {
  EncodeCommand(c, w.out(), w.memoize());
}
inline void Field(wire::Reader& r, CommandPtr& c) { c = DecodeCommand(r); }

namespace internal {

struct CommandCodec {
  void (*encode)(const Command& cmd, wire::Buffer& out) = nullptr;
  CommandPtr (*decode)(wire::Reader& in) = nullptr;
};

// `type` is typeid of the concrete class, so the encoder is found from a
// base-class reference without adding wire methods to the hierarchy.
void RegisterCommandCodec(uint16_t tag, std::type_index type,
                          CommandCodec codec);

}  // namespace internal

// T must be default-constructible and have a field list. Tag 0 is reserved.
template <typename T>
void RegisterCommand(uint16_t tag) {
  internal::RegisterCommandCodec(
      tag, typeid(T),
      internal::CommandCodec{
          [](const Command& cmd, wire::Buffer& out) {
            wire::Write(static_cast<const T&>(cmd), out);
          },
          [](wire::Reader& in) -> CommandPtr {
            auto cmd = MakePooled<T>();
            in(*cmd);
            return cmd;
          }});
}

// Cumulative process-wide encode-memo statistics (benches and tests snapshot
// before/after and compare deltas). A "fill" runs the real per-type encoder
// on the send path and caches the bytes on the command object; a "hit"
// appends the cached bytes with one copy. memo_bytes_reused counts the
// bytes served from memos — each one a byte the per-type encoder did NOT
// re-produce.
struct PayloadEncodeStats {
  uint64_t memo_fills = 0;
  uint64_t memo_hits = 0;
  uint64_t memo_bytes_reused = 0;
};
PayloadEncodeStats GetPayloadEncodeStats();

}  // namespace scatter::paxos

#endif  // SCATTER_SRC_PAXOS_PAYLOAD_CODEC_H_
