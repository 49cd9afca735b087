// The replicated state machine interface applied by every group replica.
//
// Determinism contract: Apply must depend only on (current state, index,
// command). Replicas on different nodes apply the same log and must reach
// identical states — the verification module spot-checks this in tests.

#ifndef SCATTER_SRC_PAXOS_STATE_MACHINE_H_
#define SCATTER_SRC_PAXOS_STATE_MACHINE_H_

#include <memory>

#include "src/common/types.h"
#include "src/paxos/command.h"

namespace scatter::wire {
class Buffer;
}  // namespace scatter::wire

namespace scatter::paxos {

// Opaque snapshot payload; the concrete type is owned by the state machine
// implementation. Immutable once taken (shared by in-flight installs).
// Only SnapshotMsg carries one: checkpoints encode the live state instead
// (StateMachine::EncodeState).
struct SnapshotData {
  virtual ~SnapshotData() = default;
  // Approximate serialized size (feeds the network bandwidth model when a
  // snapshot ships to a joiner).
  virtual size_t ByteSize() const { return 64; }

  // Canonical wire bytes, filled by EncodeSnapshot on first serialization
  // and reused for every later install of the same (immutable) snapshot —
  // same encode-side-only memo discipline as Command::wire_memo.
  mutable std::shared_ptr<const std::vector<uint8_t>> wire_memo;
};

using SnapshotPtr = std::shared_ptr<const SnapshotData>;

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  // Applies a committed application command (kind == kApp). Called exactly
  // once per index, in index order. NoOp and Config commands are consumed by
  // the replica and never reach the state machine.
  virtual void Apply(uint64_t index, const Command& command) = 0;

  // Captures the full application state for transfer to a joining replica:
  // an immutable copy, because a SnapshotMsg may still be in flight while
  // the state moves on.
  virtual SnapshotPtr TakeSnapshot() const = 0;

  // Appends the live application state as exactly the bytes
  // EncodeSnapshot(TakeSnapshot()) would append (payload_codec.h: snapshot
  // tag, then the snapshot's field list), without copying the state. The
  // journal's checkpoints encode through this. It never fills a wire_memo:
  // the live state keeps changing, so a memo on it would go stale.
  virtual void EncodeState(wire::Buffer& out) const = 0;

  // Replaces the application state with a snapshot previously produced by
  // TakeSnapshot on a peer.
  virtual void Restore(const SnapshotData& snapshot) = 0;
};

}  // namespace scatter::paxos

#endif  // SCATTER_SRC_PAXOS_STATE_MACHINE_H_
