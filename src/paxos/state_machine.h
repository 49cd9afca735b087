// The replicated state machine interface applied by every group replica.
//
// Determinism contract: Apply must depend only on (current state, index,
// command). Replicas on different nodes apply the same log and must reach
// identical states — the verification module spot-checks this in tests.
//
// A state machine's state has one byte encoding, its field list
// (src/wire/fields.h) written by EncodeState. The same bytes go to a joining
// replica in SnapshotMsg::data and to disk after a checkpoint's header, and
// Restore reads them back in both places.

#ifndef SCATTER_SRC_PAXOS_STATE_MACHINE_H_
#define SCATTER_SRC_PAXOS_STATE_MACHINE_H_

#include <cstddef>
#include <cstdint>

#include "src/common/types.h"
#include "src/paxos/command.h"

namespace scatter::wire {
class Buffer;
}  // namespace scatter::wire

namespace scatter::paxos {

class StateMachine {
 public:
  virtual ~StateMachine() = default;

  // Applies a committed application command (kind == kApp). Called exactly
  // once per index, in index order. NoOp and Config commands are consumed by
  // the replica and never reach the state machine.
  virtual void Apply(uint64_t index, const Command& command) = 0;

  // Appends the live application state's bytes, encoded in place: no copy
  // of the state is made.
  virtual void EncodeState(wire::Buffer& out) const = 0;

  // Replaces the application state with the one EncodeState wrote as
  // exactly the `size` bytes at `data`. False, with the state unchanged,
  // when they do not decode to one state.
  virtual bool Restore(const uint8_t* data, size_t size) = 0;
};

}  // namespace scatter::paxos

#endif  // SCATTER_SRC_PAXOS_STATE_MACHINE_H_
