// Commands are the unit of agreement in the replicated log.
//
// Paxos itself understands only two command kinds: no-ops (leader barrier
// entries) and configuration changes (add/remove a member). Everything else
// is an application command that the replica hands to its StateMachine
// without inspecting.

#ifndef SCATTER_SRC_PAXOS_COMMAND_H_
#define SCATTER_SRC_PAXOS_COMMAND_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "src/common/types.h"

namespace scatter::paxos {

struct Command {
  enum class Kind : uint8_t {
    kNoOp,    // Barrier entry appended by a new leader.
    kConfig,  // Membership change, interpreted by the replica itself.
    kApp,     // Application command, interpreted by the StateMachine.
  };

  explicit Command(Kind k) : kind(k) {}
  virtual ~Command() = default;

  // Approximate serialized size; bulk-carrying commands override.
  virtual size_t ByteSize() const { return 32; }

  Kind kind;

  // Canonical wire bytes (u16 tag + payload), filled in by EncodeCommand the
  // first time a frame carrying this object is encoded (the send path only)
  // and reused verbatim on every later encode — the scatter-gather half of
  // the wire hot path: a command replicated to N peers (and retransmitted)
  // is byte-encoded once ever. Sound because commands are immutable once
  // proposed (CommandPtr is pointer-to-const) and the encoding is
  // canonical, so the bytes can never go stale. Journal records,
  // checkpoints and comparisons read a memo but never fill one, so a
  // follower holds none until it sends as leader. Decoded copies start
  // with an empty memo so the audit transport's re-encode check still
  // exercises the real encoder on fresh objects.
  mutable std::shared_ptr<const std::vector<uint8_t>> wire_memo;
};

// Commands are immutable once proposed; replicas on different nodes share
// the same in-memory object (the simulator stands in for serialization).
using CommandPtr = std::shared_ptr<const Command>;

struct NoOpCommand : Command {
  NoOpCommand() : Command(Kind::kNoOp) {}
};

struct ConfigCommand : Command {
  enum class Op : uint8_t { kAddMember, kRemoveMember };

  explicit ConfigCommand(Op o = Op::kAddMember, NodeId n = kInvalidNode)
      : Command(Kind::kConfig), op(o), node(n) {}

  Op op;
  NodeId node;
};

// Base for application commands. Carries client identity for exactly-once
// de-duplication in the state machine: a retried command with an already
// applied (client_id, client_seq) must be a no-op on state.
struct AppCommand : Command {
  AppCommand() : Command(Kind::kApp) {}

  uint64_t client_id = 0;   // 0 = not a deduplicated client command
  uint64_t client_seq = 0;
};

// Wire field list (src/wire/fields.h) of the shared header every
// application command's own field list starts with.
template <class IO>
void Fields(AppCommand& c, IO& io) {
  io(c.client_id, c.client_seq);
}

}  // namespace scatter::paxos

#endif  // SCATTER_SRC_PAXOS_COMMAND_H_
