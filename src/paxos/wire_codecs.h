// Wire-codec registration for paxos/'s message types and the two commands
// Paxos itself understands (no-op barrier entries, membership changes).
// Command tags 1-15 are reserved for this module; see PROTOCOL.md "Wire
// format".
//
// X(enumerator, Type) pairs a message type with the struct whose field list
// (wire_codecs.cc) is its one wire definition; RegisterWireCodecs() expands
// the list into RegisterMessage<Type> calls, and the union of every module's
// list must cover SCATTER_MESSAGE_TYPE_LIST exactly (compile-time assert in
// tests/wire_test.cc).

#ifndef SCATTER_SRC_PAXOS_WIRE_CODECS_H_
#define SCATTER_SRC_PAXOS_WIRE_CODECS_H_

#define SCATTER_PAXOS_WIRE_MESSAGES(X) \
  X(kPaxosPrepare, PrepareMsg)         \
  X(kPaxosPromise, PromiseMsg)         \
  X(kPaxosAccept, AcceptMsg)           \
  X(kPaxosAccepted, AcceptedMsg)       \
  X(kPaxosSnapshot, SnapshotMsg)       \
  X(kPaxosSnapshotAck, SnapshotAckMsg) \
  X(kPaxosTimeoutNow, TimeoutNowMsg)   \
  X(kPaxosPing, PingMsg)               \
  X(kPaxosPong, PongMsg)

namespace scatter::paxos {

// Idempotent; call before any serializing/auditing transport carries
// consensus traffic.
void RegisterWireCodecs();

}  // namespace scatter::paxos

#endif  // SCATTER_SRC_PAXOS_WIRE_CODECS_H_
