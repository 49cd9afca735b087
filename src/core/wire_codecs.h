// Wire-codec registration for core/'s client-facing and control-plane
// messages, plus the aggregate registrar for the whole Scatter stack.
//
// X(enumerator, Type) pairs a message type with the struct whose field list
// (wire_codecs.cc) is its one wire definition; RegisterWireCodecs() expands
// the list into RegisterMessage<Type> calls, and the union of every module's
// list must cover SCATTER_MESSAGE_TYPE_LIST exactly (compile-time assert in
// tests/wire_test.cc).

#ifndef SCATTER_SRC_CORE_WIRE_CODECS_H_
#define SCATTER_SRC_CORE_WIRE_CODECS_H_

#define SCATTER_CORE_WIRE_MESSAGES(X)          \
  X(kClientRequest, ClientRequestMsg)          \
  X(kClientReply, ClientReplyMsg)              \
  X(kLookupRequest, LookupRequestMsg)          \
  X(kLookupReply, LookupReplyMsg)              \
  X(kJoinRequest, JoinRequestMsg)              \
  X(kJoinReply, JoinReplyMsg)                  \
  X(kGroupInfoRequest, GroupInfoRequestMsg)    \
  X(kGroupInfoReply, GroupInfoReplyMsg)        \
  X(kMigrateRequest, MigrateRequestMsg)        \
  X(kMigrateDirective, MigrateDirectiveMsg)    \
  X(kLeaveRequest, LeaveRequestMsg)            \
  X(kRingGossip, RingGossipMsg)

namespace scatter::core {

// Idempotent; registers only core's own messages.
void RegisterWireCodecs();

// Registers every codec the Scatter stack puts on the wire (rpc, paxos,
// membership, txn, core — not the Chord baseline, which registers its own
// in baseline/). Idempotent. Cluster construction calls this, as does the
// auditor, so any serializing/auditing transport under a Scatter cluster
// finds a complete registry.
void RegisterScatterWireCodecs();

}  // namespace scatter::core

#endif  // SCATTER_SRC_CORE_WIRE_CODECS_H_
