// Wire-codec registration for txn/'s nested-consensus coordination
// messages.
//
// X(enumerator, Type) pairs a message type with the struct whose field list
// (wire_codecs.cc) is its one wire definition; RegisterWireCodecs() expands
// the list into RegisterMessage<Type> calls, and the union of every module's
// list must cover SCATTER_MESSAGE_TYPE_LIST exactly (compile-time assert in
// tests/wire_test.cc).

#ifndef SCATTER_SRC_TXN_WIRE_CODECS_H_
#define SCATTER_SRC_TXN_WIRE_CODECS_H_

#define SCATTER_TXN_WIRE_MESSAGES(X)         \
  X(kTxnPrepare, TxnPrepareMsg)              \
  X(kTxnPrepareReply, TxnPrepareReplyMsg)    \
  X(kTxnDecision, TxnDecisionMsg)            \
  X(kTxnDecisionAck, TxnDecisionAckMsg)      \
  X(kTxnStatusQuery, TxnStatusQueryMsg)      \
  X(kTxnStatusReply, TxnStatusReplyMsg)

namespace scatter::txn {

// Idempotent; call before any serializing/auditing transport carries
// cross-group coordination traffic.
void RegisterWireCodecs();

}  // namespace scatter::txn

#endif  // SCATTER_SRC_TXN_WIRE_CODECS_H_
