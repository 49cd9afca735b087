// Wire messages of the nested-consensus protocol for cross-group
// operations (merge, repartition).
//
// Every step a group takes (prepare, decide) is first committed in that
// group's own Paxos log, which is what makes participants behave like
// failure-free processes from the transaction's point of view — the paper's
// key structuring idea. These messages only carry the coordination between
// group leaders; durability always lives in the group logs.

#ifndef SCATTER_SRC_TXN_MESSAGES_H_
#define SCATTER_SRC_TXN_MESSAGES_H_

#include "src/common/types.h"
#include "src/membership/commands.h"
#include "src/sim/message.h"

namespace scatter::txn {

// Coordinator leader -> participant leader. Carries the coordinator group's
// full contribution so that the participant's prepare record is
// self-contained.
struct TxnPrepareMsg : sim::Message {
  TxnPrepareMsg() : Message(sim::MessageType::kTxnPrepare) {}
  size_t ByteSize() const override { return 192 + coord.ByteSize(); }
  membership::RingTxn txn;
  membership::Contribution coord;
};

// Participant leader -> coordinator leader (one-way; matched by txn id).
struct TxnPrepareReplyMsg : sim::Message {
  TxnPrepareReplyMsg() : Message(sim::MessageType::kTxnPrepareReply) {}
  size_t ByteSize() const override { return 128 + part.ByteSize(); }
  uint64_t txn_id = 0;
  bool prepared = false;
  membership::Contribution part;  // when prepared
};

// Coordinator leader -> participant leader, after the decision committed in
// the coordinator group's log.
struct TxnDecisionMsg : sim::Message {
  TxnDecisionMsg() : Message(sim::MessageType::kTxnDecision) {}
  uint64_t txn_id = 0;
  GroupId participant_group = kInvalidGroup;
  bool commit = false;
};

struct TxnDecisionAckMsg : sim::Message {
  TxnDecisionAckMsg() : Message(sim::MessageType::kTxnDecisionAck) {}
  uint64_t txn_id = 0;
};

// Participant recovery: "what happened to txn X?" — answered by any node
// hosting a group (or descendant group) that recorded the outcome.
struct TxnStatusQueryMsg : sim::Message {
  TxnStatusQueryMsg() : Message(sim::MessageType::kTxnStatusQuery) {}
  uint64_t txn_id = 0;
};

struct TxnStatusReplyMsg : sim::Message {
  TxnStatusReplyMsg() : Message(sim::MessageType::kTxnStatusReply) {}
  uint64_t txn_id = 0;
  bool known = false;
  bool committed = false;
};

}  // namespace scatter::txn

#endif  // SCATTER_SRC_TXN_MESSAGES_H_
