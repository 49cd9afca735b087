// Field lists for the nested-consensus coordination messages (txn/).

#include "src/txn/wire_codecs.h"

#include "src/txn/messages.h"
#include "src/wire/codec.h"

namespace scatter::txn {

template <class IO>
void Fields(TxnPrepareMsg& m, IO& io) {
  io(m.txn, m.coord);
}

template <class IO>
void Fields(TxnPrepareReplyMsg& m, IO& io) {
  io(m.txn_id, m.prepared, m.part);
}

template <class IO>
void Fields(TxnDecisionMsg& m, IO& io) {
  io(m.txn_id, m.participant_group, m.commit);
}

template <class IO>
void Fields(TxnDecisionAckMsg& m, IO& io) {
  io(m.txn_id);
}

template <class IO>
void Fields(TxnStatusQueryMsg& m, IO& io) {
  io(m.txn_id);
}

template <class IO>
void Fields(TxnStatusReplyMsg& m, IO& io) {
  io(m.txn_id, m.known, m.committed);
}

void RegisterWireCodecs() {
  static const bool done = [] {
    SCATTER_TXN_WIRE_MESSAGES(SCATTER_REGISTER_MESSAGE)
    return true;
  }();
  (void)done;
}

}  // namespace scatter::txn
