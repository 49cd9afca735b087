// Wire-codec registration for the Chord-like baseline DHT's messages.
//
// X(enumerator, Type) pairs a message type with the struct whose field list
// (wire_codecs.cc) is its one wire definition; RegisterWireCodecs() expands
// the list into RegisterMessage<Type> calls, and the union of every module's
// list must cover SCATTER_MESSAGE_TYPE_LIST exactly (compile-time assert in
// tests/wire_test.cc).

#ifndef SCATTER_SRC_BASELINE_WIRE_CODECS_H_
#define SCATTER_SRC_BASELINE_WIRE_CODECS_H_

#define SCATTER_CHORD_WIRE_MESSAGES(X)                     \
  X(kChordFindSuccessor, ChordFindSuccessorMsg)            \
  X(kChordFindSuccessorReply, ChordFindSuccessorReplyMsg)  \
  X(kChordGetNeighbors, ChordGetNeighborsMsg)              \
  X(kChordGetNeighborsReply, ChordGetNeighborsReplyMsg)    \
  X(kChordNotify, ChordNotifyMsg)                          \
  X(kChordStore, ChordStoreMsg)                            \
  X(kChordStoreAck, ChordStoreAckMsg)                      \
  X(kChordFetch, ChordFetchMsg)                            \
  X(kChordFetchReply, ChordFetchReplyMsg)                  \
  X(kChordPing, ChordPingMsg)                              \
  X(kChordPong, ChordPongMsg)

namespace scatter::baseline {

// Idempotent; registers the Chord messages plus the rpc envelope the
// baseline's clients share with the Scatter stack.
void RegisterWireCodecs();

}  // namespace scatter::baseline

#endif  // SCATTER_SRC_BASELINE_WIRE_CODECS_H_
