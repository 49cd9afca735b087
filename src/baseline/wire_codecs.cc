// Field lists for the Chord-like baseline DHT messages (baseline/).

#include "src/baseline/wire_codecs.h"

#include "src/baseline/chord_messages.h"
#include "src/rpc/wire_codecs.h"
#include "src/wire/codec.h"

namespace scatter::baseline {

template <class IO>
void Fields(ChordFindSuccessorMsg& m, IO& io) {
  io(m.target);
}

template <class IO>
void Fields(ChordFindSuccessorReplyMsg& m, IO& io) {
  io(m.done, m.result, m.next_hop);
}

template <class IO>
void Fields(ChordGetNeighborsReplyMsg& m, IO& io) {
  io(m.predecessor, m.successors);
}

template <class IO>
void Fields(ChordNotifyMsg& m, IO& io) {
  io(m.candidate);
}

template <class IO>
void Fields(ChordStoreMsg& m, IO& io) {
  io(m.key, m.value, m.version, m.replicate);
}

template <class IO>
void Fields(ChordFetchMsg& m, IO& io) {
  io(m.key);
}

template <class IO>
void Fields(ChordFetchReplyMsg& m, IO& io) {
  io(m.found, m.value);
}

// Probes and acks carry no payload.
template <class IO>
void Fields(ChordGetNeighborsMsg&, IO&) {}
template <class IO>
void Fields(ChordStoreAckMsg&, IO&) {}
template <class IO>
void Fields(ChordPingMsg&, IO&) {}
template <class IO>
void Fields(ChordPongMsg&, IO&) {}

void RegisterWireCodecs() {
  static const bool done = [] {
    SCATTER_CHORD_WIRE_MESSAGES(SCATTER_REGISTER_MESSAGE)
    rpc::RegisterWireCodecs();
    return true;
  }();
  (void)done;
}

}  // namespace scatter::baseline
