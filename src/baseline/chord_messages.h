// Wire messages of the Chord-like baseline DHT.

#ifndef SCATTER_SRC_BASELINE_CHORD_MESSAGES_H_
#define SCATTER_SRC_BASELINE_CHORD_MESSAGES_H_

#include <vector>

#include "src/common/types.h"
#include "src/sim/message.h"

namespace scatter::baseline {

// A node reference: transport id plus ring position.
struct NodeRef {
  NodeId id = kInvalidNode;
  Key pos = 0;
  bool valid() const { return id != kInvalidNode; }
  friend bool operator==(const NodeRef&, const NodeRef&) = default;
};

// Wire field list (src/wire/fields.h).
template <class IO>
void Fields(NodeRef& r, IO& io) {
  io(r.id, r.pos);
}

// RPC: who succeeds `target` on the ring? Iterative routing: the responder
// either answers (`done`) or names a closer node to ask next.
struct ChordFindSuccessorMsg : sim::Message {
  ChordFindSuccessorMsg() : Message(sim::MessageType::kChordFindSuccessor) {}
  Key target = 0;
};

struct ChordFindSuccessorReplyMsg : sim::Message {
  ChordFindSuccessorReplyMsg()
      : Message(sim::MessageType::kChordFindSuccessorReply) {}
  bool done = false;
  NodeRef result;    // when done
  NodeRef next_hop;  // when not done
};

// RPC: stabilization probe — the responder's predecessor and successor list.
struct ChordGetNeighborsMsg : sim::Message {
  ChordGetNeighborsMsg() : Message(sim::MessageType::kChordGetNeighbors) {}
};

struct ChordGetNeighborsReplyMsg : sim::Message {
  ChordGetNeighborsReplyMsg()
      : Message(sim::MessageType::kChordGetNeighborsReply) {}
  NodeRef predecessor;
  std::vector<NodeRef> successors;
};

// One-way: "I might be your predecessor."
struct ChordNotifyMsg : sim::Message {
  ChordNotifyMsg() : Message(sim::MessageType::kChordNotify) {}
  NodeRef candidate;
};

// RPC: store a key. replicate > 1 makes the receiver fan copies out to its
// successor list (with replicate=1 so copies do not cascade). Values carry
// a last-writer-wins version (assigned by the first storing node when 0);
// receivers keep the newest — OpenDHT-style timestamped values, which keeps
// a STABLE ring consistent while still losing consistency under churn.
struct ChordStoreMsg : sim::Message {
  ChordStoreMsg() : Message(sim::MessageType::kChordStore) {}
  size_t ByteSize() const override { return 64 + value.size(); }
  Key key = 0;
  Value value;
  TimeMicros version = 0;
  uint32_t replicate = 1;
};

struct ChordStoreAckMsg : sim::Message {
  ChordStoreAckMsg() : Message(sim::MessageType::kChordStoreAck) {}
};

// RPC: read a key from the receiver's local table.
struct ChordFetchMsg : sim::Message {
  ChordFetchMsg() : Message(sim::MessageType::kChordFetch) {}
  Key key = 0;
};

struct ChordFetchReplyMsg : sim::Message {
  ChordFetchReplyMsg() : Message(sim::MessageType::kChordFetchReply) {}
  size_t ByteSize() const override { return 48 + value.size(); }
  bool found = false;
  Value value;
};

// RPC: liveness probe.
struct ChordPingMsg : sim::Message {
  ChordPingMsg() : Message(sim::MessageType::kChordPing) {}
};

struct ChordPongMsg : sim::Message {
  ChordPongMsg() : Message(sim::MessageType::kChordPong) {}
};

}  // namespace scatter::baseline

#endif  // SCATTER_SRC_BASELINE_CHORD_MESSAGES_H_
