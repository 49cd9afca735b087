// Message base type for everything that crosses the simulated network.
//
// Messages form a closed class hierarchy tagged with MessageType so receive
// paths dispatch with a switch instead of dynamic_cast. A message is
// immutable once handed to Network::Send; the in-process transport shares
// one allocation across broadcast fan-out, while the serializing transport
// (src/wire/) hands every receiver a fresh decoded copy.

#ifndef SCATTER_SRC_SIM_MESSAGE_H_
#define SCATTER_SRC_SIM_MESSAGE_H_

#include <cstddef>
#include <memory>

#include "src/common/types.h"

namespace scatter::sim {

// Single source of truth for the closed set of message types. Each entry is
// X(enumerator, Name): the X-macro generates the MessageType enum,
// MessageTypeName(), the kAllMessageTypes table, and the codec registry's
// completeness accounting (src/wire/codec.cc) from this one list, so a new
// message type cannot be added without the wire layer noticing.
//
// Tags are grouped by the module that owns the message so modules stay
// decoupled; the list lives here only because the transport must be able to
// carry all of them. Wire compatibility: enumerator values are part of the
// frame format — append within a module's block rather than reordering.
#define SCATTER_MESSAGE_TYPE_LIST(X)                                        \
  /* rpc/: generic envelope used by RpcClient for error replies. */        \
  X(kRpcError, RpcError)                                                    \
  /* paxos/: consensus traffic within one group. An empty Accept doubles   \
     as the leader heartbeat. */                                            \
  X(kPaxosPrepare, PaxosPrepare)                                            \
  X(kPaxosPromise, PaxosPromise)                                            \
  X(kPaxosAccept, PaxosAccept)                                              \
  X(kPaxosAccepted, PaxosAccepted)                                          \
  X(kPaxosSnapshot, PaxosSnapshot) /* snapshot install for a (re)joiner */  \
  X(kPaxosSnapshotAck, PaxosSnapshotAck)                                    \
  X(kPaxosTimeoutNow, PaxosTimeoutNow) /* transfer: campaign immediately */ \
  X(kPaxosPing, PaxosPing) /* peer RTT probe (leader-placement input) */    \
  X(kPaxosPong, PaxosPong)                                                  \
  /* txn/: nested consensus across groups. */                               \
  X(kTxnPrepare, TxnPrepare)                                                \
  X(kTxnPrepareReply, TxnPrepareReply)                                      \
  X(kTxnDecision, TxnDecision)                                              \
  X(kTxnDecisionAck, TxnDecisionAck)                                        \
  X(kTxnStatusQuery, TxnStatusQuery)                                        \
  X(kTxnStatusReply, TxnStatusReply)                                        \
  /* core/: client-facing storage and control plane. */                     \
  X(kClientRequest, ClientRequest)                                          \
  X(kClientReply, ClientReply)                                              \
  X(kLookupRequest, LookupRequest)                                          \
  X(kLookupReply, LookupReply)                                              \
  X(kJoinRequest, JoinRequest)                                              \
  X(kJoinReply, JoinReply)                                                  \
  X(kGroupInfoRequest, GroupInfoRequest)                                    \
  X(kGroupInfoReply, GroupInfoReply)                                        \
  X(kMigrateRequest, MigrateRequest) /* needy group asks for a member */    \
  X(kMigrateDirective, MigrateDirective) /* donor tells a member to move */ \
  X(kLeaveRequest, LeaveRequest) /* migrated node asks old leader to drop */\
  X(kRingGossip, RingGossip) /* anti-entropy exchange of routing infos */   \
  /* baseline/: Chord-like DHT traffic. */                                  \
  X(kChordFindSuccessor, ChordFindSuccessor)                                \
  X(kChordFindSuccessorReply, ChordFindSuccessorReply)                      \
  X(kChordGetNeighbors, ChordGetNeighbors)                                  \
  X(kChordGetNeighborsReply, ChordGetNeighborsReply)                        \
  X(kChordNotify, ChordNotify)                                              \
  X(kChordStore, ChordStore)                                                \
  X(kChordStoreAck, ChordStoreAck)                                          \
  X(kChordFetch, ChordFetch)                                                \
  X(kChordFetchReply, ChordFetchReply)                                      \
  X(kChordPing, ChordPing)                                                  \
  X(kChordPong, ChordPong)

// Every concrete message class has a unique tag, generated from the table
// above (kInvalid = 0 is reserved and never carries a codec).
enum class MessageType : uint16_t {
  kInvalid = 0,
#define SCATTER_MSG_ENUM(name, str) name,
  SCATTER_MESSAGE_TYPE_LIST(SCATTER_MSG_ENUM)
#undef SCATTER_MSG_ENUM
};

// All valid (non-kInvalid) message types, in tag order. The wire layer uses
// this to prove codec coverage is exhaustive.
inline constexpr MessageType kAllMessageTypes[] = {
#define SCATTER_MSG_ARRAY(name, str) MessageType::name,
    SCATTER_MESSAGE_TYPE_LIST(SCATTER_MSG_ARRAY)
#undef SCATTER_MSG_ARRAY
};

inline constexpr size_t kMessageTypeCount =
    sizeof(kAllMessageTypes) / sizeof(kAllMessageTypes[0]);

// Human-readable tag name, for trace artifacts and diagnostics. Constexpr so
// compile-time checks (codec completeness static_asserts) can name types in
// their diagnostics.
constexpr const char* MessageTypeName(MessageType type) {
  switch (type) {
    case MessageType::kInvalid:
      return "Invalid";
#define SCATTER_MSG_NAME(name, str) \
  case MessageType::name:           \
    return #str;
    SCATTER_MESSAGE_TYPE_LIST(SCATTER_MSG_NAME)
#undef SCATTER_MSG_NAME
  }
  return "Unknown";
}

struct Message {
  explicit Message(MessageType t) : type(t) {}
  virtual ~Message() = default;

  // Approximate wire size in bytes (headers + payload). Subclasses carrying
  // bulk data (log entries, store snapshots, values) override this so the
  // network's bandwidth model charges them realistically.
  virtual size_t ByteSize() const { return 64; }

  MessageType type;
  NodeId from = kInvalidNode;
  NodeId to = kInvalidNode;
  // Nonzero when this message is part of an RPC exchange; responses echo the
  // id of their request.
  uint64_t rpc_id = 0;
  bool is_response = false;
  // Piggybacked causal-trace context (obs::TraceContext wire format). Stamped
  // by Network::Send from the ambient span and restored around delivery;
  // both stay 0 when tracing is off.
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
};

using MessagePtr = std::shared_ptr<Message>;

// Convenience for receive-path downcasts after a switch on type. The switch
// guarantees the dynamic type, so this is a static_cast in disguise; the
// template just keeps call sites readable.
template <typename T>
const T& As(const MessagePtr& m) {
  return static_cast<const T&>(*m);
}

}  // namespace scatter::sim

#endif  // SCATTER_SRC_SIM_MESSAGE_H_
