// Client-facing and control-plane messages of the Scatter node.

#ifndef SCATTER_SRC_CORE_MESSAGES_H_
#define SCATTER_SRC_CORE_MESSAGES_H_

#include <vector>

#include "src/common/pooled.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/ring/group_info.h"
#include "src/sim/message.h"

namespace scatter::core {

enum class ClientOp : uint8_t { kGet, kPut, kDelete };

// Client -> node (RPC). Writes carry (client_id, client_seq) so retries are
// exactly-once; reads are idempotent and carry no sequence.
//
// A Get request is a batch of n >= 1 keys, one per Get the client addressed
// to this node in one event: `key` is key 0 and `more_keys` holds keys
// 1..n-1. A write is always a batch of one.
struct ClientRequestMsg : sim::Message {
  ClientRequestMsg() : Message(sim::MessageType::kClientRequest) {}
  size_t ByteSize() const override {
    return key_bytes(0) + sizeof(Key) * more_keys.size();
  }
  size_t key_count() const { return 1 + more_keys.size(); }
  Key key_at(size_t i) const { return i == 0 ? key : more_keys[i - 1]; }
  // Key i's share of ByteSize(): key 0 carries the header and the value.
  size_t key_bytes(size_t i) const {
    return i == 0 ? 64 + value.size() : sizeof(Key);
  }

  ClientOp op = ClientOp::kGet;
  Key key = 0;
  Value value;
  uint64_t client_id = 0;
  uint64_t client_seq = 0;
  std::vector<Key, PoolAllocator<Key>> more_keys;
};

// The outcome of one key of a request.
struct KeyResult {
  StatusCode code = StatusCode::kOk;
  bool found = false;  // get only
  Value value;         // get only
};

// One reply per request. Result 0 sits in code/found/value and result i > 0
// in more_results[i - 1], in the request's key order.
struct ClientReplyMsg : sim::Message {
  ClientReplyMsg() : Message(sim::MessageType::kClientReply) {}
  size_t ByteSize() const override {
    size_t bytes = 64 + value.size() + 96 * ring_updates.size();
    for (const KeyResult& r : more_results) {
      bytes += 8 + r.value.size();
    }
    return bytes;
  }

  StatusCode code = StatusCode::kOk;
  bool found = false;  // get only
  Value value;         // get only
  // Routing repair: fresh information about groups relevant to the keys
  // (the serving group, redirect targets, or forwards of retired groups).
  std::vector<ring::GroupInfo> ring_updates;
  std::vector<KeyResult, PoolAllocator<KeyResult>> more_results;
};

// Directory lookup (RPC): who owns `key`?
struct LookupRequestMsg : sim::Message {
  LookupRequestMsg() : Message(sim::MessageType::kLookupRequest) {}
  Key key = 0;
};

struct LookupReplyMsg : sim::Message {
  LookupReplyMsg() : Message(sim::MessageType::kLookupReply) {}
  bool known = false;
  // True when the responder hosts the covering group itself (the info is
  // authoritative, not a cache guess).
  bool authoritative = false;
  ring::GroupInfo info;
};

// Node -> group leader (RPC): add me to your group. The receiving node may
// redirect (code kWrongGroup / kNotLeader + target info in `group`).
struct JoinRequestMsg : sim::Message {
  JoinRequestMsg() : Message(sim::MessageType::kJoinRequest) {}
  // Set by a joiner that has been bounced around: the responder must place
  // the joiner in one of its own groups (or point at that group's leader)
  // instead of redirecting to a "smaller" group it knows about — cached
  // sizes go stale and mutual redirects otherwise loop.
  bool no_redirect = false;
};

struct JoinReplyMsg : sim::Message {
  JoinReplyMsg() : Message(sim::MessageType::kJoinReply) {}
  StatusCode code = StatusCode::kOk;
  ring::GroupInfo group;                 // the group joined / redirect target
  std::vector<ring::GroupInfo> seed_ring;  // responder's ring cache sample
};

// RPC: current info for a specific group (authoritative if hosted).
struct GroupInfoRequestMsg : sim::Message {
  GroupInfoRequestMsg() : Message(sim::MessageType::kGroupInfoRequest) {}
  GroupId group = kInvalidGroup;
};

struct GroupInfoReplyMsg : sim::Message {
  GroupInfoReplyMsg() : Message(sim::MessageType::kGroupInfoReply) {}
  bool known = false;
  bool authoritative = false;
  ring::GroupInfo info;
};

// One-way anti-entropy: a sample of the sender's routing knowledge (its own
// serving groups first, then cached arcs). Keeps directory caches fresh
// across the whole ring even for groups a node never talks to, which
// shortens redirect chains after splits/merges/repartitions.
struct RingGossipMsg : sim::Message {
  RingGossipMsg() : Message(sim::MessageType::kRingGossip) {}
  std::vector<ring::GroupInfo> infos;
};

// One-way: a small group asks a larger neighbor's leader to donate a member.
struct MigrateRequestMsg : sim::Message {
  MigrateRequestMsg() : Message(sim::MessageType::kMigrateRequest) {}
  ring::GroupInfo beneficiary;
};

// One-way: donor leader tells one of its members to move to `target_group`.
struct MigrateDirectiveMsg : sim::Message {
  MigrateDirectiveMsg() : Message(sim::MessageType::kMigrateDirective) {}
  ring::GroupInfo target_group;
};

// One-way: a migrated node asks its old group's leader to remove it.
struct LeaveRequestMsg : sim::Message {
  LeaveRequestMsg() : Message(sim::MessageType::kLeaveRequest) {}
  GroupId group = kInvalidGroup;
};

}  // namespace scatter::core

#endif  // SCATTER_SRC_CORE_MESSAGES_H_
