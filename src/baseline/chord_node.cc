#include "src/baseline/chord_node.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/pooled.h"

namespace scatter::baseline {
namespace {

// Total copies of each key (owner + successors).
constexpr size_t kReplication = 3;
constexpr TimeMicros kStabilizeInterval = Millis(500);
// Replica push / key handoff cadence.
constexpr TimeMicros kRepairInterval = Seconds(2);
constexpr TimeMicros kRpcTimeout = Millis(500);

}  // namespace

bool InArc(Key x, Key a, Key b) {
  if (a == b) {
    return true;  // Single-node ring: the whole space.
  }
  if (a < b) {
    return x > a && x <= b;
  }
  return x > a || x <= b;
}

Key ChordNode::PositionOf(NodeId id) {
  return MixHash(id, 0x5ca77e12ba5e11e5ULL);
}

ChordNode::ChordNode(NodeId id, sim::Network* network,
                     std::vector<NodeId> seeds)
    : RpcNode(id, network),
      pos_(PositionOf(id)),
      seeds_(std::move(seeds)),
      fingers_(kFingers) {
  const TimeMicros jitter = rng().Range(0, kStabilizeInterval);
  timers().Schedule(kStabilizeInterval + jitter,
                    [this]() { StabilizeLoop(); });
  timers().Schedule(kStabilizeInterval * 2 + jitter,
                    [this]() { CheckPredecessorLoop(); });
  timers().Schedule(kStabilizeInterval * 3 / 2 + jitter,
                    [this]() { FixFingersLoop(); });
  timers().Schedule(kRepairInterval + jitter,
                    [this]() { RepairLoop(); });
}

void ChordNode::SetNeighbors(NodeRef predecessor,
                             std::vector<NodeRef> successors) {
  predecessor_ = predecessor;
  successors_ = std::move(successors);
}

void ChordNode::SetFinger(size_t i, NodeRef ref) {
  SCATTER_CHECK(i < fingers_.size());
  fingers_[i] = ref;
}

Key ChordNode::FingerTarget(size_t i) const {
  // Finger i points at pos + 2^(64 - fingers + i): coarse fingers first.
  const int shift = static_cast<int>(64 - kFingers + i);
  return pos_ + (uint64_t{1} << shift);
}

bool ChordNode::Owns(Key key) const {
  if (!predecessor_.valid()) {
    return true;  // Without a predecessor, conservatively claim it.
  }
  return InArc(key, predecessor_.pos, pos_);
}

// ---------------------------------------------------------------------------
// Join / lookup
// ---------------------------------------------------------------------------

void ChordNode::StartJoin() {
  if (joining_ || joined() || seeds_.empty()) {
    return;
  }
  joining_ = true;
  const NodeId seed = seeds_[rng().Index(seeds_.size())];
  LookupStep(pos_, NodeRef{seed, 0}, 0,
             [this](StatusOr<NodeRef> result) {
               joining_ = false;
               if (!result.ok() || result->id == id()) {
                 timers().Schedule(Millis(500) + rng().Range(0, Millis(500)),
                                   [this]() { StartJoin(); });
                 return;
               }
               // Adopt the found successor; stabilization fills in the rest.
               successors_ = {*result};
               auto notify = MakePooled<ChordNotifyMsg>();
               notify->candidate = self_ref();
               SendOneWay(result->id, std::move(notify));
             });
}

void ChordNode::Lookup(Key key, LookupCallback callback) {
  if (!joined()) {
    callback(UnavailableError("node not joined"));
    return;
  }
  if (InArc(key, pos_, successors_[0].pos)) {
    callback(successors_[0]);
    return;
  }
  if (Owns(key)) {
    callback(self_ref());
    return;
  }
  LookupStep(key, ClosestPreceding(key), 0, std::move(callback));
}

void ChordNode::LookupStep(Key key, NodeRef at, size_t hops,
                           LookupCallback callback) {
  if (hops >= kMaxLookupHops || !at.valid()) {
    callback(UnavailableError("lookup hop limit"));
    return;
  }
  if (at.id == id()) {
    // Routed back to ourselves; answer locally if possible.
    if (joined() && InArc(key, pos_, successors_[0].pos)) {
      callback(successors_[0]);
    } else {
      callback(UnavailableError("routing loop"));
    }
    return;
  }
  auto req = MakePooled<ChordFindSuccessorMsg>();
  req->target = key;
  Call(at.id, std::move(req), kRpcTimeout,
       [this, key, hops, callback = std::move(callback)](
           StatusOr<sim::MessagePtr> result) mutable {
         if (!result.ok()) {
           callback(result.status());
           return;
         }
         const auto& reply = sim::As<ChordFindSuccessorReplyMsg>(*result);
         if (reply.done) {
           callback(reply.result);
           return;
         }
         LookupStep(key, reply.next_hop, hops + 1, std::move(callback));
       });
}

NodeRef ChordNode::ClosestPreceding(Key target) const {
  NodeRef best;
  auto consider = [&](const NodeRef& ref) {
    if (!ref.valid() || ref.id == id()) {
      return;
    }
    if (!InArc(ref.pos, pos_, target - 1)) {
      return;  // Not strictly between us and the target.
    }
    if (!best.valid() || InArc(ref.pos, best.pos, target - 1)) {
      best = ref;
    }
  };
  for (const NodeRef& f : fingers_) {
    consider(f);
  }
  for (const NodeRef& s : successors_) {
    consider(s);
  }
  if (!best.valid() && !successors_.empty()) {
    best = successors_[0];
  }
  return best;
}

// ---------------------------------------------------------------------------
// Request handling
// ---------------------------------------------------------------------------

void ChordNode::OnRequest(const sim::MessagePtr& message) {
  switch (message->type) {
    case sim::MessageType::kChordFindSuccessor:
      HandleFindSuccessor(message);
      return;
    case sim::MessageType::kChordGetNeighbors: {
      auto reply = MakePooled<ChordGetNeighborsReplyMsg>();
      reply->predecessor = predecessor_;
      reply->successors = successors_;
      Reply(*message, std::move(reply));
      return;
    }
    case sim::MessageType::kChordNotify:
      HandleNotify(sim::As<ChordNotifyMsg>(message));
      return;
    case sim::MessageType::kChordStore:
      HandleStore(message);
      return;
    case sim::MessageType::kChordFetch: {
      const auto& m = sim::As<ChordFetchMsg>(message);
      auto reply = MakePooled<ChordFetchReplyMsg>();
      auto it = store_.find(m.key);
      if (it != store_.end()) {
        reply->found = true;
        reply->value = it->second.value;
      }
      Reply(*message, std::move(reply));
      return;
    }
    case sim::MessageType::kChordPing:
      Reply(*message, MakePooled<ChordPongMsg>());
      return;
    default:
      SCATTER_WARN() << "chord node " << id() << " dropping message type "
                     << sim::MessageTypeName(message->type);
  }
}

void ChordNode::HandleFindSuccessor(const sim::MessagePtr& message) {
  const auto& m = sim::As<ChordFindSuccessorMsg>(message);
  auto reply = MakePooled<ChordFindSuccessorReplyMsg>();
  if (!joined()) {
    reply->done = true;
    reply->result = self_ref();
  } else if (InArc(m.target, pos_, successors_[0].pos)) {
    reply->done = true;
    reply->result = successors_[0];
  } else if (Owns(m.target)) {
    reply->done = true;
    reply->result = self_ref();
  } else {
    reply->next_hop = ClosestPreceding(m.target);
  }
  Reply(*message, std::move(reply));
}

void ChordNode::HandleStore(const sim::MessagePtr& message) {
  const auto& m = sim::As<ChordStoreMsg>(message);
  const TimeMicros version = m.version != 0 ? m.version : now();
  auto it = store_.find(m.key);
  if (it == store_.end() || version > it->second.version) {
    store_[m.key] = StoredValue{m.value, version};
  }
  if (m.replicate > 1) {
    // Fan out copies to the successor list, best effort, no acks.
    const size_t copies =
        std::min<size_t>(m.replicate - 1, successors_.size());
    for (size_t i = 0; i < copies; ++i) {
      if (successors_[i].id == id()) {
        continue;
      }
      auto copy = MakePooled<ChordStoreMsg>();
      copy->key = m.key;
      copy->value = m.value;
      copy->version = version;
      copy->replicate = 1;
      SendOneWay(successors_[i].id, std::move(copy));
    }
  }
  if (message->rpc_id != 0) {
    Reply(*message, MakePooled<ChordStoreAckMsg>());
  }
}

void ChordNode::HandleNotify(const ChordNotifyMsg& m) {
  if (!predecessor_.valid() ||
      InArc(m.candidate.pos, predecessor_.pos, pos_ - 1)) {
    predecessor_ = m.candidate;
  }
}

// ---------------------------------------------------------------------------
// Maintenance loops
// ---------------------------------------------------------------------------

void ChordNode::AdoptSuccessor(NodeRef succ,
                               const std::vector<NodeRef>& their_list) {
  std::vector<NodeRef> fresh{succ};
  for (const NodeRef& ref : their_list) {
    if (fresh.size() >= kSuccessorList) {
      break;
    }
    if (ref.valid() && ref.id != id() &&
        std::find(fresh.begin(), fresh.end(), ref) == fresh.end()) {
      fresh.push_back(ref);
    }
  }
  successors_ = std::move(fresh);
}

void ChordNode::DropDeadSuccessor() {
  if (!successors_.empty()) {
    successors_.erase(successors_.begin());
  }
}

void ChordNode::StabilizeLoop() {
  timers().Schedule(kStabilizeInterval, [this]() { StabilizeLoop(); });
  if (!joined()) {
    StartJoin();
    return;
  }
  const NodeRef succ = successors_[0];
  Call(succ.id, MakePooled<ChordGetNeighborsMsg>(), kRpcTimeout,
       [this, succ](StatusOr<sim::MessagePtr> result) {
         if (!result.ok()) {
           DropDeadSuccessor();
           return;
         }
         const auto& reply = sim::As<ChordGetNeighborsReplyMsg>(*result);
         NodeRef new_succ = succ;
         if (reply.predecessor.valid() && reply.predecessor.id != id() &&
             InArc(reply.predecessor.pos, pos_, succ.pos - 1)) {
           new_succ = reply.predecessor;  // Someone slotted in between.
         }
         AdoptSuccessor(new_succ, reply.successors);
         auto notify = MakePooled<ChordNotifyMsg>();
         notify->candidate = self_ref();
         SendOneWay(successors_[0].id, std::move(notify));
       });
}

void ChordNode::CheckPredecessorLoop() {
  timers().Schedule(kStabilizeInterval * 2,
                    [this]() { CheckPredecessorLoop(); });
  if (!predecessor_.valid()) {
    return;
  }
  Call(predecessor_.id, MakePooled<ChordPingMsg>(), kRpcTimeout,
       [this, probed = predecessor_](StatusOr<sim::MessagePtr> result) {
         if (!result.ok() && predecessor_ == probed) {
           predecessor_ = NodeRef{};
         }
       });
}

void ChordNode::FixFingersLoop() {
  timers().Schedule(kStabilizeInterval, [this]() { FixFingersLoop(); });
  if (!joined()) {
    return;
  }
  const size_t i = next_finger_++ % fingers_.size();
  Lookup(FingerTarget(i), [this, i](StatusOr<NodeRef> result) {
    if (result.ok()) {
      fingers_[i] = *result;
    }
  });
}

void ChordNode::RepairLoop() {
  timers().Schedule(kRepairInterval, [this]() { RepairLoop(); });
  if (!joined()) {
    return;
  }
  // Push owned keys to the successor replicas, and hand keys our (new)
  // predecessor owns back to it, keeping a local replica copy.
  size_t budget = 256;
  for (const auto& [key, stored] : store_) {
    if (budget-- == 0) {
      break;
    }
    if (Owns(key)) {
      const size_t copies =
          std::min<size_t>(kReplication - 1, successors_.size());
      for (size_t i = 0; i < copies; ++i) {
        if (successors_[i].id == id()) {
          continue;
        }
        auto copy = MakePooled<ChordStoreMsg>();
        copy->key = key;
        copy->value = stored.value;
        copy->version = stored.version;
        copy->replicate = 1;
        SendOneWay(successors_[i].id, std::move(copy));
      }
    } else if (predecessor_.valid() && predecessor_.id != id()) {
      auto handoff = MakePooled<ChordStoreMsg>();
      handoff->key = key;
      handoff->value = stored.value;
      handoff->version = stored.version;
      handoff->replicate = 1;
      SendOneWay(predecessor_.id, std::move(handoff));
    }
  }
}

}  // namespace scatter::baseline
