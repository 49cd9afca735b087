// A Chord-style DHT node: successor-list ring maintenance, finger routing,
// and k-successor replication WITHOUT consensus — the eventually-consistent
// baseline the paper compares Scatter against (standing in for
// OpenDHT/Bamboo).
//
// Under churn, ownership of a key flaps between nodes faster than the
// stabilization and replica-repair loops converge, so reads can return
// stale values and acknowledged writes can be lost — exactly the
// inconsistency the churn experiments quantify.

#ifndef SCATTER_SRC_BASELINE_CHORD_NODE_H_
#define SCATTER_SRC_BASELINE_CHORD_NODE_H_

#include <functional>
#include <map>
#include <vector>

#include "src/baseline/chord_messages.h"
#include "src/common/types.h"
#include "src/rpc/rpc_node.h"

namespace scatter::baseline {

inline constexpr size_t kSuccessorList = 4;
// Finger table entries (targets pos + 2^k for the top kFingers bits).
inline constexpr size_t kFingers = 24;
// A lookup (by a node or a client) gives up after this many overlay hops.
inline constexpr size_t kMaxLookupHops = 32;

// True when x lies in the half-open ring arc (a, b].
bool InArc(Key x, Key a, Key b);

class ChordNode : public rpc::RpcNode {
 public:
  // `seeds`: nodes to join through. With wire_directly (bootstrap), the
  // cluster sets the tables by hand and no join runs.
  ChordNode(NodeId id, sim::Network* network, std::vector<NodeId> seeds);

  Key pos() const { return pos_; }
  NodeRef self_ref() const { return NodeRef{id(), pos_}; }

  // Ring position for a node id (stable hash).
  static Key PositionOf(NodeId id);

  // Bootstrap wiring (cluster only).
  void SetNeighbors(NodeRef predecessor, std::vector<NodeRef> successors);
  void SetFinger(size_t i, NodeRef ref);

  // Runs the join protocol through the seeds.
  void StartJoin();

  // Iterative lookup of the successor (owner) of `key`.
  using LookupCallback = std::function<void(StatusOr<NodeRef>)>;
  void Lookup(Key key, LookupCallback callback);

  bool joined() const { return !successors_.empty(); }
  const std::vector<NodeRef>& successors() const { return successors_; }
  NodeRef predecessor() const { return predecessor_; }

 protected:
  void OnRequest(const sim::MessagePtr& message) override;

 private:
  void HandleFindSuccessor(const sim::MessagePtr& m);
  void HandleStore(const sim::MessagePtr& m);
  void HandleNotify(const ChordNotifyMsg& m);

  // The finger/successor entry closest before `target` (for routing).
  NodeRef ClosestPreceding(Key target) const;
  void LookupStep(Key key, NodeRef at, size_t hops, LookupCallback callback);

  void StabilizeLoop();
  void CheckPredecessorLoop();
  void FixFingersLoop();
  void RepairLoop();
  void AdoptSuccessor(NodeRef succ, const std::vector<NodeRef>& their_list);
  void DropDeadSuccessor();
  Key FingerTarget(size_t i) const;
  bool Owns(Key key) const;

  Key pos_;
  std::vector<NodeId> seeds_;
  NodeRef predecessor_;
  std::vector<NodeRef> successors_;  // nearest first
  std::vector<NodeRef> fingers_;
  struct StoredValue {
    Value value;
    TimeMicros version = 0;  // last-writer-wins
  };
  std::map<Key, StoredValue> store_;
  size_t next_finger_ = 0;
  bool joining_ = false;
};

}  // namespace scatter::baseline

#endif  // SCATTER_SRC_BASELINE_CHORD_NODE_H_
