// ScatterNode: one simulated machine participating in the Scatter system.
//
// A node hosts at most a handful of group replicas (usually exactly one;
// transiently two during migration or structural handover), serves client
// storage requests against them, runs the self-organization policies when
// it leads a group, and executes the join protocol when it owns no group.
//
// The node wires together every layer below it:
//   paxos::Replica        -- per-group consensus        (ReplicaHost)
//   membership::GroupStateMachine -- per-group state    (GroupListener)
//   txn::GroupOpDriver    -- per-group structural ops   (DriverHost)
//   ring::RingMap         -- routing cache
//   rpc::RpcNode          -- transport

#ifndef SCATTER_SRC_CORE_SCATTER_NODE_H_
#define SCATTER_SRC_CORE_SCATTER_NODE_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/core/config.h"
#include "src/core/messages.h"
#include "src/membership/group_state_machine.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/paxos/replica.h"
#include "src/ring/ring_map.h"
#include "src/rpc/rpc_node.h"
#include "src/storage/sim_disk.h"
#include "src/txn/group_op_driver.h"
#include "src/txn/messages.h"

namespace scatter::core {

class ScatterNode : public rpc::RpcNode,
                    public paxos::ReplicaHost,
                    public membership::GroupListener,
                    public txn::DriverHost {
 public:
  // The node attaches to the network immediately. It does nothing until
  // either HostFoundingGroup (bootstrap), RecoverFromDisk (restart) or
  // StartJoin (churn arrival). A non-null `disk` is the node's durable
  // storage: every hosted replica journals through it, and it must outlive
  // the node (the cluster keeps it across crash/restart cycles).
  ScatterNode(NodeId id, sim::Network* network, const ScatterConfig& config,
              std::vector<NodeId> seeds, storage::SimDisk* disk = nullptr);
  ~ScatterNode() override;

  // Bootstrap path: become a founding member of `group` (all founding
  // members are constructed with identical payloads).
  void HostFoundingGroup(const membership::FoundingGroup& group);

  // Churn path: locate a group through the seeds and join it.
  void StartJoin();

  // Restart path: rebuilds every group replica the disk holds a usable
  // checkpoint for (WAL replay over snapshot) and re-applies their
  // committed entries. Returns the number of groups recovered; when zero
  // the caller falls back to StartJoin. Remnants of unrecoverable groups
  // (a joiner that crashed before its first snapshot install) are deleted.
  size_t RecoverFromDisk();

  // --- Explicit structural operations (benchmarks, examples) -------------
  // Each requires this node to lead `group` and the group to be idle;
  // `done` fires with the outcome. These invoke exactly the same machinery
  // the policy engine uses.
  using OpCallback = std::function<void(Status)>;
  void RequestSplit(GroupId group, OpCallback done);
  void RequestMerge(GroupId group, OpCallback done);
  void RequestRepartition(GroupId group, Key new_boundary, OpCallback done);

  // --- Introspection (tests, verifier, benchmarks) -----------------------
  // Live (started, non-retired) groups this node is serving.
  std::vector<const membership::GroupStateMachine*> ServingGroups() const;
  // Routing infos (with leader hints and key counts) for every serving
  // group, as this node would advertise them.
  std::vector<ring::GroupInfo> ServingInfos() const;
  const membership::GroupStateMachine* GroupSm(GroupId id) const;
  const paxos::Replica* GroupReplica(GroupId id) const;
  // The structural-op driver of a hosted group (auditor introspection).
  const txn::GroupOpDriver* GroupDriver(GroupId id) const;
  const ring::RingMap& ring_cache() const { return ring_; }
  bool HostsAnyGroup() const;

  // Mutable access to hosted subsystems for mutation tests that seed
  // invariant violations. Never used by protocol code.
  paxos::Replica* MutableGroupReplicaForTest(GroupId id);
  membership::GroupStateMachine* MutableGroupSmForTest(GroupId id);
  txn::GroupOpDriver* MutableGroupDriverForTest(GroupId id);

  struct NodeStats {
    uint64_t client_ops_served = 0;
    uint64_t client_ops_redirected = 0;
    uint64_t client_ops_rejected = 0;
    uint64_t joins_attempted = 0;
    uint64_t joins_succeeded = 0;
    uint64_t members_removed = 0;
    uint64_t splits_initiated = 0;
    uint64_t merges_initiated = 0;
    uint64_t repartitions_initiated = 0;
    uint64_t migrations_directed = 0;
  };
  const NodeStats& stats() const { return stats_; }

  // --- ReplicaHost --------------------------------------------------------
  void SendPaxos(NodeId to,
                 std::shared_ptr<paxos::PaxosMessage> message) override;
  void OnLeaderChanged(GroupId group, NodeId leader) override;
  void OnRoleChanged(GroupId group, bool is_leader) override;
  void OnConfigApplied(GroupId group,
                       const std::vector<NodeId>& members) override;
  void OnSelfRemoved(GroupId group) override;
  void OnMemberSuspected(GroupId group, NodeId member) override;

  // --- GroupListener -------------------------------------------------------
  void OnGroupsFounded(
      GroupId retired,
      const std::vector<membership::FoundingGroup>& groups) override;
  void OnStructuralChange(GroupId group) override;

  // --- DriverHost ----------------------------------------------------------
  void SendToNode(NodeId to, sim::MessagePtr message) override;

 protected:
  void OnRequest(const sim::MessagePtr& message) override;

 private:
  struct Hosted {
    // Destruction order matters (reverse of declaration): the replica goes
    // first — its teardown fails pending proposals, and those callbacks
    // (including the driver's own) may touch both the driver and the state
    // machine — then the driver, then the state machine.
    std::unique_ptr<membership::GroupStateMachine> sm;
    std::unique_ptr<txn::GroupOpDriver> driver;
    std::unique_ptr<paxos::Replica> replica;
    // Registry cells the obs timeline reads: counts of accepted client ops
    // and their bytes, and their accept-to-reply latency.
    Counter* ops_accepted = nullptr;
    Counter* bytes_accepted = nullptr;
    Histogram* op_latency = nullptr;
    bool teardown_scheduled = false;
    TimeMicros last_neighbor_refresh = 0;
    // Load tracking for the policy engine (leader only): ops served in the
    // current policy window, and the smoothed rate.
    uint64_t window_ops = 0;
    double op_rate = 0.0;
    TimeMicros last_rate_update = 0;
    TimeMicros last_repartition = 0;
    TimeMicros leadership_since = 0;
  };

  // A client request in service. The reply goes out when the last of its
  // keys completes.
  struct PendingRequest {
    sim::MessagePtr request;
    std::shared_ptr<ClientReplyMsg> reply;
    size_t keys_left = 0;
    // The node span of the first key served: the reply goes out in it. A
    // request redirected in full replies in the request's own context.
    obs::TraceContext span;
  };

  // --- Request handlers ----------------------------------------------------
  void HandleClientRequest(const sim::MessagePtr& m);
  // Serves key i of a request exactly as a request of that key alone.
  void ServeKey(const std::shared_ptr<PendingRequest>& p, size_t i);
  // Marks one key of `p` complete; the last one sends the reply.
  void FinishKey(const std::shared_ptr<PendingRequest>& p);
  void HandleLookup(const sim::MessagePtr& m);
  void HandleJoinRequest(const sim::MessagePtr& m);
  void HandleJoinReplyMessage(const sim::MessagePtr& m, size_t attempt);
  void HandleGroupInfoRequest(const sim::MessagePtr& m);
  void HandleMigrateRequest(const MigrateRequestMsg& m);
  void HandleMigrateDirective(const MigrateDirectiveMsg& m);
  void HandleLeaveRequest(const LeaveRequestMsg& m);
  void HandleTxnMessage(const sim::MessagePtr& m);

  // --- Group hosting -------------------------------------------------------
  Hosted* CreateHosted(GroupId id, membership::GroupState initial,
                       std::vector<NodeId> founding_members);
  // Driver/load wiring shared by the founding, joiner and recovery paths;
  // the caller has placed sm + replica into hosted_[id] already.
  Hosted* WireHosted(GroupId id);
  // The replica's journal on this node's disk (null when diskless).
  std::unique_ptr<paxos::GroupJournal> MakeJournal(GroupId id);
  void ScheduleTeardown(GroupId group, TimeMicros delay);
  // The serving (started, non-retired) hosted group covering `key`.
  Hosted* FindServingGroup(Key key);
  Hosted* FindHosted(GroupId id);
  // Live routing info for a hosted group (range/epoch from the SM, members
  // from the replica, leader hint).
  ring::GroupInfo SelfInfo(const Hosted& hosted) const;
  // Fills `out` with the best routing hints for `key`.
  void AddRoutingHints(Key key, std::vector<ring::GroupInfo>* out);
  void AbsorbRingInfo(const ring::GroupInfo& info);

  // --- Policy --------------------------------------------------------------
  void PolicyTick();
  void RunGroupPolicy(GroupId group, Hosted& hosted);
  void MaybeSplit(GroupId group, Hosted& hosted);
  void MaybeMergeOrMigrate(GroupId group, Hosted& hosted);
  void MaybeRepartition(GroupId group, Hosted& hosted);
  void RemoveSuspects(GroupId group, Hosted& hosted);
  void RefreshNeighbors(GroupId group, Hosted& hosted);
  void MaybeTransferLeadership(GroupId group, Hosted& hosted);
  void MaybeRejoin();
  void GossipTick();
  Key PickSplitKey(const Hosted& hosted) const;
  // Splits `hosted` at PickSplitKey, the lower half of the sorted `members`
  // going left. A split key at the range's start fails `done` with
  // INVALID_ARGUMENT and starts nothing.
  void InitiateSplit(Hosted& hosted, std::vector<NodeId> members,
                     OpCallback done);

  // --- Join protocol -------------------------------------------------------
  void AttemptJoin(size_t attempt);
  void JoinTarget(const ring::GroupInfo& target, size_t attempt,
                  bool fresh_target);
  void RetryJoin(size_t attempt);

  uint64_t NewUniqueId();

  ScatterConfig cfg_;
  std::vector<NodeId> seeds_;
  storage::SimDisk* disk_;  // null: memory-only node (pre-durability behavior)
  std::map<GroupId, Hosted> hosted_;
  ring::RingMap ring_;
  NodeStats stats_;
  uint64_t unique_counter_ = 0;
  bool joining_ = false;
  bool migrating_ = false;  // executing a migrate directive
  TimeMicros last_hosted_at_ = 0;
};

}  // namespace scatter::core

#endif  // SCATTER_SRC_CORE_SCATTER_NODE_H_
