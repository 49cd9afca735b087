// The deterministic state machine replicated by every Scatter group.
//
// State: the group's key range + epoch, its slice of the key-value store,
// cached neighbor links, per-client dedup records, at most one active
// (frozen) cross-group transaction, and the set of decided transaction
// outcomes (including those inherited across splits/merges, which is what
// lets recovery status queries always find an answer while any descendant
// of the coordinator group survives).
//
// Everything here is pure apply logic; leader-side driving (sending
// prepares, deciding, retries) lives in core/group_op_driver.

#ifndef SCATTER_SRC_MEMBERSHIP_GROUP_STATE_MACHINE_H_
#define SCATTER_SRC_MEMBERSHIP_GROUP_STATE_MACHINE_H_

#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/membership/commands.h"
#include "src/paxos/state_machine.h"
#include "src/ring/group_info.h"
#include "src/ring/key_range.h"
#include "src/store/kv_store.h"

namespace scatter::membership {

// The frozen transaction a group is currently part of.
struct ActiveTxn {
  RingTxn txn;
  bool is_coordinator = false;
  // This group's membership captured when the freeze applied.
  std::vector<NodeId> my_members;
  // Participant side only: the coordinator's shipped contribution.
  Contribution coord;
};

// Wire field list (src/wire/fields.h).
template <class IO>
void Fields(ActiveTxn& a, IO& io) {
  io(a.txn, a.is_coordinator, a.my_members, a.coord);
}

// Payload describing a group that a structural operation brings into
// existence. Every replica of the retiring group(s) derives an identical
// payload, which is what makes "all founding members start with the same
// state" hold.
struct FoundingGroup {
  ring::GroupInfo info;  // id, range, epoch, members (= founding config)
  store::KvStore data;
  DedupTable dedup;
  ring::GroupInfo pred;
  ring::GroupInfo succ;
  std::map<uint64_t, bool> inherited_txns;  // decided outcomes carried over
};

// Host-side events emitted from Apply. Fire on EVERY replica (leader and
// followers) — structural transitions happen wherever the log is applied.
class GroupListener {
 public:
  virtual ~GroupListener() = default;

  // This group retired and `groups` took over its range (split: two,
  // merge: one). The host creates founding replicas for the groups whose
  // member list includes this node, and tears this group down after a grace
  // period. Must not destroy the calling replica synchronously.
  virtual void OnGroupsFounded(GroupId retired,
                               const std::vector<FoundingGroup>& groups) = 0;

  // Range / freeze / txn bookkeeping changed (e.g. repartition applied,
  // prepare recorded). Leader-side drivers re-inspect the state machine.
  virtual void OnStructuralChange(GroupId group) {}
};

struct GroupState {
  GroupId id = kInvalidGroup;
  ring::KeyRange range;
  uint64_t epoch = 0;
  ring::GroupInfo pred;
  ring::GroupInfo succ;
  store::KvStore data;
  DedupTable dedup;
  std::optional<ActiveTxn> active;
  std::map<uint64_t, bool> txn_outcomes;
  bool retired = false;
  // After retirement: where the range went (redirect targets).
  std::vector<ring::GroupInfo> forward;
};

// Wire field list: a group's state bytes (GroupStateMachine::EncodeState),
// which SnapshotMsg carries and checkpoints store.
template <class IO>
void Fields(GroupState& s, IO& io) {
  io(s.id, s.range, s.epoch, s.pred, s.succ, s.data, s.dedup, s.active,
     s.txn_outcomes, s.retired, s.forward);
}

class GroupStateMachine : public paxos::StateMachine {
 public:
  GroupStateMachine(GroupListener* listener, GroupState initial);

  // Supplies the replica's applied membership, queried at freeze time so
  // transactions capture the member set deterministically. Must be bound
  // before the first Apply.
  using ConfigProvider = std::function<std::vector<NodeId>()>;
  void BindConfigProvider(ConfigProvider provider) {
    config_provider_ = std::move(provider);
  }

  // paxos::StateMachine:
  void Apply(uint64_t index, const paxos::Command& command) override;
  void EncodeState(wire::Buffer& out) const override;
  bool Restore(const uint8_t* data, size_t size) override;

  // --- Queries ------------------------------------------------------------
  const GroupState& state() const { return state_; }
  GroupId id() const { return state_.id; }
  const ring::KeyRange& range() const { return state_.range; }
  uint64_t epoch() const { return state_.epoch; }
  bool IsFrozen() const { return state_.active.has_value(); }
  bool IsRetired() const { return state_.retired; }

  // Outcome recorded for (client, seq): the StatusCode of the applied op,
  // or nullopt if no such op has applied.
  std::optional<StatusCode> ResultFor(uint64_t client_id, uint64_t seq) const;

  // Decision for a transaction this group coordinated (or inherited),
  // nullopt if undecided/unknown.
  std::optional<bool> OutcomeOf(uint64_t txn_id) const;

  // This group's contribution to the transaction it is frozen for, as it
  // ships to the other group. Only valid while frozen.
  Contribution OwnContribution() const;

  // --- Mutation-testing hooks ---------------------------------------------
  // These deliberately break invariants (bypassing all apply-time
  // validation) so auditor tests can prove each violation class is caught.
  // Never called by protocol code.
  void OverrideRangeForTest(const ring::KeyRange& range) {
    state_.range = range;
  }
  void InjectKeyForTest(Key key, Value value) {
    state_.data.Put(key, std::move(value));
  }

  struct Stats {
    uint64_t puts_applied = 0;
    uint64_t puts_rejected_frozen = 0;
    uint64_t puts_rejected_range = 0;
    uint64_t splits_applied = 0;
    uint64_t merges_applied = 0;
    uint64_t repartitions_applied = 0;
    uint64_t txns_aborted = 0;
  };
  const Stats& stats() const { return stats_; }

 private:
  void ApplyWrite(const GroupCommand& cmd);
  void ApplySplit(const SplitCommand& cmd);
  void ApplyCoordStart(const CoordStartCommand& cmd);
  void ApplyCoordDecide(const CoordDecideCommand& cmd);
  void ApplyPrepare(const PrepareCommand& cmd);
  void ApplyDecide(const DecideCommand& cmd);
  void ApplyUpdateNeighbor(const UpdateNeighborCommand& cmd);

  // Executes the committed transaction from this group's perspective,
  // given the other group's contribution.
  void ExecuteCommit(const ActiveTxn& active, const Contribution& peer);
  void ExecuteMergeCommit(const ActiveTxn& active, const Contribution& peer);
  void ExecuteRepartitionCommit(const ActiveTxn& active,
                                const Contribution& peer);

  // Records the outcome of a client op in the dedup table; returns false if
  // the (client, seq) was already applied (retry) and the op must not
  // execute.
  bool RecordClientOp(const paxos::AppCommand& cmd, StatusCode code);

  std::vector<NodeId> CurrentMembers() const;

  GroupListener* listener_;
  GroupState state_;
  ConfigProvider config_provider_;
  Stats stats_;
};

}  // namespace scatter::membership

#endif  // SCATTER_SRC_MEMBERSHIP_GROUP_STATE_MACHINE_H_
