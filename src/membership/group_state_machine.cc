#include "src/membership/group_state_machine.h"

#include <algorithm>
#include <utility>

#include "src/common/logging.h"
#include "src/wire/fields.h"

namespace scatter::membership {
namespace {

// Set-union of two member lists, preserving first-list order.
std::vector<NodeId> UnionMembers(std::vector<NodeId> a,
                                 const std::vector<NodeId>& b) {
  for (NodeId n : b) {
    if (std::count(a.begin(), a.end(), n) == 0) {
      a.push_back(n);
    }
  }
  return a;
}

// Whether `seq` lies at or below the entry's window horizon, where results
// have been pruned.
bool BelowHorizon(const DedupEntry& entry, uint64_t seq) {
  return entry.max_seq >= kDedupWindow && seq <= entry.max_seq - kDedupWindow;
}

// Drops the results at or below the horizon, in one range erase.
void PruneBelowHorizon(DedupEntry& entry) {
  if (entry.max_seq < kDedupWindow) {
    return;
  }
  auto& results = entry.results;
  results.erase(results.begin(),
                results.lower_bound(entry.max_seq - kDedupWindow + 1));
}

}  // namespace

GroupStateMachine::GroupStateMachine(GroupListener* listener,
                                     GroupState initial)
    : listener_(listener), state_(std::move(initial)) {
  SCATTER_CHECK(listener_ != nullptr);
  SCATTER_CHECK(state_.id != kInvalidGroup);
}

void GroupStateMachine::Apply(uint64_t index, const paxos::Command& command) {
  const auto& cmd = static_cast<const GroupCommand&>(command);
  switch (cmd.op) {
    case GroupCmdKind::kPut:
    case GroupCmdKind::kDelete:
      ApplyWrite(cmd);
      break;
    case GroupCmdKind::kSplit:
      ApplySplit(static_cast<const SplitCommand&>(cmd));
      break;
    case GroupCmdKind::kCoordStart:
      ApplyCoordStart(static_cast<const CoordStartCommand&>(cmd));
      break;
    case GroupCmdKind::kCoordDecide:
      ApplyCoordDecide(static_cast<const CoordDecideCommand&>(cmd));
      break;
    case GroupCmdKind::kPrepare:
      ApplyPrepare(static_cast<const PrepareCommand&>(cmd));
      break;
    case GroupCmdKind::kDecide:
      ApplyDecide(static_cast<const DecideCommand&>(cmd));
      break;
    case GroupCmdKind::kUpdateNeighbor:
      ApplyUpdateNeighbor(static_cast<const UpdateNeighborCommand&>(cmd));
      break;
  }
}

bool GroupStateMachine::RecordClientOp(const paxos::AppCommand& cmd,
                                       StatusCode code) {
  if (cmd.client_id == 0) {
    return true;
  }
  DedupEntry& entry = state_.dedup[cmd.client_id];
  if (BelowHorizon(entry, cmd.client_seq)) {
    return false;  // Pruned long ago, so applied long ago.
  }
  // One search serves both the duplicate check and the insert.
  auto it = entry.results.lower_bound(cmd.client_seq);
  if (it != entry.results.end() && it->first == cmd.client_seq) {
    return false;  // Retry of an already-applied op; keep the original.
  }
  entry.results.insert(it, {cmd.client_seq, static_cast<uint8_t>(code)});
  entry.max_seq = std::max(entry.max_seq, cmd.client_seq);
  PruneBelowHorizon(entry);
  return true;
}

void GroupStateMachine::ApplyWrite(const GroupCommand& cmd) {
  const Key key = cmd.op == GroupCmdKind::kPut
                      ? static_cast<const PutCommand&>(cmd).key
                      : static_cast<const DeleteCommand&>(cmd).key;
  StatusCode code = StatusCode::kOk;
  if (state_.retired || !state_.range.Contains(key)) {
    code = StatusCode::kWrongGroup;
    stats_.puts_rejected_range++;
  } else if (state_.active.has_value()) {
    // Frozen for a structural transaction: the store must not change until
    // the decision, or the shipped contribution would go stale. The write
    // had no effect, so do NOT record the rejection under (client, seq) —
    // a recorded rejection would answer every retry of the same seq
    // forever, and the op could never succeed once the freeze lifts. This
    // races more readily under group-commit batching, where a write can
    // ride the same broadcast as the freeze command that rejects it.
    stats_.puts_rejected_frozen++;
    return;
  }
  if (!RecordClientOp(cmd, code)) {
    return;
  }
  if (code != StatusCode::kOk) {
    return;
  }
  if (cmd.op == GroupCmdKind::kPut) {
    const auto& put = static_cast<const PutCommand&>(cmd);
    state_.data.Put(put.key, put.value);
    stats_.puts_applied++;
  } else {
    state_.data.Delete(static_cast<const DeleteCommand&>(cmd).key);
  }
}

void GroupStateMachine::ApplySplit(const SplitCommand& cmd) {
  if (state_.retired || state_.active.has_value()) {
    return;  // Raced a structural change; proposer re-evaluates.
  }
  if (!state_.range.Contains(cmd.split_key) ||
      cmd.split_key == state_.range.begin) {
    return;  // Degenerate geometry.
  }
  if (cmd.left_members.empty() || cmd.right_members.empty()) {
    return;
  }

  auto [left_range, right_range] = state_.range.SplitAt(cmd.split_key);
  const uint64_t child_epoch = state_.epoch + 1;

  FoundingGroup left;
  left.info = ring::GroupInfo{cmd.left_id, left_range, child_epoch,
                              cmd.left_members, kInvalidNode};
  left.data = state_.data.ExtractRange(left_range);
  left.dedup = state_.dedup;
  left.inherited_txns = state_.txn_outcomes;

  FoundingGroup right;
  right.info = ring::GroupInfo{cmd.right_id, right_range, child_epoch,
                               cmd.right_members, kInvalidNode};
  right.data = state_.data.ExtractRange(right_range);
  right.dedup = state_.dedup;
  right.inherited_txns = state_.txn_outcomes;

  // Stitch the ring: children are each other's neighbors; the parent's old
  // neighbors flank them. A group that was the full ring becomes its own
  // pred/succ pair.
  const bool was_full = state_.range.IsFull();
  left.pred = was_full ? right.info : state_.pred;
  left.succ = right.info;
  right.pred = left.info;
  right.succ = was_full ? left.info : state_.succ;

  state_.retired = true;
  state_.forward = {left.info, right.info};
  stats_.splits_applied++;
  listener_->OnGroupsFounded(state_.id, {left, right});
  listener_->OnStructuralChange(state_.id);
}

void GroupStateMachine::ApplyCoordStart(const CoordStartCommand& cmd) {
  if (state_.retired || state_.active.has_value() ||
      cmd.txn.coord_epoch != state_.epoch ||
      cmd.txn.coord_range != state_.range) {
    // Cannot start; record an abort so recovery queries get an answer.
    state_.txn_outcomes[cmd.txn.id] = false;
    stats_.txns_aborted++;
    listener_->OnStructuralChange(state_.id);
    return;
  }
  ActiveTxn active;
  active.txn = cmd.txn;
  active.is_coordinator = true;
  active.my_members = CurrentMembers();
  state_.active = std::move(active);
  listener_->OnStructuralChange(state_.id);
}

void GroupStateMachine::ApplyCoordDecide(const CoordDecideCommand& cmd) {
  if (!state_.active.has_value() || !state_.active->is_coordinator ||
      state_.active->txn.id != cmd.txn_id) {
    // Decide without a matching start (e.g. abort after a failed start):
    // just record the outcome if it is new.
    if (state_.txn_outcomes.count(cmd.txn_id) == 0) {
      SCATTER_CHECK(!cmd.commit);  // Commit requires an active freeze.
      state_.txn_outcomes[cmd.txn_id] = false;
    }
    return;
  }
  state_.txn_outcomes[cmd.txn_id] = cmd.commit;
  ActiveTxn active = std::move(*state_.active);
  state_.active.reset();
  if (!cmd.commit) {
    stats_.txns_aborted++;
    listener_->OnStructuralChange(state_.id);
    return;
  }
  ExecuteCommit(active, cmd.part);
}

void GroupStateMachine::ApplyPrepare(const PrepareCommand& cmd) {
  if (state_.active.has_value() && state_.active->txn.id == cmd.txn.id) {
    return;  // Duplicate prepare (coordinator retry); already frozen.
  }
  if (state_.retired || state_.active.has_value() ||
      cmd.txn.part_epoch != state_.epoch ||
      cmd.txn.part_range != state_.range) {
    // Refused; the leader observes no freeze for this txn and nacks. No
    // durable record is needed: a participant that never prepared holds no
    // obligations.
    listener_->OnStructuralChange(state_.id);
    return;
  }
  ActiveTxn active;
  active.txn = cmd.txn;
  active.is_coordinator = false;
  active.my_members = CurrentMembers();
  active.coord = cmd.coord;
  state_.active = std::move(active);
  listener_->OnStructuralChange(state_.id);
}

void GroupStateMachine::ApplyDecide(const DecideCommand& cmd) {
  if (!state_.active.has_value() || state_.active->is_coordinator ||
      state_.active->txn.id != cmd.txn_id) {
    return;  // Duplicate or stale decision.
  }
  state_.txn_outcomes[cmd.txn_id] = cmd.commit;
  ActiveTxn active = std::move(*state_.active);
  state_.active.reset();
  if (!cmd.commit) {
    stats_.txns_aborted++;
    listener_->OnStructuralChange(state_.id);
    return;
  }
  // The participant executes with the coordinator contribution recorded at
  // prepare time.
  ExecuteCommit(active, active.coord);
}

Contribution GroupStateMachine::OwnContribution() const {
  SCATTER_CHECK(state_.active.has_value());
  const ActiveTxn& active = *state_.active;
  Contribution c;
  c.members = active.my_members;
  if (active.txn.kind == RingTxn::Kind::kMerge) {
    c.data = state_.data;
  } else if (const auto shed = ShedArc(active.txn, active.is_coordinator)) {
    c.data = state_.data.ExtractRange(*shed);
  }
  c.dedup = state_.dedup;
  c.outer = active.is_coordinator ? state_.pred : state_.succ;
  return c;
}

void GroupStateMachine::ExecuteCommit(const ActiveTxn& active,
                                      const Contribution& peer) {
  if (active.txn.kind == RingTxn::Kind::kMerge) {
    ExecuteMergeCommit(active, peer);
  } else {
    ExecuteRepartitionCommit(active, peer);
  }
}

void GroupStateMachine::ExecuteMergeCommit(const ActiveTxn& active,
                                           const Contribution& peer) {
  const RingTxn& txn = active.txn;
  FoundingGroup merged;
  merged.info.id = txn.merged_id;
  merged.info.range = txn.coord_range.JoinWith(txn.part_range);
  merged.info.epoch = std::max(txn.coord_epoch, txn.part_epoch) + 1;
  // Both sides compute the same union: (coordinator members, participant
  // members) in that order.
  if (active.is_coordinator) {
    merged.info.members = UnionMembers(active.my_members, peer.members);
    merged.pred = state_.pred;        // coordinator's predecessor
    merged.succ = peer.outer;         // participant's successor
  } else {
    merged.info.members = UnionMembers(peer.members, active.my_members);
    merged.pred = peer.outer;         // coordinator's predecessor (shipped)
    merged.succ = state_.succ;        // our successor
  }
  merged.data = state_.data;
  merged.data.MergeFrom(peer.data);
  merged.dedup = state_.dedup;
  MergeDedup(merged.dedup, peer.dedup);
  merged.inherited_txns = state_.txn_outcomes;

  // Degenerate two-group ring: the outer neighbors ARE the merging groups,
  // so the merged group becomes its own neighbor (it is the full ring).
  if (merged.pred.id == txn.coord_group || merged.pred.id == txn.part_group) {
    merged.pred = merged.info;  // Only two groups existed; self-neighbor.
  }
  if (merged.succ.id == txn.coord_group || merged.succ.id == txn.part_group) {
    merged.succ = merged.info;
  }

  state_.retired = true;
  state_.forward = {merged.info};
  stats_.merges_applied++;
  listener_->OnGroupsFounded(state_.id, {merged});
  listener_->OnStructuralChange(state_.id);
}

void GroupStateMachine::ExecuteRepartitionCommit(const ActiveTxn& active,
                                                 const Contribution& peer) {
  const RingTxn& txn = active.txn;
  const Key b = txn.new_boundary;
  const uint64_t new_epoch = std::max(txn.coord_epoch, txn.part_epoch) + 1;

  const ring::KeyRange new_coord_range{txn.coord_range.begin, b};
  const ring::KeyRange new_part_range{b, txn.part_range.end};
  // One side drops the arc it shed; the other takes in the peer's data.
  if (const auto shed = ShedArc(txn, active.is_coordinator)) {
    state_.data.EraseRange(*shed);
  } else {
    state_.data.MergeFrom(peer.data);
  }
  if (active.is_coordinator) {
    state_.range = new_coord_range;
    state_.succ = ring::GroupInfo{txn.part_group, new_part_range, new_epoch,
                                  peer.members, kInvalidNode};
  } else {
    state_.range = new_part_range;
    state_.pred = ring::GroupInfo{txn.coord_group, new_coord_range, new_epoch,
                                  peer.members, kInvalidNode};
  }
  MergeDedup(state_.dedup, peer.dedup);
  state_.epoch = new_epoch;
  stats_.repartitions_applied++;
  listener_->OnStructuralChange(state_.id);
}

void GroupStateMachine::ApplyUpdateNeighbor(const UpdateNeighborCommand& cmd) {
  if (state_.retired) {
    return;
  }
  ring::GroupInfo& slot = cmd.is_successor ? state_.succ : state_.pred;
  if (slot.id == cmd.info.id && cmd.info.epoch < slot.epoch) {
    return;  // Stale refresh.
  }
  slot = cmd.info;
}

std::optional<StatusCode> GroupStateMachine::ResultFor(uint64_t client_id,
                                                       uint64_t seq) const {
  auto it = state_.dedup.find(client_id);
  if (it == state_.dedup.end()) {
    return std::nullopt;
  }
  const DedupEntry& entry = it->second;
  auto res = entry.results.find(seq);
  if (res != entry.results.end()) {
    return static_cast<StatusCode>(res->second);
  }
  if (BelowHorizon(entry, seq)) {
    // Pruned below the window horizon: the original result is gone. Treat
    // as applied-OK (only a very stale duplicate delivery can land here).
    return StatusCode::kOk;
  }
  // In-window but unrecorded: not applied yet (possibly still in flight —
  // concurrent ops from one session can commit out of seq order).
  return std::nullopt;
}

std::optional<bool> GroupStateMachine::OutcomeOf(uint64_t txn_id) const {
  auto it = state_.txn_outcomes.find(txn_id);
  if (it == state_.txn_outcomes.end()) {
    return std::nullopt;
  }
  return it->second;
}

std::vector<NodeId> GroupStateMachine::CurrentMembers() const {
  SCATTER_CHECK(config_provider_ != nullptr);
  return config_provider_();
}

void MergeDedup(DedupTable& into, const DedupTable& from) {
  for (const auto& [client, entry] : from) {
    DedupEntry& dst = into[client];
    dst.max_seq = std::max(dst.max_seq, entry.max_seq);
    for (const auto& [seq, code] : entry.results) {
      dst.results.try_emplace(seq, code);  // an op applies in exactly one group
    }
    PruneBelowHorizon(dst);
  }
}

void GroupStateMachine::EncodeState(wire::Buffer& out) const {
  wire::Write(state_, out);
}

bool GroupStateMachine::Restore(const uint8_t* data, size_t size) {
  wire::Reader in(data, size);
  GroupState state;
  in(state);
  if (!in.ok() || !in.AtEnd()) {
    return false;
  }
  state_ = std::move(state);
  return true;
}

}  // namespace scatter::membership
