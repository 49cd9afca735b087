// Application commands of the Scatter group state machine, and the
// descriptor of cross-group transactions (nested consensus).
//
// Storage operations (put/delete) and structural operations (split, and the
// prepare/decide records of merge/repartition transactions) all flow through
// the group's Paxos log as these commands; reads never enter the log (they
// are served by the leader under its lease).

#ifndef SCATTER_SRC_MEMBERSHIP_COMMANDS_H_
#define SCATTER_SRC_MEMBERSHIP_COMMANDS_H_

#include <memory>
#include <optional>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/types.h"
#include "src/paxos/command.h"
#include "src/ring/group_info.h"
#include "src/ring/key_range.h"
#include "src/store/kv_store.h"
#include "src/wire/fields.h"

namespace scatter::membership {

// Per-client exactly-once bookkeeping: outcomes of recently applied
// sequence numbers, so retries return the original result instead of
// re-executing. A bounded window of results (rather than just a high-water
// mark) lets one client session keep several ops in flight: under
// commit-path batching and pipelining, concurrently issued ops can reach
// the log out of sequence order, and a lone high-water mark would silently
// drop the stragglers while acknowledging them as applied. Shipped
// alongside data whenever a key range changes owner, preserving
// exactly-once across splits, merges and repartitions.
//
// Both levels are sorted vectors (FlatMap): a window holds at most
// kDedupWindow results and a table one entry per client session, and every
// replica records every write, so the lookup and the copy into snapshots
// stay contiguous. The bytes on the wire are those of a std::map.
struct DedupEntry {
  uint64_t max_seq = 0;                // highest sequence ever recorded
  FlatMap<uint64_t, uint8_t> results;  // seq -> StatusCode, recent window
};
using DedupTable = FlatMap<uint64_t, DedupEntry>;  // client id -> entry

// Wire field list (src/wire/fields.h); a DedupTable is a map of these.
template <class IO>
void Fields(DedupEntry& e, IO& io) {
  io(e.max_seq, e.results);
}

// Results further than this below max_seq are pruned; a straggler arriving
// below the horizon is treated as an already-applied duplicate. Must exceed
// any client's in-flight op budget.
inline constexpr uint64_t kDedupWindow = 128;

// Folds `from` into `into` when two groups' ranges merge: per client, the
// higher max_seq and the union of both windows, pruned to the new horizon.
void MergeDedup(DedupTable& into, const DedupTable& from);

inline size_t DedupByteSize(const DedupTable& table) {
  size_t bytes = 0;
  for (const auto& [client, entry] : table) {
    bytes += 24 + 16 * entry.results.size();
  }
  return bytes;
}

enum class GroupCmdKind : uint8_t {
  kPut,
  kDelete,
  kSplit,
  kCoordStart,   // coordinator: begin + self-prepare of a cross-group txn
  kCoordDecide,  // coordinator: durable commit/abort decision (+ execution)
  kPrepare,      // participant: prepare (freeze + record peer contribution)
  kDecide,       // participant: learn decision and execute/release
  kUpdateNeighbor,
};

struct GroupCommand : paxos::AppCommand {
  explicit GroupCommand(GroupCmdKind k) : op(k) {}
  GroupCmdKind op;
};

struct PutCommand : GroupCommand {
  explicit PutCommand(Key k = 0, Value v = {})
      : GroupCommand(GroupCmdKind::kPut), key(k), value(std::move(v)) {}
  size_t ByteSize() const override { return 48 + value.size(); }
  Key key;
  Value value;
};

struct DeleteCommand : GroupCommand {
  explicit DeleteCommand(Key k = 0)
      : GroupCommand(GroupCmdKind::kDelete), key(k) {}
  Key key;
};

// Splits the group in two: members and key range are both partitioned. A
// purely intra-group structural change — atomic by virtue of being one log
// entry — so it needs no cross-group transaction. The proposer chooses the
// child ids and the member partition; apply validates geometry.
struct SplitCommand : GroupCommand {
  SplitCommand() : GroupCommand(GroupCmdKind::kSplit) {}
  Key split_key = 0;
  GroupId left_id = kInvalidGroup;
  GroupId right_id = kInvalidGroup;
  std::vector<NodeId> left_members;
  std::vector<NodeId> right_members;
};

// Descriptor of a two-group transaction. Merge and repartition both involve
// exactly two ring-adjacent groups; the coordinator is always the
// counterclockwise one (the group whose range comes first), which rules out
// two-party initiation cycles.
struct RingTxn {
  enum class Kind : uint8_t { kMerge, kRepartition };

  uint64_t id = 0;
  Kind kind = Kind::kMerge;
  GroupId coord_group = kInvalidGroup;
  GroupId part_group = kInvalidGroup;
  // Geometry expected at prepare time; a participant whose epoch or range
  // moved on rejects the prepare (the coordinator then aborts and retries
  // with fresh information).
  ring::KeyRange coord_range;
  ring::KeyRange part_range;
  uint64_t coord_epoch = 0;
  uint64_t part_epoch = 0;
  // Merge only: identity of the merged group (chosen by the coordinator).
  GroupId merged_id = kInvalidGroup;
  // Repartition only: the new boundary between the two ranges. Must lie in
  // coord_range ∪ part_range; data in the moved sub-range changes owner.
  Key new_boundary = 0;
};

// Wire field list (src/wire/fields.h).
template <class IO>
void Fields(RingTxn& t, IO& io) {
  io(t.id, wire::Enum(t.kind, RingTxn::Kind::kRepartition), t.coord_group,
     t.part_group, t.coord_range, t.part_range, t.coord_epoch, t.part_epoch,
     t.merged_id, t.new_boundary);
}

// The arc that one side of repartition `txn` sheds to the other, or nullopt
// when that side gains. The boundary moves from old = part_range.begin to
// b = new_boundary: if b lies in the coordinator's range, the coordinator
// sheds [b, old); otherwise the participant sheds [old, b).
inline std::optional<ring::KeyRange> ShedArc(const RingTxn& txn,
                                             bool coordinator) {
  const Key old_boundary = txn.part_range.begin;
  const Key b = txn.new_boundary;
  const bool coordinator_sheds = txn.coord_range.Contains(b);
  if (coordinator != coordinator_sheds) {
    return std::nullopt;
  }
  return coordinator_sheds ? ring::KeyRange{b, old_boundary}
                           : ring::KeyRange{old_boundary, b};
}

// One group's share of a merge or repartition, frozen with the group: the
// members captured at the freeze, the data it ships (its whole store for a
// merge, its ShedArc for a repartition, nothing when it gains), its dedup
// table, and its outer neighbor (the coordinator's predecessor, the
// participant's successor), which stitches a merged group into the ring.
// Each group commits the other's contribution in its own log, so applying
// the decision needs nothing from outside that log.
struct Contribution {
  size_t ByteSize() const {
    return data.byte_size() + DedupByteSize(dedup) + 8 * members.size();
  }
  std::vector<NodeId> members;
  store::KvStore data;
  DedupTable dedup;
  ring::GroupInfo outer;
};

// Wire field list (src/wire/fields.h).
template <class IO>
void Fields(Contribution& c, IO& io) {
  io(c.members, c.data, c.dedup, c.outer);
}

// Coordinator's begin record. Applying it freezes the group's range
// (writes are rejected until the decision) and captures the group's
// membership for the transaction.
struct CoordStartCommand : GroupCommand {
  CoordStartCommand() : GroupCommand(GroupCmdKind::kCoordStart) {}
  RingTxn txn;
};

// Coordinator's decision record. For a commit it carries the participant's
// contribution so that applying it fully determines the coordinator group's
// successor state.
struct CoordDecideCommand : GroupCommand {
  CoordDecideCommand() : GroupCommand(GroupCmdKind::kCoordDecide) {}
  size_t ByteSize() const override { return 96 + part.ByteSize(); }
  uint64_t txn_id = 0;
  bool commit = false;
  Contribution part;
};

// Participant's prepare record: freezes the group and stores the
// coordinator's contribution so a later decide is self-contained.
struct PrepareCommand : GroupCommand {
  PrepareCommand() : GroupCommand(GroupCmdKind::kPrepare) {}
  size_t ByteSize() const override { return 160 + coord.ByteSize(); }
  RingTxn txn;
  Contribution coord;
};

// Participant's decision record.
struct DecideCommand : GroupCommand {
  DecideCommand() : GroupCommand(GroupCmdKind::kDecide) {}
  uint64_t txn_id = 0;
  bool commit = false;
};

// Refreshes the group's cached view of an adjacent group. Committed so all
// replicas agree on the neighbor links (they feed structural decisions).
struct UpdateNeighborCommand : GroupCommand {
  UpdateNeighborCommand() : GroupCommand(GroupCmdKind::kUpdateNeighbor) {}
  bool is_successor = true;
  ring::GroupInfo info;
};

}  // namespace scatter::membership

#endif  // SCATTER_SRC_MEMBERSHIP_COMMANDS_H_
