// GroupJournal: the durable form of one replica's Paxos state, framed as
// storage WAL records (src/storage/wal.h), with the wire field lists
// (src/wire/fields.h) as the on-disk format. Every record is framed in
// place in one scratch buffer and written straight to the disk.
//
// Two files per group on the node's disk:
//   g<id>.wal   — append-only journal of durable-state mutations
//   g<id>.snap  — the latest checkpoint (one atomic CRC-framed record)
//
// The journal records exactly the state the Paxos safety argument needs to
// survive a crash: the promise (a vote regression re-grants votes already
// denied), accepted entries (an acceptance forgotten un-chooses a possibly
// chosen value), and suffix truncations (so replay reconstructs the same
// log the replica held). Commit indexes are journaled too — not for safety
// (commitment is re-derivable from the leader) but so a restarted replica
// re-applies its state machine without waiting to re-learn the commit
// point.
//
// Group commit: Log* calls only append; nothing is durable until Sync(),
// which the replica piggybacks on its existing flush scheduler — one fsync
// covers every append since the previous barrier (the
// wal.group_commit_batch histogram records how many). Sync() is a no-op
// when nothing was appended, so piggyback points are free on idle paths.
//
// A checkpoint (WriteCheckpoint) atomically replaces the snapshot file with
// the applied state and then rewrites the WAL down to the residual suffix —
// recovery tolerates a crash between the two (stale WAL records below the
// new snapshot base are skipped during replay). Its record is the
// CheckpointHeader followed by the state bytes StateMachine::EncodeState
// writes from the live state — the bytes a SnapshotMsg carries — and the
// residual entries are framed straight from the live log, so its cost is
// the bytes it persists: no copy of the state, no copy of the suffix, and
// no allocation once the scratch buffer has grown to the checkpoint's size.
// Recover hands those state bytes back to StateMachine::Restore.

#ifndef SCATTER_SRC_PAXOS_JOURNAL_H_
#define SCATTER_SRC_PAXOS_JOURNAL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/paxos/log.h"
#include "src/paxos/state_machine.h"
#include "src/storage/sim_disk.h"
#include "src/storage/wal.h"
#include "src/wire/buffer.h"

namespace scatter::paxos {

// WAL record types (PROTOCOL.md §6.4). The snapshot file reuses the same
// framing with its own type. Each payload is one field list
// (src/wire/fields.h):
enum class JournalRecordType : uint16_t {
  kPromise = 1,         // Ballot
  kAccept = 2,          // LogEntry (index, ballot, command)
  kCommit = 3,          // u64 index
  kTruncateSuffix = 4,  // u64 from
  kCheckpoint = 16,     // CheckpointHeader + state bytes, snapshot file only
};

// Checkpoint payload: this header — snapshot base (index, ballot, config at
// its log index), the promise and commit point at checkpoint time — then
// the state machine's state bytes (EncodeState) to the end of the record.
// Residual log entries above the base stay in the rewritten WAL, not here.
struct CheckpointHeader {
  uint64_t snap_base_index = 0;
  Ballot snap_base_ballot;
  std::vector<NodeId> snap_config;
  uint64_t snap_config_index = 0;
  Ballot promised;
  uint64_t commit_index = 0;
};

template <class IO>
void Fields(CheckpointHeader& h, IO& io) {
  io(h.snap_base_index, h.snap_base_ballot, h.snap_config, h.snap_config_index,
     h.promised, h.commit_index);
}

std::string WalFileName(GroupId group);
std::string SnapFileName(GroupId group);

// Group ids with a snapshot file on `disk`, ascending (the set of groups a
// restarting node can even attempt to recover).
std::vector<GroupId> GroupsOnDisk(const storage::SimDisk& disk);

// Everything a crashed replica gets back from its own disk besides its
// state machine's state: the checkpoint header with promised/commit_index
// advanced by WAL replay, plus the log suffix.
struct RecoveredState : CheckpointHeader {
  std::vector<LogEntry> entries;  // indexes > snap_base_index, ascending
  uint64_t wal_records = 0;       // records replayed (observability)
  uint64_t wal_clean_bytes = 0;   // prefix that framed complete records
  bool wal_torn = false;          // a torn/corrupt tail was discarded
};

class GroupJournal {
 public:
  GroupJournal(storage::SimDisk* disk, obs::MetricsRegistry* metrics,
               NodeId node, GroupId group);

  GroupJournal(const GroupJournal&) = delete;
  GroupJournal& operator=(const GroupJournal&) = delete;

  void LogPromise(Ballot ballot);
  void LogAccept(const LogEntry& entry);
  void LogCommit(uint64_t index);
  void LogTruncateSuffix(uint64_t from);

  // Truncates the WAL to its clean prefix (RecoveredState::wal_clean_bytes).
  // Must run before the first post-recovery append: bytes past a torn
  // record are garbage, and appending after them would strand every later
  // record behind an unreadable gap.
  void DropTornTail(uint64_t clean_bytes);

  // Fsync barrier; no-op when nothing was appended since the last barrier.
  void Sync();
  bool dirty() const { return unsynced_appends_ > 0; }

  // Atomically persists `header` plus the live state of `state` (which must
  // be the state at header.snap_base_index), then rewrites the WAL to the
  // residual suffix: the entries of `log` above the base. Durable on return.
  void WriteCheckpoint(const CheckpointHeader& header,
                       const StateMachine& state, const Log& log);

  // True when the disk holds any state for `group`.
  static bool HasState(const storage::SimDisk& disk, GroupId group);
  // Rebuilds durable state from snapshot + WAL replay: restores `state` from
  // the checkpoint's state bytes and fills `out`. False when no usable
  // checkpoint exists, or its state bytes do not decode (a group is
  // recoverable only from its first checkpoint on; joiners that crashed
  // before their snapshot install simply rejoin amnesiac).
  static bool Recover(const storage::SimDisk& disk, GroupId group,
                      StateMachine* state, RecoveredState* out);
  // Deletes both files (group torn down or retired).
  static void RemoveFiles(storage::SimDisk* disk, GroupId group);

 private:
  template <class T>
  void Append(JournalRecordType type, const T& payload);

  storage::SimDisk* disk_;
  GroupId group_;
  std::string wal_file_;
  // Framed records, built in place; reused across appends and checkpoints.
  wire::Buffer scratch_;
  uint64_t unsynced_appends_ = 0;

  // wal.* observability cells (check_obs_json.py validates these).
  Counter& appends_;
  Counter& fsyncs_;
  Counter& bytes_;
  Counter& checkpoints_;
  Histogram& group_commit_batch_;
};

}  // namespace scatter::paxos

#endif  // SCATTER_SRC_PAXOS_JOURNAL_H_
