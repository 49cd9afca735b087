// The replicated log: a possibly-sparse sequence of accepted entries.
//
// Paxos accepts entries per-index independently, so the log may temporarily
// contain holes (message reordering); commitment and application are
// contiguous. The log supports prefix truncation after snapshots. It also
// keeps an index of its config entries, so membership is a fold over a
// handful of entries rather than a scan of every retained slot.

#ifndef SCATTER_SRC_PAXOS_LOG_H_
#define SCATTER_SRC_PAXOS_LOG_H_

#include <deque>
#include <map>

#include "src/common/types.h"
#include "src/paxos/command.h"

namespace scatter::paxos {

struct LogEntry {
  uint64_t index = 0;
  // Ballot at which the entry was last accepted. Chosen-ness is tracked by
  // the replica's commit index, not in the entry.
  Ballot ballot;
  CommandPtr command;

  bool valid() const { return index != 0; }
};

// The one (index, ballot, command) layout of a log entry, shared by Accept
// messages, the WAL, checkpoint rewrites and the durability digest. The
// command field needs paxos/payload_codec.h at the point of use.
template <class IO>
void Fields(LogEntry& e, IO& io) {
  io(e.index, e.ballot, e.command);
}

class Log {
 public:
  // Index of the first entry retained (1 for a fresh log; > 1 after
  // truncation). Entries below first_index() live only in the snapshot.
  uint64_t first_index() const { return first_index_; }

  // Largest index that has ever been accepted (0 if none). The range
  // [first_index, last_index] may contain holes.
  uint64_t last_index() const {
    return first_index_ + entries_.size() - 1;
  }

  // Entry at `index`, or nullptr if missing (hole, truncated, or beyond the
  // end).
  const LogEntry* At(uint64_t index) const;

  // Accepts `command` at `index` with `ballot`, overwriting any existing
  // entry (the caller enforces the Paxos acceptance rule).
  void Set(uint64_t index, Ballot ballot, CommandPtr command);

  // Largest index L such that every index in [first_index, L] holds an
  // entry. Returns first_index - 1 when the first slot is missing.
  uint64_t LastContiguous() const;

  // Drops all entries with index <= up_to (after a snapshot covers them).
  void TruncatePrefix(uint64_t up_to);

  // Drops all entries with index >= from (conflicting suffix discovered by
  // a chain check).
  void TruncateSuffix(uint64_t from);

  // Resets the log to start immediately after a restored snapshot.
  void ResetToSnapshot(uint64_t last_included_index);

  // The config entries present in the log, by index. Every mutation above
  // keeps it in step with the slots, so it is exactly the entries whose
  // command kind is kConfig.
  const std::map<uint64_t, const ConfigCommand*>& config_entries() const {
    return config_entries_;
  }

  // Bumped by every call that may change config_entries() (a config Set,
  // a Set over a config slot, either truncation, a reset), so a fold over
  // the config entries can skip the work while the count is unchanged.
  uint64_t config_changes() const { return config_changes_; }

 private:
  uint64_t first_index_ = 1;
  // Slot i holds the entry for index first_index_ + i; invalid() = hole.
  std::deque<LogEntry> entries_;
  // Points into the commands held by entries_.
  std::map<uint64_t, const ConfigCommand*> config_entries_;
  uint64_t config_changes_ = 0;
};

}  // namespace scatter::paxos

#endif  // SCATTER_SRC_PAXOS_LOG_H_
