#include "src/paxos/journal.h"

#include <algorithm>
#include <map>
#include <string_view>
#include <utility>

#include "src/common/logging.h"
#include "src/paxos/payload_codec.h"

namespace scatter::paxos {

std::string WalFileName(GroupId group) {
  return "g" + std::to_string(group) + ".wal";
}

std::string SnapFileName(GroupId group) {
  return "g" + std::to_string(group) + ".snap";
}

std::vector<GroupId> GroupsOnDisk(const storage::SimDisk& disk) {
  std::vector<GroupId> out;
  for (const std::string& file : disk.List()) {
    constexpr std::string_view kSuffix = ".snap";
    if (file.size() <= 1 + kSuffix.size() || file[0] != 'g' ||
        file.compare(file.size() - kSuffix.size(), kSuffix.size(),
                     kSuffix) != 0) {
      continue;
    }
    GroupId id = 0;
    bool numeric = true;
    for (size_t i = 1; i < file.size() - kSuffix.size(); ++i) {
      if (file[i] < '0' || file[i] > '9') {
        numeric = false;
        break;
      }
      id = id * 10 + static_cast<GroupId>(file[i] - '0');
    }
    if (numeric) {
      out.push_back(id);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

GroupJournal::GroupJournal(storage::SimDisk* disk,
                           obs::MetricsRegistry* metrics, NodeId node,
                           GroupId group)
    : disk_(disk),
      group_(group),
      wal_file_(WalFileName(group)),
      appends_(metrics->GetCounter("wal.appends", node, group)),
      fsyncs_(metrics->GetCounter("wal.fsyncs", node, group)),
      bytes_(metrics->GetCounter("wal.bytes", node, group)),
      checkpoints_(metrics->GetCounter("wal.checkpoints", node, group)),
      group_commit_batch_(
          metrics->GetHistogram("wal.group_commit_batch", node, group)) {
  SCATTER_CHECK(disk_ != nullptr);
}

template <class T>
void GroupJournal::Append(JournalRecordType type, const T& payload) {
  scratch_.clear();
  const size_t record =
      storage::BeginWalRecord(static_cast<uint16_t>(type), &scratch_);
  wire::Write(payload, scratch_);
  storage::EndWalRecord(record, &scratch_);
  disk_->Append(wal_file_, scratch_.data(), scratch_.size());
  ++appends_;
  bytes_ += scratch_.size();
  ++unsynced_appends_;
}

void GroupJournal::LogPromise(Ballot ballot) {
  Append(JournalRecordType::kPromise, ballot);
}

void GroupJournal::LogAccept(std::span<const LogEntry> entries,
                             uint64_t commit_index) {
  Append(JournalRecordType::kAccept,
         AcceptRecord<std::span<const LogEntry>>{entries, commit_index});
}

void GroupJournal::LogTruncateSuffix(uint64_t from) {
  Append(JournalRecordType::kTruncateSuffix, from);
}

void GroupJournal::DropTornTail(uint64_t clean_bytes) {
  std::vector<uint8_t> bytes;
  if (!disk_->Read(wal_file_, &bytes) || bytes.size() <= clean_bytes) {
    return;
  }
  disk_->Replace(wal_file_, bytes.data(), clean_bytes);
}

void GroupJournal::Sync() {
  if (unsynced_appends_ == 0) {
    return;
  }
  disk_->Sync();
  ++fsyncs_;
  group_commit_batch_.Record(static_cast<int64_t>(unsynced_appends_));
  unsynced_appends_ = 0;
}

void GroupJournal::WriteCheckpoint(const CheckpointHeader& header,
                                   const StateMachine& state,
                                   const Log& log) {
  // Snapshot file first (atomic Replace). If we crash before the WAL
  // rewrite below, recovery sees the new snapshot plus the old WAL and
  // skips stale records below the new base. The record is framed in place
  // around the header and the live state's bytes.
  scratch_.clear();
  const size_t record = storage::BeginWalRecord(
      static_cast<uint16_t>(JournalRecordType::kCheckpoint), &scratch_);
  wire::Write(header, scratch_);
  state.EncodeState(scratch_);
  storage::EndWalRecord(record, &scratch_);
  disk_->Replace(SnapFileName(group_), scratch_.data(), scratch_.size());

  // Rewrite the WAL down to the residual suffix. Promise and commit live in
  // the checkpoint itself; only entries above the base need re-framing, one
  // accept record each, whose commit index never runs past its entry.
  scratch_.clear();
  for (uint64_t i = std::max(header.snap_base_index + 1, log.first_index());
       i <= log.last_index(); ++i) {
    const LogEntry* entry = log.At(i);
    if (entry == nullptr) {
      continue;  // a hole
    }
    const size_t accept = storage::BeginWalRecord(
        static_cast<uint16_t>(JournalRecordType::kAccept), &scratch_);
    wire::Write(AcceptRecord<std::span<const LogEntry>>{
                    {entry, 1}, std::min(header.commit_index, entry->index)},
                scratch_);
    storage::EndWalRecord(accept, &scratch_);
  }
  disk_->Replace(wal_file_, scratch_.data(), scratch_.size());
  unsynced_appends_ = 0;  // Replace is durable; prior appends superseded.
  ++checkpoints_;
}

bool GroupJournal::HasState(const storage::SimDisk& disk, GroupId group) {
  return disk.Exists(SnapFileName(group)) || disk.Exists(WalFileName(group));
}

bool GroupJournal::Recover(const storage::SimDisk& disk, GroupId group,
                           StateMachine* state, RecoveredState* out,
                           bool bug_replay_first_batch_entry_only) {
  // A group is recoverable only from its first checkpoint on: the snapshot
  // file anchors the base ballot and config that WAL replay builds on.
  storage::WalRecord snap_record;
  if (!storage::ReadSnapshotFile(disk, SnapFileName(group), &snap_record)) {
    return false;
  }
  if (snap_record.type != static_cast<uint16_t>(JournalRecordType::kCheckpoint)) {
    return false;
  }
  const std::vector<uint8_t>& payload = snap_record.payload;
  wire::Reader reader(payload.data(), payload.size());
  *out = RecoveredState();
  reader(static_cast<CheckpointHeader&>(*out));
  if (!reader.ok() ||
      !state->Restore(payload.data() + (payload.size() - reader.remaining()),
                      reader.remaining())) {
    return false;
  }

  const storage::WalReadResult wal = ReadWal(disk, WalFileName(group));
  out->wal_torn = wal.torn;
  out->wal_records = wal.records.size();
  out->wal_clean_bytes = wal.clean_bytes;

  // Replay in append order. Accepts overwrite per index; a TruncateSuffix
  // erases everything at or above its cut, exactly as the live log did.
  std::map<uint64_t, LogEntry> entries;
  for (const storage::WalRecord& record : wal.records) {
    wire::Reader in(record.payload.data(), record.payload.size());
    switch (static_cast<JournalRecordType>(record.type)) {
      case JournalRecordType::kPromise: {
        Ballot b;
        in(b);
        if (in.ok()) {
          out->promised = std::max(out->promised, b);
        }
        break;
      }
      case JournalRecordType::kAccept: {
        AcceptRecord<std::vector<LogEntry>> accept;
        in(accept);
        if (!in.ok()) {
          break;
        }
        if (bug_replay_first_batch_entry_only && accept.entries.size() > 1) {
          accept.entries.resize(1);  // Seeded bug: the rest are dropped.
        }
        for (LogEntry& entry : accept.entries) {
          // Entries below the base are stale leftovers of a checkpoint that
          // crashed between snapshot Replace and WAL rewrite.
          if (entry.index > out->snap_base_index) {
            entries[entry.index] = std::move(entry);
          }
        }
        out->commit_index = std::max(out->commit_index, accept.commit_index);
        break;
      }
      case JournalRecordType::kTruncateSuffix: {
        uint64_t from = 0;
        in(from);
        if (in.ok()) {
          entries.erase(entries.lower_bound(from), entries.end());
        }
        break;
      }
      default:
        // Unknown record type from a future version: ignore (framing already
        // CRC-validated it, so skipping is safe).
        break;
    }
  }

  out->entries.clear();
  out->entries.reserve(entries.size());
  for (auto& [index, entry] : entries) {
    out->entries.push_back(std::move(entry));
  }
  // commit_index stays the highest one journaled: every record that carries
  // a commit index follows the records of the entries up to it, and
  // truncation below the commit point never happens live, so the entries up
  // to it are present whenever replay is correct. The replica clamps to its
  // contiguous log anyway; the durability auditor holds it to this floor.
  return true;
}

void GroupJournal::RemoveFiles(storage::SimDisk* disk, GroupId group) {
  disk->Remove(WalFileName(group));
  disk->Remove(SnapFileName(group));
}

}  // namespace scatter::paxos
