// scatter-walcat: dump and verify the on-disk durable state of a node — the
// per-group WAL + snapshot files a crashed replica recovers from — straight
// from a directory (storage::FsDisk layout; benches and tools that persist
// through FsDisk produce these, and a SimDisk image exported for debugging
// has the same byte format).
//
//   scatter_walcat <dir>             dump every group: snapshot header,
//                                    each WAL record (offset, type, decoded
//                                    fields), clean-prefix length, torn tail
//   scatter_walcat <dir> <group>     dump just that group
//   scatter_walcat --verify <dir>    CRC + replay verdict only: runs the
//                                    real recovery path on every group and
//                                    reports what a restarting node would
//                                    rebuild; exits nonzero on a torn tail,
//                                    CRC failure or unrecoverable group
//
// Record framing ([u32 len][u16 version][u16 type][payload][u32 crc32]) is
// documented in PROTOCOL.md §6.3; record payloads are the wire codecs, so
// this tool registers the full scatter codec set before decoding.
//
// Exit status: 0 clean, 1 torn/corrupt/unrecoverable state, 2 usage or
// unreadable directory.

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/wire_codecs.h"
#include "src/paxos/journal.h"
#include "src/paxos/payload_codec.h"
#include "src/storage/fs_disk.h"
#include "src/storage/wal.h"
#include "src/wire/buffer.h"
#include "src/wire/fields.h"

namespace scatter {
namespace {

const char* RecordTypeName(uint16_t type) {
  switch (static_cast<paxos::JournalRecordType>(type)) {
    case paxos::JournalRecordType::kPromise:
      return "promise";
    case paxos::JournalRecordType::kAccept:
      return "accept";
    case paxos::JournalRecordType::kCommit:
      return "commit";
    case paxos::JournalRecordType::kTruncateSuffix:
      return "truncate";
    case paxos::JournalRecordType::kCheckpoint:
      return "checkpoint";
  }
  return "unknown";
}

// Encoded size of one field (a command or snapshot inside a record).
template <typename T>
size_t EncodedBytes(const T& field) {
  wire::Buffer out;
  wire::Write(field, out);
  return out.size();
}

// One-line field dump of a record payload, decoded through the same field
// lists the journal writes with; command and snapshot payloads are reported
// by size.
std::string DescribeRecord(const storage::WalRecord& record) {
  wire::Reader in(record.payload.data(), record.payload.size());
  std::string out;
  const auto type = static_cast<paxos::JournalRecordType>(record.type);
  switch (type) {
    case paxos::JournalRecordType::kPromise: {
      Ballot ballot;
      in(ballot);
      out = "ballot=" + ballot.ToString();
      break;
    }
    case paxos::JournalRecordType::kAccept: {
      paxos::LogEntry entry;
      in(entry);
      out = "index=" + std::to_string(entry.index) +
            " ballot=" + entry.ballot.ToString() +
            " command_bytes=" + std::to_string(EncodedBytes(entry.command));
      break;
    }
    case paxos::JournalRecordType::kCommit:
    case paxos::JournalRecordType::kTruncateSuffix: {
      uint64_t index = 0;
      in(index);
      out = (type == paxos::JournalRecordType::kCommit ? "index=" : "from=") +
            std::to_string(index);
      break;
    }
    case paxos::JournalRecordType::kCheckpoint: {
      paxos::Checkpoint cp;
      in(cp);
      std::string config;
      for (NodeId n : cp.snap_config) {
        config += (config.empty() ? "" : ",") + std::to_string(n);
      }
      out = "base=" + std::to_string(cp.snap_base_index) +
            " base_ballot=" + cp.snap_base_ballot.ToString() + " config=[" +
            config + "]@" + std::to_string(cp.snap_config_index) +
            " promised=" + cp.promised.ToString() +
            " commit_index=" + std::to_string(cp.commit_index) +
            " snapshot_bytes=" + std::to_string(EncodedBytes(cp.snapshot));
      break;
    }
    default:
      out = "payload_bytes=" + std::to_string(record.payload.size());
      break;
  }
  if (!in.ok()) {
    out += "  [malformed payload]";
  }
  return out;
}

// Dump one group's snapshot + WAL. Returns false on torn/corrupt state.
bool DumpGroup(const storage::FsDisk& disk, GroupId group) {
  bool clean = true;
  const std::string snap_file = paxos::SnapFileName(group);
  std::printf("group %" PRIu64 "\n", group);

  storage::WalRecord snap;
  if (!disk.Exists(snap_file)) {
    std::printf("  %s: missing (group not recoverable — no checkpoint)\n",
                snap_file.c_str());
    clean = false;
  } else if (!storage::ReadSnapshotFile(disk, snap_file, &snap)) {
    std::printf("  %s: CRC FAILURE or truncated record\n", snap_file.c_str());
    clean = false;
  } else {
    std::printf("  %s: v%u %s  %s\n", snap_file.c_str(), snap.version,
                RecordTypeName(snap.type), DescribeRecord(snap).c_str());
  }

  const std::string wal_file = paxos::WalFileName(group);
  const storage::WalReadResult wal = storage::ReadWal(disk, wal_file);
  std::vector<uint8_t> raw;
  const size_t file_bytes =
      disk.Read(wal_file, &raw) ? raw.size() : 0;
  std::printf("  %s: %zu records, %zu/%zu clean bytes%s\n", wal_file.c_str(),
              wal.records.size(), wal.clean_bytes, file_bytes,
              wal.torn ? ", TORN TAIL" : "");
  size_t seq = 0;
  for (const storage::WalRecord& record : wal.records) {
    std::printf("    [%4zu] v%u %-9s %s\n", seq++, record.version,
                RecordTypeName(record.type), DescribeRecord(record).c_str());
  }
  if (wal.torn) {
    std::printf("    !! %zu trailing byte(s) past the last clean record "
                "(crash tear or corruption; recovery discards them)\n",
                file_bytes - wal.clean_bytes);
    clean = false;
  }
  return clean;
}

// Replay verdict: run the real recovery path and print what a restarting
// node would rebuild. Returns false when the group cannot be recovered or
// its WAL carries a torn tail.
bool VerifyGroup(const storage::FsDisk& disk, GroupId group) {
  paxos::RecoveredState recovered;
  if (!paxos::GroupJournal::Recover(disk, group, &recovered)) {
    std::printf("group %" PRIu64 ": NOT RECOVERABLE (missing or corrupt "
                "checkpoint)\n",
                group);
    return false;
  }
  std::printf("group %" PRIu64 ": recoverable  base=%" PRIu64
              " entries=%zu commit_index=%" PRIu64 " promised=%s config=%zu"
              " wal_records=%" PRIu64 "%s\n",
              group, recovered.snap_base_index, recovered.entries.size(),
              recovered.commit_index, recovered.promised.ToString().c_str(),
              recovered.snap_config.size(), recovered.wal_records,
              recovered.wal_torn ? "  TORN TAIL DISCARDED" : "");
  return !recovered.wal_torn;
}

int Run(const std::string& dir, bool verify, bool have_group,
        GroupId only_group) {
  core::RegisterScatterWireCodecs();
  storage::FsDisk disk(dir);

  std::vector<GroupId> groups;
  if (have_group) {
    groups.push_back(only_group);
  } else {
    // Every group with any state on disk, snapshot or orphaned WAL.
    for (const std::string& file : disk.List()) {
      const size_t dot = file.rfind('.');
      if (file.size() < 2 || file[0] != 'g' || dot == std::string::npos) {
        continue;
      }
      const std::string ext = file.substr(dot);
      if (ext != ".wal" && ext != ".snap") {
        continue;
      }
      const GroupId id = std::strtoull(file.c_str() + 1, nullptr, 10);
      if (groups.empty() || groups.back() != id) {
        groups.push_back(id);
      }
    }
  }
  if (groups.empty()) {
    std::printf("scatter_walcat: no group state under %s\n", dir.c_str());
    return 0;
  }

  bool clean = true;
  for (GroupId group : groups) {
    clean &= verify ? VerifyGroup(disk, group) : DumpGroup(disk, group);
  }
  if (!clean) {
    std::printf("scatter_walcat: PROBLEMS FOUND\n");
  }
  return clean ? 0 : 1;
}

}  // namespace
}  // namespace scatter

int main(int argc, char** argv) {
  bool verify = false;
  std::vector<std::string> positional;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--verify") == 0) {
      verify = true;
    } else if (std::strcmp(argv[i], "--help") == 0) {
      std::printf("usage: scatter_walcat [--verify] <dir> [group]\n");
      return 0;
    } else {
      positional.push_back(argv[i]);
    }
  }
  if (positional.empty() || positional.size() > 2) {
    std::fprintf(stderr, "usage: scatter_walcat [--verify] <dir> [group]\n");
    return 2;
  }
  const bool have_group = positional.size() == 2;
  const scatter::GroupId group =
      have_group ? std::strtoull(positional[1].c_str(), nullptr, 10) : 0;
  return scatter::Run(positional[0], verify, have_group, group);
}
