// Write-ahead log framing: CRC-guarded, length-prefixed records over a
// storage::SimDisk file, plus the single-record snapshot-file reader.
// A writer frames each record in place in its own buffer (BeginWalRecord /
// EndWalRecord) and appends the framed bytes straight to the disk.
//
// Record layout (all integers little-endian, matching the wire codecs —
// PROTOCOL.md §6.4):
//
//   [u32 payload_len][u16 version][u16 type][payload][u32 crc32]
//
// The CRC covers version + type + payload (everything between the length
// prefix and the CRC itself), so a flipped length byte and a flipped
// payload byte are both caught. Payloads are opaque here; the paxos journal
// (src/paxos/journal.h), the one writer, encodes them with the existing
// wire codecs — the on-disk format IS the wire format.
//
// Reading is prefix-stable: ReadWal scans records from the front and stops
// cleanly at the first incomplete or CRC-failing record, reporting how many
// bytes formed valid records and whether a torn tail was discarded. That is
// the whole crash-recovery contract — an fsync barrier guarantees a byte
// prefix survived, and framing turns a byte prefix into a record prefix.
//
// A snapshot file is one framed record written with SimDisk::Replace (atomic),
// so it is either entirely the old snapshot or entirely the new one.

#ifndef SCATTER_SRC_STORAGE_WAL_H_
#define SCATTER_SRC_STORAGE_WAL_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/storage/sim_disk.h"
#include "src/wire/buffer.h"

namespace scatter::storage {

inline constexpr uint16_t kWalVersion = 1;

struct WalRecord {
  uint16_t version = 0;
  uint16_t type = 0;
  std::vector<uint8_t> payload;
};

struct WalReadResult {
  std::vector<WalRecord> records;
  // Offset one past the last complete, CRC-valid record.
  size_t clean_bytes = 0;
  // True when trailing bytes past clean_bytes were discarded (torn tail or
  // corruption).
  bool torn = false;
};

// Frames one record around a payload encoded straight into `out` (append;
// `out` is not cleared), with no payload copy: BeginWalRecord appends the
// header of a `type` record and returns the record's offset; once the
// payload is appended, EndWalRecord fills in its length and appends the CRC.
size_t BeginWalRecord(uint16_t type, wire::Buffer* out);
void EndWalRecord(size_t record, wire::Buffer* out);

// Scans every record of `file`. A missing file yields an empty, non-torn
// result.
WalReadResult ReadWal(const SimDisk& disk, const std::string& file);

// Snapshot files: one framed record, written with SimDisk::Replace (atomic).
// False when the file is missing or its CRC fails.
bool ReadSnapshotFile(const SimDisk& disk, const std::string& file,
                      WalRecord* out);

}  // namespace scatter::storage

#endif  // SCATTER_SRC_STORAGE_WAL_H_
