#include "src/storage/wal.h"

#include "src/storage/crc32.h"

namespace scatter::storage {

namespace {

// Bytes around the payload: u32 length, u16 version, u16 type, u32 crc.
constexpr size_t kHeaderBytes = 4 + 2 + 2;
constexpr size_t kCrcBytes = 4;

uint32_t ReadLeU32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

uint16_t ReadLeU16(const uint8_t* p) {
  return static_cast<uint16_t>(static_cast<uint16_t>(p[0]) |
                               (static_cast<uint16_t>(p[1]) << 8));
}

}  // namespace

size_t BeginWalRecord(uint16_t type, wire::Buffer* out) {
  const size_t record = out->ReserveU32();
  out->WriteU16(kWalVersion);
  out->WriteU16(type);
  return record;
}

void EndWalRecord(size_t record, wire::Buffer* out) {
  const size_t crc_start = record + 4;
  out->PatchU32(record,
                static_cast<uint32_t>(out->size() - (record + kHeaderBytes)));
  out->WriteU32(Crc32(out->data() + crc_start, out->size() - crc_start));
}

WalReadResult ReadWal(const SimDisk& disk, const std::string& file) {
  WalReadResult result;
  std::vector<uint8_t> bytes;
  if (!disk.Read(file, &bytes)) {
    return result;
  }
  size_t pos = 0;
  while (true) {
    if (bytes.size() - pos < kHeaderBytes + kCrcBytes) {
      break;  // No room for even an empty record.
    }
    const uint32_t len = ReadLeU32(&bytes[pos]);
    const size_t total = kHeaderBytes + len + kCrcBytes;
    if (bytes.size() - pos < total) {
      break;  // Truncated mid-record: torn tail.
    }
    const uint8_t* covered = &bytes[pos + 4];
    const uint32_t crc = Crc32(covered, 4 + len);
    if (crc != ReadLeU32(&bytes[pos + kHeaderBytes + len])) {
      break;  // Corrupt record: everything from here on is untrusted.
    }
    WalRecord rec;
    rec.version = ReadLeU16(covered);
    rec.type = ReadLeU16(covered + 2);
    rec.payload.assign(covered + 4, covered + 4 + len);
    result.records.push_back(std::move(rec));
    pos += total;
  }
  result.clean_bytes = pos;
  result.torn = pos != bytes.size();
  return result;
}

bool ReadSnapshotFile(const SimDisk& disk, const std::string& file,
                      WalRecord* out) {
  WalReadResult result = ReadWal(disk, file);
  if (result.records.size() != 1 || result.torn) {
    return false;
  }
  *out = std::move(result.records.front());
  return true;
}

}  // namespace scatter::storage
