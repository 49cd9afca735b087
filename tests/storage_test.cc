// Storage-seam tests: the record CRC, WAL framing over the simulated disk,
// and crash-truncation semantics.
//
// The centerpiece is the torn-tail fuzz: a WAL truncated at EVERY byte
// offset must replay to exactly the records whose final CRC byte survived —
// never a partial record, never a crash. That is the whole crash-recovery
// contract: fsync guarantees a byte prefix, framing turns a byte prefix
// into a record prefix.

#include <cstdint>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/storage/crc32.h"
#include "src/storage/sim_disk.h"
#include "src/storage/wal.h"
#include "src/wire/buffer.h"

namespace scatter::storage {
namespace {

// Payloads of deliberately varied sizes (empty, tiny, multi-byte) so record
// boundaries land at irregular offsets.
std::vector<std::vector<uint8_t>> TestPayloads() {
  std::vector<std::vector<uint8_t>> payloads;
  payloads.push_back({});
  payloads.push_back({0xAA});
  payloads.push_back({1, 2, 3, 4, 5, 6, 7});
  payloads.push_back(std::vector<uint8_t>(33, 0x5C));
  payloads.push_back({0xFF, 0x00, 0xFF});
  payloads.push_back(std::vector<uint8_t>(60, 0x17));
  return payloads;
}

// Frames one record around `payload` into `out`, in place.
void FrameRecord(uint16_t type, const std::vector<uint8_t>& payload,
                 wire::Buffer* out) {
  const size_t record = BeginWalRecord(type, out);
  out->WriteBytes(payload.data(), payload.size());
  EndWalRecord(record, out);
}

// Appends one framed record to "t.wal", as the paxos journal appends: framed
// in place, then straight to the disk. Volatile until disk->Sync().
void AppendRecord(SimDisk* disk, uint16_t type,
                  const std::vector<uint8_t>& payload) {
  wire::Buffer framed;
  FrameRecord(type, payload, &framed);
  disk->Append("t.wal", framed.data(), framed.size());
}

// Appends every test payload as one record (type = index + 1) and returns
// the byte offset of each record's END in the file.
std::vector<size_t> AppendTestRecords(SimDisk* disk) {
  std::vector<size_t> ends;
  size_t offset = 0;
  uint16_t type = 1;
  for (const auto& payload : TestPayloads()) {
    AppendRecord(disk, type++, payload);
    // Framing: u32 len + u16 version + u16 type + payload + u32 crc.
    offset += 4 + 2 + 2 + payload.size() + 4;
    ends.push_back(offset);
  }
  disk->Sync();
  return ends;
}

// --- CRC-32 ------------------------------------------------------------------

// The textbook bytewise CRC-32 (reflected 0xEDB88320, one table lookup per
// byte): the reference the sliced implementation must reproduce exactly,
// since every WAL record and snapshot file on disk carries its output.
uint32_t BytewiseCrc32(const uint8_t* data, size_t size, uint32_t seed) {
  static const std::vector<uint32_t> table = [] {
    std::vector<uint32_t> t(256);
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t c = i;
      for (int k = 0; k < 8; ++k) {
        c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      }
      t[i] = c;
    }
    return t;
  }();
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (size_t i = 0; i < size; ++i) {
    c = table[(c ^ data[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

TEST(Crc32Test, StandardCheckValue) {
  const std::string check = "123456789";
  EXPECT_EQ(Crc32(reinterpret_cast<const uint8_t*>(check.data()),
                  check.size()),
            0xCBF43926u);
  EXPECT_EQ(Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  Rng rng(42);
  std::vector<uint8_t> bytes(4096 + 8);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.Below(256));
  }
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t len = 0; len <= 4096; ++len) {
      const uint8_t* data = bytes.data() + offset;
      ASSERT_EQ(Crc32(data, len), BytewiseCrc32(data, len, 0))
          << "offset " << offset << " length " << len;
    }
  }
}

TEST(Crc32Test, ChainedSeedsEqualOneStream) {
  Rng rng(7);
  std::vector<uint8_t> bytes(3000);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.Below(256));
  }
  const uint32_t whole = Crc32(bytes.data(), bytes.size());
  ASSERT_EQ(whole, BytewiseCrc32(bytes.data(), bytes.size(), 0));
  for (int trial = 0; trial < 200; ++trial) {
    // Checksum the buffer as three discontiguous spans of random length.
    const size_t a = rng.Below(bytes.size() + 1);
    const size_t b = a + rng.Below(bytes.size() - a + 1);
    uint32_t crc = Crc32(bytes.data(), a);
    crc = Crc32(bytes.data() + a, b - a, crc);
    crc = Crc32(bytes.data() + b, bytes.size() - b, crc);
    ASSERT_EQ(crc, whole) << "split at " << a << ", " << b;
    // An arbitrary seed carries through the same way as the reference.
    const uint32_t seed = static_cast<uint32_t>(rng.Next());
    ASSERT_EQ(Crc32(bytes.data() + a, b - a, seed),
              BytewiseCrc32(bytes.data() + a, b - a, seed));
  }
}

// --- WAL framing -------------------------------------------------------------

TEST(WalFramingTest, RoundTrip) {
  SimDisk disk;
  AppendTestRecords(&disk);

  const WalReadResult result = ReadWal(disk, "t.wal");
  const auto payloads = TestPayloads();
  ASSERT_EQ(result.records.size(), payloads.size());
  EXPECT_FALSE(result.torn);
  EXPECT_EQ(result.clean_bytes, disk.FileSize("t.wal"));
  for (size_t i = 0; i < payloads.size(); ++i) {
    EXPECT_EQ(result.records[i].version, kWalVersion);
    EXPECT_EQ(result.records[i].type, static_cast<uint16_t>(i + 1));
    EXPECT_EQ(result.records[i].payload, payloads[i]);
  }
}

TEST(WalFramingTest, MissingFileIsEmptyAndClean) {
  SimDisk disk;
  const WalReadResult result = ReadWal(disk, "absent.wal");
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.clean_bytes, 0u);
  EXPECT_FALSE(result.torn);
}

// The fuzz: truncate the WAL at every byte offset. The replay must return
// exactly the records that fit entirely below the cut, flag a torn tail iff
// the cut falls inside a record, and report clean_bytes as the last record
// boundary at or below the cut.
TEST(WalFramingTest, TornTailAtEveryByteOffset) {
  SimDisk disk;
  const std::vector<size_t> ends = AppendTestRecords(&disk);
  std::vector<uint8_t> raw;
  ASSERT_TRUE(disk.Read("t.wal", &raw));
  const auto payloads = TestPayloads();

  for (size_t cut = 0; cut <= raw.size(); ++cut) {
    SimDisk truncated;
    truncated.Append("t.wal", raw.data(), cut);

    size_t complete = 0;
    size_t boundary = 0;
    while (complete < ends.size() && ends[complete] <= cut) {
      boundary = ends[complete];
      ++complete;
    }

    const WalReadResult result = ReadWal(truncated, "t.wal");
    ASSERT_EQ(result.records.size(), complete) << "cut at byte " << cut;
    EXPECT_EQ(result.clean_bytes, boundary) << "cut at byte " << cut;
    EXPECT_EQ(result.torn, cut != boundary) << "cut at byte " << cut;
    for (size_t i = 0; i < complete; ++i) {
      EXPECT_EQ(result.records[i].payload, payloads[i])
          << "record " << i << " corrupted by cut at byte " << cut;
    }
  }
}

// Flipping any single byte must never produce a record that differs from
// the original sequence: replay yields an intact prefix and stops at or
// before the damaged record.
TEST(WalFramingTest, FlippedByteAnywhereNeverYieldsACorruptRecord) {
  SimDisk disk;
  AppendTestRecords(&disk);
  std::vector<uint8_t> raw;
  ASSERT_TRUE(disk.Read("t.wal", &raw));
  const auto payloads = TestPayloads();

  for (size_t pos = 0; pos < raw.size(); ++pos) {
    std::vector<uint8_t> damaged = raw;
    damaged[pos] ^= 0x40;
    SimDisk flipped;
    flipped.Append("t.wal", damaged.data(), damaged.size());

    const WalReadResult result = ReadWal(flipped, "t.wal");
    ASSERT_LT(result.records.size(), payloads.size() + 1);
    for (size_t i = 0; i < result.records.size(); ++i) {
      EXPECT_EQ(result.records[i].payload, payloads[i])
          << "flip at byte " << pos << " leaked a corrupt record " << i;
    }
    EXPECT_TRUE(result.torn) << "flip at byte " << pos << " went unnoticed";
  }
}

TEST(SimDiskCrashTest, CrashDropsUnsyncedTail) {
  SimDisk disk;
  const std::vector<uint8_t> payload = {1, 2, 3};
  AppendRecord(&disk, 1, payload);
  disk.Sync();
  const size_t durable = disk.FileSize("t.wal");

  AppendRecord(&disk, 2, payload);
  ASSERT_GT(disk.FileSize("t.wal"), durable);
  disk.Crash();
  EXPECT_EQ(disk.FileSize("t.wal"), durable);

  const WalReadResult result = ReadWal(disk, "t.wal");
  ASSERT_EQ(result.records.size(), 1u);
  EXPECT_EQ(result.records[0].type, 1u);
  EXPECT_FALSE(result.torn);
}

// A crash during the fsync of an unsynced tail keeps an arbitrary prefix of
// it. For every possible kept length, replay returns the synced record plus
// at most the completely-kept unsynced ones.
TEST(SimDiskCrashTest, TornTailKeepsPrefixOfUnsyncedBytes) {
  SimDisk reference;
  const std::vector<uint8_t> payload = {9, 9, 9, 9};
  AppendRecord(&reference, 1, payload);
  reference.Sync();
  AppendRecord(&reference, 2, payload);
  AppendRecord(&reference, 3, payload);
  const size_t durable = reference.DurableSize("t.wal");
  const size_t full = reference.FileSize("t.wal");
  const size_t record_bytes = (full - durable) / 2;

  for (size_t keep = 0; keep <= full - durable; ++keep) {
    SimDisk disk;
    AppendRecord(&disk, 1, payload);
    disk.Sync();
    AppendRecord(&disk, 2, payload);
    AppendRecord(&disk, 3, payload);
    disk.CrashWithTornTail("t.wal", keep);
    EXPECT_EQ(disk.FileSize("t.wal"), durable + keep);

    const WalReadResult result = ReadWal(disk, "t.wal");
    const size_t expected = 1 + keep / record_bytes;
    EXPECT_EQ(result.records.size(), expected) << "keep=" << keep;
    EXPECT_EQ(result.torn, keep % record_bytes != 0) << "keep=" << keep;
  }
}

TEST(SnapshotFileTest, RoundTripAndCorruptionDetected) {
  SimDisk disk;
  wire::Buffer framed;
  const std::vector<uint8_t> bytes = {4, 5, 6, 7, 8};
  FrameRecord(/*type=*/16, bytes, &framed);
  disk.Replace("t.snap", framed.data(), framed.size());

  WalRecord record;
  ASSERT_TRUE(ReadSnapshotFile(disk, "t.snap", &record));
  EXPECT_EQ(record.type, 16u);
  EXPECT_EQ(record.payload, bytes);

  // Replace is atomic: a second write fully supersedes the first.
  wire::Buffer framed2;
  const std::vector<uint8_t> bytes2 = {1};
  FrameRecord(/*type=*/16, bytes2, &framed2);
  disk.Replace("t.snap", framed2.data(), framed2.size());
  ASSERT_TRUE(ReadSnapshotFile(disk, "t.snap", &record));
  EXPECT_EQ(record.payload, bytes2);

  // Any flipped byte fails the CRC.
  std::vector<uint8_t> raw;
  ASSERT_TRUE(disk.Read("t.snap", &raw));
  for (size_t pos = 0; pos < raw.size(); ++pos) {
    std::vector<uint8_t> damaged = raw;
    damaged[pos] ^= 0x01;
    SimDisk bad;
    bad.Replace("t.snap", damaged.data(), damaged.size());
    EXPECT_FALSE(ReadSnapshotFile(bad, "t.snap", &record))
        << "flip at byte " << pos;
  }
  EXPECT_FALSE(ReadSnapshotFile(disk, "missing.snap", &record));
}

}  // namespace
}  // namespace scatter::storage
