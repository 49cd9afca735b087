// CRC-32C (Castagnoli polynomial 0x1EDC6F41, reflected 0x82F63B78) for
// on-disk record guards: the checksum of iSCSI (RFC 3720), ext4 and
// LevelDB/RocksDB logs.
//
// The repo's in-memory hashing (src/common/hash.h) is FNV-based and tuned
// for hash maps / fingerprints; on-disk records want a checksum with
// guaranteed burst-error detection and a stable, externally-recognizable
// definition — a hex dump of a WAL record can be checked against any
// standard crc32c implementation.
//
// Crc32c uses the SSE4.2 crc32 instruction when the CPU has it (checked
// once per process) and a compile-time slicing-by-8 table otherwise; both
// produce the same bits, so the choice never shows on disk.

#ifndef SCATTER_SRC_STORAGE_CRC32_H_
#define SCATTER_SRC_STORAGE_CRC32_H_

#include <cstddef>
#include <cstdint>

namespace scatter::storage {

// CRC of `size` bytes, continuing from `seed` (pass the previous return
// value to checksum discontiguous spans as one stream). Seed 0 starts a
// fresh CRC; the result already includes the standard final inversion.
uint32_t Crc32c(const uint8_t* data, size_t size, uint32_t seed = 0);

// The two implementations Crc32c picks between, for tests and benchmarks.
// Crc32cHardware may only be called when HaveCrc32cHardware() is true.
uint32_t Crc32cTable(const uint8_t* data, size_t size, uint32_t seed = 0);
uint32_t Crc32cHardware(const uint8_t* data, size_t size, uint32_t seed = 0);
bool HaveCrc32cHardware();

}  // namespace scatter::storage

#endif  // SCATTER_SRC_STORAGE_CRC32_H_
