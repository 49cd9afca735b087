#include "src/storage/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#define SCATTER_CRC32C_SSE42 1
#endif

namespace scatter::storage {
namespace {

constexpr uint32_t kPoly = 0x82F63B78u;  // reflected Castagnoli

// Slicing-by-8 (Kounavis & Berry): kTables[0] is the classic bytewise table,
// and kTables[k][b] is the CRC of byte b followed by k zero bytes, so eight
// input bytes fold into the CRC with eight independent lookups.
using Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Tables MakeTables() {
  Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (kPoly ^ (c >> 1)) : (c >> 1);
    }
    t[0][i] = c;
  }
  for (uint32_t i = 0; i < 256; ++i) {
    for (size_t k = 1; k < 8; ++k) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr Tables kTables = MakeTables();

uint32_t LoadLe32(const uint8_t* p) {
  return static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
         (static_cast<uint32_t>(p[2]) << 16) |
         (static_cast<uint32_t>(p[3]) << 24);
}

}  // namespace

uint32_t Crc32cTable(const uint8_t* data, size_t size, uint32_t seed) {
  uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    const uint32_t lo = LoadLe32(data) ^ c;
    const uint32_t hi = LoadLe32(data + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^
        kTables[3][hi & 0xFFu] ^ kTables[2][(hi >> 8) & 0xFFu] ^
        kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; size > 0; ++data, --size) {
    c = kTables[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

#ifdef SCATTER_CRC32C_SSE42

// The instruction computes the same reflected Castagnoli CRC, without the
// inversions, eight bytes per step; x86 loads need no alignment.
__attribute__((target("sse4.2"))) uint32_t Crc32cHardware(const uint8_t* data,
                                                          size_t size,
                                                          uint32_t seed) {
  uint64_t c = seed ^ 0xFFFFFFFFu;
  for (; size >= 8; data += 8, size -= 8) {
    uint64_t word;
    std::memcpy(&word, data, sizeof(word));
    c = _mm_crc32_u64(c, word);
  }
  uint32_t c32 = static_cast<uint32_t>(c);
  for (; size > 0; ++data, --size) {
    c32 = _mm_crc32_u8(c32, *data);
  }
  return c32 ^ 0xFFFFFFFFu;
}

bool HaveCrc32cHardware() {
  static const bool have = __builtin_cpu_supports("sse4.2");
  return have;
}

#else

uint32_t Crc32cHardware(const uint8_t* data, size_t size, uint32_t seed) {
  return Crc32cTable(data, size, seed);
}

bool HaveCrc32cHardware() { return false; }

#endif

uint32_t Crc32c(const uint8_t* data, size_t size, uint32_t seed) {
  return HaveCrc32cHardware() ? Crc32cHardware(data, size, seed)
                              : Crc32cTable(data, size, seed);
}

}  // namespace scatter::storage
