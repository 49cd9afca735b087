// Byte-buffer writer/reader pair for the wire format.
//
// All integers are fixed-width little-endian; strings and byte blobs are a
// u32 length followed by raw bytes; doubles travel as their IEEE-754 bit
// pattern. The encoding is deliberately canonical — one value has exactly
// one byte sequence — which is what makes the round-trip stability property
// (encode(decode(encode(m))) == encode(m)) testable byte-for-byte.
//
// Buffer owns raw growable storage rather than a std::vector: every Write*
// on the encode hot path is one capacity branch and an unchecked store,
// with no value-initialization of bytes that are about to be overwritten.
// Under AddressSanitizer the unwritten tail [size, capacity) is manually
// poisoned (mirroring libstdc++'s container annotations), so a stale
// pointer into a transport's reused frame buffer faults instead of silently
// reading the next frame's bytes.
//
// Reader is a bounds-checked cursor over an immutable byte span, and the
// decoding visitor of the field lists in fields.h. A short or malformed read
// flips a sticky failure flag instead of crashing: decoders run to
// completion on garbage input and the frame decoder rejects the message
// afterwards, which is what the fuzz tests rely on.

#ifndef SCATTER_SRC_WIRE_BUFFER_H_
#define SCATTER_SRC_WIRE_BUFFER_H_

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

// GCC's __SANITIZE_ADDRESS__ is tested first: the sanitizer headers define
// a fallback __has_feature(x) as 0 for GCC, so testing __has_feature first
// would switch the poisoning off in every file that includes one of them
// (e.g. via src/common/pooled.h) before this header.
#if defined(__SANITIZE_ADDRESS__)
#define SCATTER_WIRE_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define SCATTER_WIRE_ASAN 1
#endif
#endif

#ifdef SCATTER_WIRE_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace scatter::wire {

namespace internal {
inline void AsanPoison(const void* p, size_t n) {
#ifdef SCATTER_WIRE_ASAN
  if (n != 0) {
    ASAN_POISON_MEMORY_REGION(p, n);
  }
#else
  (void)p;
  (void)n;
#endif
}
inline void AsanUnpoison(const void* p, size_t n) {
#ifdef SCATTER_WIRE_ASAN
  if (n != 0) {
    ASAN_UNPOISON_MEMORY_REGION(p, n);
  }
#else
  (void)p;
  (void)n;
#endif
}
}  // namespace internal

class Buffer {
 public:
  Buffer() = default;
  // Buffers are written in place, shared by reference and reused across
  // frames; an accidental copy of frame bytes is a hot-path bug, so copies
  // don't compile.
  Buffer(const Buffer&) = delete;
  Buffer& operator=(const Buffer&) = delete;
  ~Buffer() { FreeStorage(); }

  void WriteU8(uint8_t v) { *Grow(1) = v; }
  void WriteBool(bool v) { WriteU8(v ? 1 : 0); }
  void WriteU16(uint16_t v) { WriteLe(v); }
  void WriteU32(uint32_t v) { WriteLe(v); }
  void WriteU64(uint64_t v) { WriteLe(v); }
  void WriteDouble(double v) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(v));
    std::memcpy(&bits, &v, sizeof(bits));
    WriteLe(bits);
  }
  void WriteString(const std::string& s) {
    WriteU32(static_cast<uint32_t>(s.size()));
    WriteBytes(reinterpret_cast<const uint8_t*>(s.data()), s.size());
  }
  void WriteBytes(const uint8_t* data, size_t size) {
    if (size != 0) {
      std::memcpy(Grow(size), data, size);
    }
  }

  // Any unsigned integer, little-endian. The byte-wise shift decomposition
  // compiles to a single store through the unchecked write cursor (the
  // vector-based per-field insert was the hottest line of the encode path
  // before the wire hot-path rework).
  template <typename T>
  void WriteLe(T v) {
    uint8_t* at = Grow(sizeof(T));
    for (size_t i = 0; i < sizeof(T); ++i) {
      at[i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  // Reserves a u32 slot (for a length prefix) and returns its offset;
  // PatchU32 fills it in once the enclosed content is written.
  size_t ReserveU32() {
    const size_t at = size_;
    WriteU32(0);
    return at;
  }
  void PatchU32(size_t at, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      bytes_[at + i] = static_cast<uint8_t>(v >> (8 * i));
    }
  }

  const uint8_t* data() const { return bytes_; }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  void clear() {
    internal::AsanPoison(bytes_, cap_);
    size_ = 0;
  }

  // Grows the backing store up front so a burst of writes doesn't reallocate
  // mid-frame. clear() keeps the grown capacity, which is what makes a
  // reused frame buffer pay.
  void Reserve(size_t capacity) {
    if (capacity > cap_) {
      Reallocate(capacity);
    }
  }
  size_t capacity() const { return cap_; }

  // Empties the buffer and returns its storage to the allocator.
  void FreeStorage() {
    internal::AsanUnpoison(bytes_, cap_);
    std::free(bytes_);
    bytes_ = nullptr;
    size_ = 0;
    cap_ = 0;
  }

  // Overwrites the current contents with `fill` (the wire transports poison
  // each frame after its handoff in debug/sanitized builds so a stale
  // pointer reads a recognizable pattern instead of the previous frame).
  void Poison(uint8_t fill) {
    if (size_ != 0) {
      std::memset(bytes_, fill, size_);
    }
  }

  // Materialized copy of the contents; for tests and diagnostics, not the
  // hot path.
  std::vector<uint8_t> bytes() const {
    return std::vector<uint8_t>(bytes_, bytes_ + size_);
  }

  friend bool operator==(const Buffer& a, const Buffer& b) {
    return a.size_ == b.size_ &&
           (a.size_ == 0 || std::memcmp(a.bytes_, b.bytes_, a.size_) == 0);
  }

 private:
  // Returns the write cursor for `n` fresh bytes and bumps the size; the
  // bytes are uninitialized (every caller overwrites them immediately).
  uint8_t* Grow(size_t n) {
    if (n > cap_ - size_) {
      GrowSlow(n);
    }
    uint8_t* at = bytes_ + size_;
    internal::AsanUnpoison(at, n);
    size_ += n;
    return at;
  }

  void GrowSlow(size_t n) {
    size_t cap = cap_ < 32 ? 64 : cap_ * 2;
    if (cap < size_ + n) {
      cap = size_ + n;
    }
    Reallocate(cap);
  }

  void Reallocate(size_t cap) {
    auto* grown = static_cast<uint8_t*>(std::malloc(cap));
    if (size_ != 0) {
      std::memcpy(grown, bytes_, size_);
    }
    internal::AsanPoison(grown + size_, cap - size_);
    internal::AsanUnpoison(bytes_, cap_);
    std::free(bytes_);
    bytes_ = grown;
    cap_ = cap;
  }

  uint8_t* bytes_ = nullptr;
  size_t size_ = 0;
  size_t cap_ = 0;
};

class Reader {
 public:
  Reader(const uint8_t* data, size_t size) : data_(data), size_(size) {}
  explicit Reader(const Buffer& buffer)
      : Reader(buffer.data(), buffer.size()) {}

  // Field-list visitor (fields.h): reads each argument in order. The Field
  // overloads are found by argument-dependent lookup.
  static constexpr bool kReading = true;
  template <typename... T>
  void operator()(T&&... fields) {
    (Field(*this, fields), ...);
  }

  uint8_t ReadU8() {
    uint8_t v = 0;
    Take(&v, 1);
    return v;
  }
  bool ReadBool() { return ReadU8() != 0; }
  uint16_t ReadU16() { return ReadLe<uint16_t>(); }
  uint32_t ReadU32() { return ReadLe<uint32_t>(); }
  uint64_t ReadU64() { return ReadLe<uint64_t>(); }
  double ReadDouble() {
    const uint64_t bits = ReadLe<uint64_t>();
    double v;
    std::memcpy(&v, &bits, sizeof(v));
    return v;
  }
  template <typename T>
  T ReadLe() {
    uint8_t raw[sizeof(T)] = {};
    Take(raw, sizeof(T));
    T v = 0;
    for (size_t i = 0; i < sizeof(T); ++i) {
      v = static_cast<T>(v | (static_cast<T>(raw[i]) << (8 * i)));
    }
    return v;
  }
  std::string ReadString() {
    const uint32_t len = ReadU32();
    if (len > remaining()) {
      Fail();
      return {};
    }
    std::string s(reinterpret_cast<const char*>(data_ + pos_), len);
    pos_ += len;
    return s;
  }

  // Declared element count of a sequence about to be read. Bounded by the
  // remaining bytes (every element costs at least one byte) so a corrupt
  // count cannot drive a decoder into allocating gigabytes.
  size_t ReadCount() {
    const uint32_t n = ReadU32();
    if (n > remaining()) {
      Fail();
      return 0;
    }
    return n;
  }

  size_t remaining() const { return size_ - pos_; }
  bool AtEnd() const { return pos_ == size_; }

  // True while every read so far was in bounds. Once false, all further
  // reads return zero values and the flag stays false.
  bool ok() const { return ok_; }
  void Fail() { ok_ = false; }

 private:
  void Take(uint8_t* out, size_t n) {
    if (!ok_ || n > remaining()) {
      Fail();
      std::memset(out, 0, n);
      return;
    }
    std::memcpy(out, data_ + pos_, n);
    pos_ += n;
  }

  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
  bool ok_ = true;
};

}  // namespace scatter::wire

#endif  // SCATTER_SRC_WIRE_BUFFER_H_
