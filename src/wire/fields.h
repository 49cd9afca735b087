// One field list per wire type.
//
// Every type that crosses the wire or reaches the disk — messages, replicated
// commands, state machine states, journal records and the composites they
// carry — states its layout exactly once, as a field list found by
// argument-dependent lookup next to the type:
//
//   template <class IO>
//   void Fields(PrepareMsg& m, IO& io) {
//     io(m.group, m.ballot, m.last_log_index, m.last_log_ballot,
//        m.bypass_lease);
//   }
//
// Two visitors walk a field list: Writer appends every field to a Buffer,
// and Reader (buffer.h) reads them back in the same order. Encoder and
// decoder therefore cannot disagree on order or width. IO::kReading tells a
// field list which way it runs, for the rare type that must rebuild derived
// state after a read.
//
// Field kinds and their bytes (all little-endian):
//   integers        fixed width, sizeof(T) bytes
//   bool            u8 0/1
//   double          IEEE-754 bit pattern as u64
//   std::string     u32 length + bytes
//   Ballot          round, node
//   Status          code (checked enum), message
//   std::vector<T>  u32 count + elements (any allocator)
//   std::map<K,V>   u32 count + (key, value) pairs in key order
//   FlatMap<K,V>    the same bytes as std::map
//   std::optional   bool present + value
//   Enum(f, last)   u8; a read above `last` fails the Reader
//   composite       its own Fields(T&, IO&)
//
// The encoding is canonical — one value, one byte sequence — which is what
// makes encode(decode(encode(x))) == encode(x) testable byte-for-byte.
// Reads never throw: a short read or an out-of-range enum flips the Reader's
// sticky failure flag, and the frame decoder rejects the whole frame.

#ifndef SCATTER_SRC_WIRE_FIELDS_H_
#define SCATTER_SRC_WIRE_FIELDS_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "src/common/flat_map.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/wire/buffer.h"

namespace scatter::wire {

// Encoding visitor. Field lists take their object by non-const reference so
// one list serves both directions; the writer only ever reads it.
class Writer {
 public:
  static constexpr bool kReading = false;
  explicit Writer(Buffer& out) : out_(out) {}

  template <typename... T>
  void operator()(const T&... fields) {
    (Field(*this, const_cast<T&>(fields)), ...);
  }

  Buffer& out() { return out_; }

 private:
  Buffer& out_;
};

// Appends the encoding of `value` to `out`.
template <typename T>
void Write(const T& value, Buffer& out) {
  Writer w(out);
  w(value);
}

// --- Scalars -----------------------------------------------------------------

template <typename T>
concept WireInteger = std::is_integral_v<T> && !std::is_same_v<T, bool>;

template <WireInteger T>
void Field(Writer& w, T& v) {
  w.out().WriteLe(static_cast<std::make_unsigned_t<T>>(v));
}
template <WireInteger T>
void Field(Reader& r, T& v) {
  v = static_cast<T>(r.ReadLe<std::make_unsigned_t<T>>());
}

inline void Field(Writer& w, bool& v) { w.out().WriteBool(v); }
inline void Field(Reader& r, bool& v) { v = r.ReadBool(); }

inline void Field(Writer& w, double& v) { w.out().WriteDouble(v); }
inline void Field(Reader& r, double& v) { v = r.ReadDouble(); }

inline void Field(Writer& w, std::string& v) { w.out().WriteString(v); }
inline void Field(Reader& r, std::string& v) { v = r.ReadString(); }

// --- Checked enums -----------------------------------------------------------

// One byte on the wire. Decoding a byte above `last` fails the read, so a
// corrupt frame can never carry an enumerator the receiver does not know.
template <typename E>
struct EnumField {
  E& value;
  E last;
};

template <typename E>
EnumField<E> Enum(E& value, E last) {
  return EnumField<E>{value, last};
}

template <typename E>
void Field(Writer& w, EnumField<E>& f) {
  w.out().WriteU8(static_cast<uint8_t>(f.value));
}
template <typename E>
void Field(Reader& r, EnumField<E>& f) {
  const uint8_t raw = r.ReadU8();
  if (raw > static_cast<uint8_t>(f.last)) {
    r.Fail();
    return;
  }
  f.value = static_cast<E>(raw);
}

// --- Shared value types ------------------------------------------------------

template <typename IO>
void Field(IO& io, Ballot& b) {
  io(b.round, b.node);
}

template <typename IO>
void Field(IO& io, Status& s) {
  StatusCode code = s.code();
  std::string message = s.message();
  io(Enum(code, StatusCode::kInternal), message);
  if constexpr (IO::kReading) {
    s = Status(code, std::move(message));
  }
}

// --- Containers --------------------------------------------------------------
//
// Reads go into a freshly constructed container. Element counts come from
// Reader::ReadCount, which bounds them by the remaining bytes, and loops stop
// at the first failed read.

template <typename T, typename A>
void Field(Writer& w, std::vector<T, A>& v) {
  w.out().WriteU32(static_cast<uint32_t>(v.size()));
  for (T& e : v) {
    Field(w, e);
  }
}
template <typename T, typename A>
void Field(Reader& r, std::vector<T, A>& v) {
  const size_t n = r.ReadCount();
  v.reserve(n);
  for (size_t i = 0; i < n && r.ok(); ++i) {
    Field(r, v.emplace_back());
  }
}

// std::map and FlatMap share one encoding. A read inserts through
// operator[], so a frame with out-of-order keys still decodes sorted, and a
// repeated key reads over the value already present.
template <typename M>
inline constexpr bool kWireMap = false;
template <typename K, typename V>
inline constexpr bool kWireMap<std::map<K, V>> = true;
template <typename K, typename V>
inline constexpr bool kWireMap<FlatMap<K, V>> = true;
template <typename M>
concept WireMap = kWireMap<M>;

template <WireMap M>
void Field(Writer& w, M& m) {
  w.out().WriteU32(static_cast<uint32_t>(m.size()));
  for (auto& [key, value] : m) {
    Field(w, const_cast<typename M::key_type&>(key));
    Field(w, value);
  }
}
template <WireMap M>
void Field(Reader& r, M& m) {
  const size_t n = r.ReadCount();
  for (size_t i = 0; i < n && r.ok(); ++i) {
    typename M::key_type key{};
    Field(r, key);
    Field(r, m[key]);
  }
}

template <typename T>
void Field(Writer& w, std::optional<T>& o) {
  w.out().WriteBool(o.has_value());
  if (o.has_value()) {
    Field(w, *o);
  }
}
template <typename T>
void Field(Reader& r, std::optional<T>& o) {
  if (r.ReadBool()) {
    Field(r, o.emplace());
  }
}

// --- Composites --------------------------------------------------------------

// Any type with a field list of its own.
template <typename IO, typename T>
  requires requires(T& v, IO& io) { Fields(v, io); }
void Field(IO& io, T& v) {
  Fields(v, io);
}

}  // namespace scatter::wire

#endif  // SCATTER_SRC_WIRE_FIELDS_H_
