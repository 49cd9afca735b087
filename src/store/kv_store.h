// In-memory key-value store for one group's range, with the range
// extraction / merge operations that group restructuring (split, merge,
// repartition) is built on.

#ifndef SCATTER_SRC_STORE_KV_STORE_H_
#define SCATTER_SRC_STORE_KV_STORE_H_

#include <map>
#include <optional>

#include "src/common/types.h"
#include "src/ring/key_range.h"

namespace scatter::store {

class KvStore {
 public:
  void Put(Key key, Value value);

  // The stored value, or nullopt.
  std::optional<Value> Get(Key key) const;

  // True if the key existed.
  bool Delete(Key key);

  size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  // Approximate wire size of the full contents (keys + values), maintained
  // incrementally; feeds the network's bandwidth model when stores ship
  // inside snapshots and structural transactions.
  size_t byte_size() const { return bytes_; }

  // Copies all entries whose key lies in `range` (which may wrap around the
  // ring) into a new store.
  KvStore ExtractRange(const ring::KeyRange& range) const;

  // Removes all entries in `range`.
  void EraseRange(const ring::KeyRange& range);

  // Number of keys in `range`.
  size_t CountRange(const ring::KeyRange& range) const;

  // Some stored key NOT contained in `range`, or nullopt when every key is.
  // O(log n): only the complement arc's boundaries are probed, so the
  // invariant auditor can assert store/range containment continuously.
  std::optional<Key> FirstKeyOutside(const ring::KeyRange& range) const;

  // Copies every entry of `other` into this store (overwriting duplicates;
  // group ops only merge disjoint ranges, so overwrites indicate a bug
  // upstream but are harmless here).
  void MergeFrom(const KvStore& other);

  // Underlying ordered map, exposed for snapshots and verification.
  const std::map<Key, Value>& entries() const { return entries_; }

  friend bool operator==(const KvStore& a, const KvStore& b) {
    return a.entries_ == b.entries_;
  }

  // Wire field list (src/wire/fields.h): the entries in key order. A read
  // recomputes the byte accounting the entries imply.
  template <class IO>
  friend void Fields(KvStore& kv, IO& io) {
    io(kv.entries_);
    if constexpr (IO::kReading) {
      kv.RecountBytes();
    }
  }

 private:
  template <typename Fn>
  void ForRange(const ring::KeyRange& range, Fn&& fn) const;

  void InsertRaw(Key key, const Value& value);
  void RecountBytes();

  std::map<Key, Value> entries_;
  size_t bytes_ = 0;
};

}  // namespace scatter::store

#endif  // SCATTER_SRC_STORE_KV_STORE_H_
