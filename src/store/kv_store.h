// In-memory key-value store for one group's range, with the range
// extraction / merge operations that group restructuring (split, merge,
// repartition) is built on.
//
// Layout: the entries sit in key order in runs of at most kMaxRun, each run
// a pair of contiguous key and value arrays, under an index of every run's
// first key. A lookup binary-searches the index, then one run; a fresh
// insert moves at most one run's entries (plus one index slot when the run
// splits). Every replica applies every write of its group, so this is the
// state-machine half of the per-write cost.

#ifndef SCATTER_SRC_STORE_KV_STORE_H_
#define SCATTER_SRC_STORE_KV_STORE_H_

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

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

  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

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

  // Calls fn(key, value) for every entry, in ascending key order.
  template <typename Fn>
  void ForEach(Fn&& fn) const {
    for (const Run& run : runs_) {
      for (size_t i = 0; i < run.keys.size(); ++i) {
        fn(run.keys[i], run.values[i]);
      }
    }
  }

  // Equal contents; run boundaries may differ.
  friend bool operator==(const KvStore& a, const KvStore& b);

  // Wire field list (src/wire/fields.h): u32 count, then (key, value) pairs
  // in key order — the bytes of a std::map<Key, Value>. A read inserts each
  // pair as a Put, so out-of-order keys decode sorted and a repeated key
  // keeps its last value.
  template <class IO>
  friend void Fields(KvStore& kv, IO& io) {
    if constexpr (IO::kReading) {
      const size_t n = io.ReadCount();
      for (size_t i = 0; i < n && io.ok(); ++i) {
        Key key = 0;
        Value value;
        io(key, value);
        kv.Put(key, std::move(value));
      }
    } else {
      io.out().WriteU32(static_cast<uint32_t>(kv.size_));
      kv.ForEach([&io](Key key, const Value& value) { io(key, value); });
    }
  }

 private:
  static constexpr size_t kMaxRun = 128;

  struct Run {
    std::vector<Key> keys;
    std::vector<Value> values;
  };

  // An entry's place: runs_[run].keys[i]. {runs_.size(), 0} is the end.
  struct Pos {
    size_t run = 0;
    size_t i = 0;
  };

  // First entry with a key >= `key`.
  Pos LowerBound(Key key) const;
  // The entry holding `key`, or End().
  Pos Find(Key key) const;
  Pos End() const { return Pos{runs_.size(), 0}; }

  // fn(key, value) for the entries in [from, to), in key order.
  template <typename Fn>
  void Walk(Pos from, Pos to, Fn&& fn) const;
  // fn(key, value) for the entries in `range`, in key order.
  template <typename Fn>
  void ForRange(const ring::KeyRange& range, Fn&& fn) const;

  // Adds an entry whose key is above every stored key.
  void Append(Key key, Value value);
  void EraseSpan(Pos from, Pos to);
  // Drops run `r` if empty, else refreshes its index entry.
  void Tidy(size_t r);

  std::vector<Key> firsts_;  // firsts_[r] == runs_[r].keys.front()
  std::vector<Run> runs_;
  size_t size_ = 0;
  size_t bytes_ = 0;
};

}  // namespace scatter::store

#endif  // SCATTER_SRC_STORE_KV_STORE_H_
