#include "src/store/kv_store.h"

#include <utility>
#include <vector>

namespace scatter::store {

namespace {
// 8 key bytes plus the value payload.
size_t EntryBytes(const Value& value) { return 8 + value.size(); }
}  // namespace

void KvStore::InsertRaw(Key key, const Value& value) {
  auto it = entries_.find(key);
  if (it != entries_.end()) {
    bytes_ -= EntryBytes(it->second);
    it->second = value;
  } else {
    entries_.emplace(key, value);
  }
  bytes_ += EntryBytes(value);
}

void KvStore::RecountBytes() {
  bytes_ = 0;
  for (const auto& [key, value] : entries_) {
    bytes_ += EntryBytes(value);
  }
}

void KvStore::Put(Key key, Value value) {
  InsertRaw(key, value);
}

std::optional<Value> KvStore::Get(Key key) const {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return std::nullopt;
  }
  return it->second;
}

bool KvStore::Delete(Key key) {
  auto it = entries_.find(key);
  if (it == entries_.end()) {
    return false;
  }
  bytes_ -= EntryBytes(it->second);
  entries_.erase(it);
  return true;
}

template <typename Fn>
void KvStore::ForRange(const ring::KeyRange& range, Fn&& fn) const {
  if (range.IsFull()) {
    for (const auto& [k, v] : entries_) {
      fn(k, v);
    }
    return;
  }
  if (range.begin < range.end) {
    for (auto it = entries_.lower_bound(range.begin);
         it != entries_.end() && it->first < range.end; ++it) {
      fn(it->first, it->second);
    }
    return;
  }
  // Wrapping arc: [begin, max] then [0, end).
  for (auto it = entries_.lower_bound(range.begin); it != entries_.end();
       ++it) {
    fn(it->first, it->second);
  }
  for (auto it = entries_.begin();
       it != entries_.end() && it->first < range.end; ++it) {
    fn(it->first, it->second);
  }
}

KvStore KvStore::ExtractRange(const ring::KeyRange& range) const {
  KvStore out;
  ForRange(range, [&out](Key k, const Value& v) { out.InsertRaw(k, v); });
  return out;
}

void KvStore::EraseRange(const ring::KeyRange& range) {
  std::vector<Key> doomed;
  ForRange(range, [&doomed](Key k, const Value&) { doomed.push_back(k); });
  for (Key k : doomed) {
    Delete(k);
  }
}

size_t KvStore::CountRange(const ring::KeyRange& range) const {
  size_t n = 0;
  ForRange(range, [&n](Key, const Value&) { n++; });
  return n;
}

std::optional<Key> KvStore::FirstKeyOutside(const ring::KeyRange& range) const {
  if (range.IsFull() || entries_.empty()) {
    return std::nullopt;
  }
  // Offending keys lie on the complement arc [end, begin).
  if (range.begin < range.end) {
    // Complement wraps: [end, max] then [0, begin).
    auto it = entries_.lower_bound(range.end);
    if (it != entries_.end()) {
      return it->first;
    }
    if (entries_.begin()->first < range.begin) {
      return entries_.begin()->first;
    }
    return std::nullopt;
  }
  // Range wraps, complement is the plain arc [end, begin).
  auto it = entries_.lower_bound(range.end);
  if (it != entries_.end() && it->first < range.begin) {
    return it->first;
  }
  return std::nullopt;
}

void KvStore::MergeFrom(const KvStore& other) {
  for (const auto& [k, v] : other.entries_) {
    InsertRaw(k, v);
  }
}

}  // namespace scatter::store
