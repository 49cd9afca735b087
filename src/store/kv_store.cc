#include "src/store/kv_store.h"

#include <algorithm>
#include <iterator>
#include <utility>

namespace scatter::store {

namespace {
// 8 key bytes plus the value payload.
size_t EntryBytes(const Value& value) { return 8 + value.size(); }

// How many of the sorted, non-empty `keys` are below `key` (kOrEqual: at or
// below it). The halving step is computed, not branched on: for random keys
// a binary search's branches mispredict about half the time, and on a
// cache-resident run that made std::lower_bound slower than a std::map walk.
template <bool kOrEqual>
size_t CountBelow(const std::vector<Key>& keys, Key key) {
  const Key* base = keys.data();
  size_t n = keys.size();
  while (n > 1) {
    const size_t half = n / 2;
    const Key probe = base[half];
    base += static_cast<size_t>(kOrEqual ? probe <= key : probe < key) * half;
    n -= half;
  }
  const bool below = kOrEqual ? *base <= key : *base < key;
  return static_cast<size_t>(base - keys.data()) + (below ? 1 : 0);
}
}  // namespace

KvStore::Pos KvStore::LowerBound(Key key) const {
  if (runs_.empty()) {
    return End();
  }
  // The last run whose first key is <= key (or the first run).
  const size_t after = CountBelow<true>(firsts_, key);
  const size_t r = after == 0 ? 0 : after - 1;
  const std::vector<Key>& keys = runs_[r].keys;
  const size_t i = CountBelow<false>(keys, key);
  // Past the run's last key: the next run starts above `key`.
  return i < keys.size() ? Pos{r, i} : Pos{r + 1, 0};
}

KvStore::Pos KvStore::Find(Key key) const {
  const Pos p = LowerBound(key);
  return p.run < runs_.size() && runs_[p.run].keys[p.i] == key ? p : End();
}

template <typename Fn>
void KvStore::Walk(Pos from, Pos to, Fn&& fn) const {
  for (size_t r = from.run; r <= to.run && r < runs_.size(); ++r) {
    const Run& run = runs_[r];
    const size_t last = r == to.run ? to.i : run.keys.size();
    for (size_t i = r == from.run ? from.i : 0; i < last; ++i) {
      fn(run.keys[i], run.values[i]);
    }
  }
}

template <typename Fn>
void KvStore::ForRange(const ring::KeyRange& range, Fn&& fn) const {
  if (range.begin < range.end) {
    Walk(LowerBound(range.begin), LowerBound(range.end), fn);
    return;
  }
  // Wrapping arc in key order: [0, end) then [begin, max]. A full range
  // (begin == end) is the same two spans meeting at one point.
  Walk(Pos{}, LowerBound(range.end), fn);
  Walk(LowerBound(range.begin), End(), fn);
}

void KvStore::Append(Key key, Value value) {
  if (runs_.empty() || runs_.back().keys.size() == kMaxRun) {
    runs_.emplace_back();
    firsts_.push_back(key);
  }
  bytes_ += EntryBytes(value);
  size_++;
  runs_.back().keys.push_back(key);
  runs_.back().values.push_back(std::move(value));
}

void KvStore::Put(Key key, Value value) {
  if (runs_.empty() || runs_.back().keys.back() < key) {
    Append(key, std::move(value));
    return;
  }
  // Not above the last key, so p is a real entry.
  const Pos p = LowerBound(key);
  Run& run = runs_[p.run];
  const auto i = static_cast<std::ptrdiff_t>(p.i);
  bytes_ += EntryBytes(value);
  if (run.keys[p.i] == key) {
    bytes_ -= EntryBytes(run.values[p.i]);
    run.values[p.i] = std::move(value);
    return;
  }
  size_++;
  run.keys.insert(run.keys.begin() + i, key);
  run.values.insert(run.values.begin() + i, std::move(value));
  firsts_[p.run] = run.keys.front();
  if (run.keys.size() <= kMaxRun) {
    return;
  }
  // Full: the upper half moves to a new run right after this one.
  const auto half = static_cast<std::ptrdiff_t>(run.keys.size() / 2);
  Run upper;
  upper.keys.assign(run.keys.begin() + half, run.keys.end());
  upper.values.assign(std::make_move_iterator(run.values.begin() + half),
                      std::make_move_iterator(run.values.end()));
  run.keys.erase(run.keys.begin() + half, run.keys.end());
  run.values.erase(run.values.begin() + half, run.values.end());
  const auto next = static_cast<std::ptrdiff_t>(p.run) + 1;
  firsts_.insert(firsts_.begin() + next, upper.keys.front());
  runs_.insert(runs_.begin() + next, std::move(upper));
}

std::optional<Value> KvStore::Get(Key key) const {
  const Pos p = Find(key);
  if (p.run == runs_.size()) {
    return std::nullopt;
  }
  return runs_[p.run].values[p.i];
}

void KvStore::Tidy(size_t r) {
  const auto at = static_cast<std::ptrdiff_t>(r);
  if (runs_[r].keys.empty()) {
    runs_.erase(runs_.begin() + at);
    firsts_.erase(firsts_.begin() + at);
  } else {
    firsts_[r] = runs_[r].keys.front();
  }
}

bool KvStore::Delete(Key key) {
  const Pos p = Find(key);
  if (p.run == runs_.size()) {
    return false;
  }
  Run& run = runs_[p.run];
  const auto i = static_cast<std::ptrdiff_t>(p.i);
  bytes_ -= EntryBytes(run.values[p.i]);
  size_--;
  run.keys.erase(run.keys.begin() + i);
  run.values.erase(run.values.begin() + i);
  Tidy(p.run);
  return true;
}

void KvStore::EraseSpan(Pos from, Pos to) {
  Walk(from, to, [this](Key, const Value& value) {
    bytes_ -= EntryBytes(value);
    size_--;
  });
  if (from.run >= runs_.size() || (from.run == to.run && from.i == to.i)) {
    return;
  }
  const auto cut = [](Run& run, size_t begin, size_t end) {
    const auto b = static_cast<std::ptrdiff_t>(begin);
    const auto e = static_cast<std::ptrdiff_t>(end);
    run.keys.erase(run.keys.begin() + b, run.keys.begin() + e);
    run.values.erase(run.values.begin() + b, run.values.begin() + e);
  };
  Run& first = runs_[from.run];
  cut(first, from.i, from.run == to.run ? to.i : first.keys.size());
  if (to.run > from.run) {
    if (to.run < runs_.size()) {
      cut(runs_[to.run], 0, to.i);
    }
    // Runs strictly between the two ends go whole.
    const auto b = static_cast<std::ptrdiff_t>(from.run) + 1;
    const auto e = static_cast<std::ptrdiff_t>(to.run);
    runs_.erase(runs_.begin() + b, runs_.begin() + e);
    firsts_.erase(firsts_.begin() + b, firsts_.begin() + e);
    if (from.run + 1 < runs_.size()) {
      Tidy(from.run + 1);
    }
  }
  Tidy(from.run);
}

KvStore KvStore::ExtractRange(const ring::KeyRange& range) const {
  KvStore out;
  ForRange(range, [&out](Key k, const Value& v) { out.Append(k, v); });
  return out;
}

void KvStore::EraseRange(const ring::KeyRange& range) {
  if (range.begin < range.end) {
    EraseSpan(LowerBound(range.begin), LowerBound(range.end));
    return;
  }
  // Wrapping (or full): erase [begin, max] first, so [0, end) is found in
  // the store that remains.
  EraseSpan(LowerBound(range.begin), End());
  EraseSpan(Pos{}, LowerBound(range.end));
}

size_t KvStore::CountRange(const ring::KeyRange& range) const {
  size_t n = 0;
  ForRange(range, [&n](Key, const Value&) { n++; });
  return n;
}

std::optional<Key> KvStore::FirstKeyOutside(const ring::KeyRange& range) const {
  if (range.IsFull() || runs_.empty()) {
    return std::nullopt;
  }
  // Offending keys lie on the complement arc [end, begin).
  const Pos p = LowerBound(range.end);
  const bool found = p.run < runs_.size();
  if (range.begin < range.end) {
    // Complement wraps: [end, max] then [0, begin).
    if (found) {
      return runs_[p.run].keys[p.i];
    }
    if (firsts_.front() < range.begin) {
      return firsts_.front();
    }
    return std::nullopt;
  }
  // Range wraps, complement is the plain arc [end, begin).
  if (found && runs_[p.run].keys[p.i] < range.begin) {
    return runs_[p.run].keys[p.i];
  }
  return std::nullopt;
}

void KvStore::MergeFrom(const KvStore& other) {
  other.ForEach([this](Key k, const Value& v) { Put(k, v); });
}

bool operator==(const KvStore& a, const KvStore& b) {
  if (a.size_ != b.size_ || a.bytes_ != b.bytes_) {
    return false;
  }
  // Walk b alongside a; runs are never empty, so the cursor stays valid.
  KvStore::Pos p;
  bool equal = true;
  a.ForEach([&b, &p, &equal](Key k, const Value& v) {
    if (!equal) {
      return;
    }
    const KvStore::Run& run = b.runs_[p.run];
    equal = run.keys[p.i] == k && run.values[p.i] == v;
    if (++p.i == run.keys.size()) {
      p.run++;
      p.i = 0;
    }
  });
  return equal;
}

}  // namespace scatter::store
