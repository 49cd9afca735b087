// A sorted-vector map for small, bounded key sets on hot paths.
//
// Same ordering and lookup semantics as std::map (ascending keys, unique),
// stored as one contiguous std::vector<std::pair<K, V>>: a lookup is a
// binary search over adjacent memory and a copy is one allocation instead
// of one per entry. An insert moves the entries after it, so use this only
// where the size stays small by construction (a bounded window, one entry
// per client session or per node). Appending a key above the current
// maximum — the common case for sequence numbers and decoded wire maps —
// skips the search.
//
// Any insert or erase invalidates iterators and references, as with
// std::vector.

#ifndef SCATTER_SRC_COMMON_FLAT_MAP_H_
#define SCATTER_SRC_COMMON_FLAT_MAP_H_

#include <algorithm>
#include <tuple>
#include <utility>
#include <vector>

namespace scatter {

template <typename K, typename V>
class FlatMap {
 public:
  using key_type = K;
  using mapped_type = V;
  using value_type = std::pair<K, V>;
  using iterator = typename std::vector<value_type>::iterator;
  using const_iterator = typename std::vector<value_type>::const_iterator;

  iterator begin() { return items_.begin(); }
  iterator end() { return items_.end(); }
  const_iterator begin() const { return items_.begin(); }
  const_iterator end() const { return items_.end(); }
  size_t size() const { return items_.size(); }
  bool empty() const { return items_.empty(); }

  iterator lower_bound(const K& key) {
    return std::lower_bound(items_.begin(), items_.end(), key, KeyLess);
  }
  const_iterator lower_bound(const K& key) const {
    return std::lower_bound(items_.begin(), items_.end(), key, KeyLess);
  }
  const_iterator find(const K& key) const {
    auto it = lower_bound(key);
    return it != end() && it->first == key ? it : end();
  }

  // Inserts (key, V(args...)) unless the key is present; like std::map.
  template <typename... Args>
  std::pair<iterator, bool> try_emplace(const K& key, Args&&... args) {
    auto it = items_.empty() || items_.back().first < key ? end()
                                                          : lower_bound(key);
    if (it != end() && it->first == key) {
      return {it, false};
    }
    it = items_.emplace(it, std::piecewise_construct,
                        std::forward_as_tuple(key),
                        std::forward_as_tuple(std::forward<Args>(args)...));
    return {it, true};
  }
  V& operator[](const K& key) { return try_emplace(key).first->second; }

  // Inserts at `pos`, which must be lower_bound(key) for an absent key: one
  // search serves both a membership test and the insert.
  iterator insert(const_iterator pos, value_type item) {
    return items_.insert(pos, std::move(item));
  }

  iterator erase(const_iterator first, const_iterator last) {
    return items_.erase(first, last);
  }

 private:
  static bool KeyLess(const value_type& item, const K& key) {
    return item.first < key;
  }

  std::vector<value_type> items_;
};

}  // namespace scatter

#endif  // SCATTER_SRC_COMMON_FLAT_MAP_H_
