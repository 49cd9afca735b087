#include "src/ring/ring_map.h"

#include <algorithm>

namespace scatter::ring {

void RingMap::BindMetrics(obs::MetricsRegistry* registry, NodeId node) {
  lookups_ = &registry->GetCounter("ring.lookups", node);
  lookup_misses_ = &registry->GetCounter("ring.lookup_misses", node);
  upserts_ = &registry->GetCounter("ring.upserts", node);
  evictions_ = &registry->GetCounter("ring.evictions", node);
}

bool RingMap::Upsert(const GroupInfo& info) {
  if (!info.valid()) {
    return false;
  }
  auto existing = by_id_.find(info.id);
  if (existing != by_id_.end()) {
    if (info.epoch < existing->second.epoch) {
      return false;
    }
    if (info.epoch == existing->second.epoch) {
      // Same structural version (the range is unchanged), but membership,
      // leadership and load all drift within an epoch — refresh them, or
      // stale member counts poison placement decisions.
      GroupInfo& cached = existing->second;
      bool changed = false;
      if (info.leader != kInvalidNode && info.leader != cached.leader) {
        cached.leader = info.leader;
        changed = true;
      }
      if (!info.members.empty() && info.members != cached.members) {
        cached.members = info.members;
        changed = true;
      }
      if (info.has_key_count) {
        cached.key_count = info.key_count;
        cached.has_key_count = true;
      }
      if (info.has_op_rate) {
        cached.op_rate = info.op_rate;
        cached.has_op_rate = true;
      }
      return changed;
    }
    by_start_.erase(existing->second.range.begin);
    by_id_.erase(existing);
  }

  // Evict every cached arc this one overlaps: they describe the pre-change
  // layout (a split/merge sibling, or an arc this group absorbed).
  std::vector<GroupId> doomed;
  for (const auto& [id, cached] : by_id_) {
    if (cached.range.Overlaps(info.range)) {
      doomed.push_back(id);
    }
  }
  // by_id_ is unordered; erase in sorted order so downstream observers (trace
  // events, counters) see a hash-layout-independent sequence.
  std::sort(doomed.begin(), doomed.end());
  for (GroupId id : doomed) {
    Erase(id);
  }

  by_start_[info.range.begin] = info.id;
  by_id_[info.id] = info;
  if (upserts_ != nullptr) {
    ++*upserts_;
    *evictions_ += doomed.size();
  }
  return true;
}

const GroupInfo* RingMap::Lookup(Key key) const {
  if (lookups_ != nullptr) {
    ++*lookups_;
  }
  if (by_start_.empty()) {
    if (lookup_misses_ != nullptr) {
      ++*lookup_misses_;
    }
    return nullptr;
  }
  // The covering arc is the one with the greatest start <= key, or — when
  // key precedes every start — the wrapping arc that begins at the greatest
  // start overall.
  auto it = by_start_.upper_bound(key);
  if (it == by_start_.begin()) {
    it = by_start_.end();
  }
  --it;
  auto info = by_id_.find(it->second);
  if (info == by_id_.end() || !info->second.range.Contains(key)) {
    if (lookup_misses_ != nullptr) {
      ++*lookup_misses_;
    }
    return nullptr;  // Gap in the cache.
  }
  return &info->second;
}

const GroupInfo* RingMap::ClosestPreceding(Key key) const {
  if (by_start_.empty()) {
    return nullptr;
  }
  auto it = by_start_.upper_bound(key);
  if (it == by_start_.begin()) {
    it = by_start_.end();  // Wrap to the arc with the largest begin.
  }
  --it;
  auto info = by_id_.find(it->second);
  return info == by_id_.end() ? nullptr : &info->second;
}

const GroupInfo* RingMap::Get(GroupId id) const {
  auto it = by_id_.find(id);
  return it == by_id_.end() ? nullptr : &it->second;
}

void RingMap::Erase(GroupId id) {
  auto it = by_id_.find(id);
  if (it == by_id_.end()) {
    return;
  }
  auto start = by_start_.find(it->second.range.begin);
  if (start != by_start_.end() && start->second == id) {
    by_start_.erase(start);
  }
  by_id_.erase(it);
}

std::vector<GroupInfo> RingMap::All() const {
  std::vector<GroupInfo> out;
  out.reserve(by_id_.size());
  for (const auto& [id, info] : by_id_) {
    out.push_back(info);
  }
  std::sort(out.begin(), out.end(), [](const GroupInfo& a, const GroupInfo& b) {
    return a.range.begin < b.range.begin;
  });
  return out;
}

bool RingMap::IsCompleteCover() const { return TilesRing(All()); }

bool TilesRing(const std::vector<GroupInfo>& arcs) {
  if (arcs.empty()) {
    return false;
  }
  // A lone arc's end is its own begin, which makes it the full ring.
  const bool single = arcs.size() == 1;
  for (size_t i = 0; i < arcs.size(); ++i) {
    const KeyRange& cur = arcs[i].range;
    const KeyRange& next = arcs[(i + 1) % arcs.size()].range;
    if (cur.IsFull() != single || cur.end != next.begin) {
      return false;
    }
  }
  return true;
}

}  // namespace scatter::ring
