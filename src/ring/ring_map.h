// A best-effort cache of the ring's group layout, used by clients and nodes
// for routing. Entries can be stale — the authoritative owner of a range is
// always the group's replicated state, and mis-routed requests come back as
// redirects that repair the cache. Consequently the update policy is simple:
// newer information about a group replaces older (by epoch), and inserting a
// group evicts any cached arcs it overlaps (they are provably stale or about
// to be refreshed).

#ifndef SCATTER_SRC_RING_RING_MAP_H_
#define SCATTER_SRC_RING_RING_MAP_H_

#include <map>
#include <unordered_map>
#include <vector>

#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/ring/group_info.h"

namespace scatter::ring {

class RingMap {
 public:
  // Binds routing-cache counters to the owning node's registry cells
  // ("ring.lookups", "ring.lookup_misses", "ring.upserts",
  // "ring.evictions"). Optional: an unbound map (the default) counts into
  // nothing. The registry must outlive this map.
  void BindMetrics(obs::MetricsRegistry* registry, NodeId node);

  // Incorporates `info`. Returns true if anything changed. Stale updates
  // (epoch <= what we hold for the same group) only refresh the leader hint.
  bool Upsert(const GroupInfo& info);

  // Best-known group covering `key`; nullptr when the cache has no covering
  // arc.
  const GroupInfo* Lookup(Key key) const;

  // The arc whose begin is closest counterclockwise of `key` (wrapping),
  // regardless of whether it covers the key. This is the ring-walk step:
  // contacting that group gets one hop closer to the owner, because every
  // group knows its clockwise successor. nullptr only when empty.
  const GroupInfo* ClosestPreceding(Key key) const;

  const GroupInfo* Get(GroupId id) const;

  void Erase(GroupId id);

  size_t size() const { return by_id_.size(); }

  std::vector<GroupInfo> All() const;

  // True when the cached arcs exactly tile the full ring with no gaps
  // (TilesRing over All()). Upsert has already evicted overlaps.
  bool IsCompleteCover() const;

 private:
  std::unordered_map<GroupId, GroupInfo> by_id_;
  // Arc start -> group. Full-ring arcs are stored under begin key as well.
  std::map<Key, GroupId> by_start_;
  // Registry-backed counters (raw pointers so const lookups can count;
  // nullptr until BindMetrics).
  Counter* lookups_ = nullptr;
  Counter* lookup_misses_ = nullptr;
  Counter* upserts_ = nullptr;
  Counter* evictions_ = nullptr;
};

// Whether `arcs`, sorted by range begin, tile the key space exactly once.
// A lone arc must be the full ring; with more, no arc is full and each ends
// where the next one begins.
bool TilesRing(const std::vector<GroupInfo>& arcs);

}  // namespace scatter::ring

#endif  // SCATTER_SRC_RING_RING_MAP_H_
