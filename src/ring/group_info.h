// Routing metadata describing one group: its identity, range, epoch,
// membership, and last-known leader. This is the unit of information the
// directory caches and the redirect protocol carries.

#ifndef SCATTER_SRC_RING_GROUP_INFO_H_
#define SCATTER_SRC_RING_GROUP_INFO_H_

#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/ring/key_range.h"

namespace scatter::ring {

struct GroupInfo {
  GroupId id = kInvalidGroup;
  KeyRange range;
  // Bumped by every structural change (membership, range, split/merge
  // lineage). Freshness comparator for cached copies of the SAME group.
  uint64_t epoch = 0;
  std::vector<NodeId> members;
  // Best-known leader; kInvalidNode when unknown. Purely a hint.
  NodeId leader = kInvalidNode;
  // Approximate number of stored keys when the info was produced; feeds
  // load-balancing policy decisions. Valid only when has_key_count.
  uint64_t key_count = 0;
  bool has_key_count = false;
  // Client operations per second served by the group's leader (EWMA over
  // policy windows). Valid only when has_op_rate.
  double op_rate = 0.0;
  bool has_op_rate = false;

  bool valid() const { return id != kInvalidGroup; }

  std::string ToString() const {
    std::string s = "g" + std::to_string(id) + " " + range.ToString() +
                    " e" + std::to_string(epoch) + " {";
    for (size_t i = 0; i < members.size(); ++i) {
      if (i > 0) {
        s += ",";
      }
      s += std::to_string(members[i]);
    }
    s += "}";
    return s;
  }
};

// Wire field list (src/wire/fields.h).
template <class IO>
void Fields(GroupInfo& g, IO& io) {
  io(g.id, g.range, g.epoch, g.members, g.leader, g.key_count,
     g.has_key_count, g.op_rate, g.has_op_rate);
}

}  // namespace scatter::ring

#endif  // SCATTER_SRC_RING_GROUP_INFO_H_
