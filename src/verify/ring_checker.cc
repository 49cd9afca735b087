#include "src/verify/ring_checker.h"

#include <algorithm>
#include <map>

#include "src/ring/ring_map.h"

namespace scatter::verify {

RingCheckOutcome CheckCover(std::vector<ring::GroupInfo> groups) {
  RingCheckOutcome out;
  if (groups.empty()) {
    out.ok = false;
    out.problems.push_back("no serving groups at all");
    return out;
  }
  std::sort(groups.begin(), groups.end(),
            [](const ring::GroupInfo& a, const ring::GroupInfo& b) {
              return a.range.begin < b.range.begin;
            });
  if (!ring::TilesRing(groups)) {
    out.ok = false;
    std::string layout = "ring is not a disjoint cover:";
    for (const ring::GroupInfo& info : groups) {
      layout += " " + info.ToString();
    }
    out.problems.push_back(layout);
  }
  return out;
}

RingCheckOutcome CheckQuiescentCover(const core::Cluster& cluster) {
  return CheckCover(cluster.AuthoritativeRing());
}

RingCheckOutcome CheckReplicaAgreement(core::Cluster& cluster) {
  RingCheckOutcome out;
  // Gather replicas per group.
  std::map<GroupId, std::vector<std::pair<NodeId, const
      membership::GroupStateMachine*>>> groups;
  for (NodeId id : cluster.live_node_ids()) {
    core::ScatterNode* node = cluster.node(id);
    for (const auto* sm : node->ServingGroups()) {
      groups[sm->id()].emplace_back(id, sm);
    }
  }
  for (const auto& [gid, replicas] : groups) {
    // Compare every replica with the most-applied one; replicas that are
    // behind (lower applied index) are skipped — only equal progress must
    // mean equal state.
    const paxos::Replica* best = nullptr;
    const membership::GroupStateMachine* best_sm = nullptr;
    for (const auto& [nid, sm] : replicas) {
      const paxos::Replica* r = cluster.node(nid)->GroupReplica(gid);
      if (best == nullptr || r->applied_index() > best->applied_index()) {
        best = r;
        best_sm = sm;
      }
    }
    for (const auto& [nid, sm] : replicas) {
      const paxos::Replica* r = cluster.node(nid)->GroupReplica(gid);
      if (r->applied_index() != best->applied_index()) {
        continue;  // Laggard; nothing to compare yet.
      }
      if (!(sm->state().data == best_sm->state().data) ||
          sm->range() != best_sm->range() ||
          sm->epoch() != best_sm->epoch()) {
        out.ok = false;
        out.problems.push_back(
            "replica divergence in g" + std::to_string(gid) + " on node " +
            std::to_string(nid) + " at applied index " +
            std::to_string(r->applied_index()));
      }
    }
  }
  return out;
}

}  // namespace scatter::verify
