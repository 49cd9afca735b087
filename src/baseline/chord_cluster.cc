#include "src/baseline/chord_cluster.h"

#include <algorithm>

#include "src/baseline/wire_codecs.h"
#include "src/common/logging.h"
#include "src/wire/transport_factory.h"

namespace scatter::baseline {

ChordCluster::ChordCluster(const ChordClusterConfig& config)
    : cfg_(config),
      sim_(config.seed),
      net_(wire::MakeNetwork(&sim_, config.network, config.transport)) {
  // Chord messages ride the same wire transports; register this module's
  // codecs (idempotent) before any frame is encoded.
  RegisterWireCodecs();
  SCATTER_CHECK(cfg_.initial_nodes >= 1);
  std::vector<NodeId> ids;
  for (size_t i = 0; i < cfg_.initial_nodes; ++i) {
    ids.push_back(next_node_id_++);
  }
  std::vector<NodeId> seeds(ids.begin(),
                            ids.begin() + std::min<size_t>(ids.size(), 5));
  for (NodeId id : ids) {
    nodes_[id] = std::make_unique<ChordNode>(id, net_.get(), seeds);
  }

  // Wire the bootstrap ring directly: sort by position, then each node's
  // successor list is the next few nodes clockwise; fingers point at the
  // owner of each finger target.
  std::vector<NodeRef> ring;
  ring.reserve(ids.size());
  for (NodeId id : ids) {
    ring.push_back(nodes_[id]->self_ref());
  }
  std::sort(ring.begin(), ring.end(),
            [](const NodeRef& a, const NodeRef& b) { return a.pos < b.pos; });
  const size_t n = ring.size();
  auto owner_of = [&](Key key) {
    // First ring position >= key, wrapping.
    for (const NodeRef& r : ring) {
      if (r.pos >= key) {
        return r;
      }
    }
    return ring[0];
  };
  for (size_t i = 0; i < n; ++i) {
    ChordNode* node = nodes_[ring[i].id].get();
    std::vector<NodeRef> successors;
    for (size_t k = 1; k <= std::min(kSuccessorList, n - 1); ++k) {
      successors.push_back(ring[(i + k) % n]);
    }
    if (successors.empty()) {
      successors.push_back(ring[i]);  // single-node ring
    }
    node->SetNeighbors(ring[(i + n - 1) % n], std::move(successors));
    for (size_t f = 0; f < kFingers; ++f) {
      const Key target =
          ring[i].pos + (uint64_t{1} << (64 - kFingers + f));
      node->SetFinger(f, owner_of(target));
    }
  }
}

NodeId ChordCluster::SpawnNode() {
  const NodeId id = next_node_id_++;
  nodes_[id] = std::make_unique<ChordNode>(id, net_.get(), SampleSeeds(5));
  nodes_[id]->StartJoin();
  return id;
}

void ChordCluster::CrashNode(NodeId id) { nodes_.erase(id); }

ChordNode* ChordCluster::node(NodeId id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<NodeId> ChordCluster::live_node_ids() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, n] : nodes_) {
    out.push_back(id);
  }
  return out;
}

std::vector<NodeId> ChordCluster::SampleSeeds(size_t count) const {
  std::vector<NodeId> all = live_node_ids();
  if (all.size() <= count) {
    return all;
  }
  std::vector<NodeId> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(all[i * all.size() / count]);
  }
  return out;
}

ChordClient* ChordCluster::AddClient() {
  clients_.push_back(std::make_unique<ChordClient>(
      next_client_id_++, net_.get(), SampleSeeds(5)));
  return clients_.back().get();
}

void ChordCluster::RefreshSeeds() {
  std::vector<NodeId> seeds = SampleSeeds(5);
  for (auto& client : clients_) {
    client->SetSeeds(seeds);
  }
}

}  // namespace scatter::baseline
