#include "src/core/cluster.h"

#include <algorithm>

#include "src/common/logging.h"
#include "src/core/wire_codecs.h"
#include "src/storage/persist_env.h"
#include "src/wire/transport_factory.h"

namespace scatter::core {

namespace {

bool ResolvePersistence(ClusterConfig::Persistence mode) {
  switch (mode) {
    case ClusterConfig::Persistence::kOn:
      return true;
    case ClusterConfig::Persistence::kOff:
      return false;
    case ClusterConfig::Persistence::kDefault:
      return storage::PersistenceEnabledFromEnv();
  }
  return false;
}

}  // namespace

Cluster::Cluster(const ClusterConfig& config)
    : cfg_(config),
      persist_(ResolvePersistence(config.persistence)),
      sim_(config.seed),
      net_(wire::MakeNetwork(&sim_, config.network, config.transport)) {
  // The serializing/auditing transports need every Scatter codec; register
  // them here (idempotent) since the wire layer cannot name protocol types.
  RegisterScatterWireCodecs();
  SCATTER_CHECK(cfg_.initial_nodes >= cfg_.initial_groups);
  SCATTER_CHECK(cfg_.initial_groups >= 1);

  // Enable monitoring before any node exists so the first window boundary
  // is the same whether or not bootstrap is still settling.
  if (cfg_.enable_health_monitor) {
    sim_.EnableHealthMonitor();
  }
  if (cfg_.enable_timeline) {
    sim_.EnableTimeline();
  }

  // Allocate node ids and choose the bootstrap seeds (the first few nodes;
  // RefreshSeeds repoints everything later under churn).
  std::vector<NodeId> ids;
  for (size_t i = 0; i < cfg_.initial_nodes; ++i) {
    ids.push_back(next_node_id_++);
  }
  std::vector<NodeId> seeds(ids.begin(),
                            ids.begin() + std::min<size_t>(ids.size(), 5));

  for (NodeId id : ids) {
    nodes_[id] = std::make_unique<ScatterNode>(id, net_.get(), cfg_.scatter,
                                               seeds, DiskFor(id));
  }

  // Tile the ring with initial_groups equal arcs; members round-robin.
  const size_t g = cfg_.initial_groups;
  std::vector<membership::FoundingGroup> groups(g);
  const uint64_t arc = g == 1 ? 0 : (~uint64_t{0} / g) + 1;
  for (size_t i = 0; i < g; ++i) {
    groups[i].info.id = 1000 + i;
    groups[i].info.epoch = 1;
    // The last arc ends exactly at 0 (the first arc's begin) so the tiling
    // is gapless and overlap-free despite integer division slack.
    const Key begin = static_cast<Key>(arc * i);
    const Key end = i + 1 == g ? 0 : static_cast<Key>(arc * (i + 1));
    groups[i].info.range =
        g == 1 ? ring::KeyRange::Full() : ring::KeyRange{begin, end};
  }
  for (size_t j = 0; j < ids.size(); ++j) {
    groups[j % g].info.members.push_back(ids[j]);
  }
  for (size_t i = 0; i < g; ++i) {
    groups[i].pred = groups[(i + g - 1) % g].info;
    groups[i].succ = groups[(i + 1) % g].info;
  }
  for (size_t i = 0; i < g; ++i) {
    for (NodeId member : groups[i].info.members) {
      nodes_[member]->HostFoundingGroup(groups[i]);
    }
  }
}

NodeId Cluster::SpawnNode() {
  const NodeId id = next_node_id_++;
  nodes_[id] = std::make_unique<ScatterNode>(id, net_.get(), cfg_.scatter,
                                             SampleSeeds(5), DiskFor(id));
  nodes_[id]->StartJoin();
  return id;
}

void Cluster::CrashNode(NodeId id) {
  if (nodes_.erase(id) > 0) {
    if (auto it = disks_.find(id); it != disks_.end()) {
      // Fail-stop: whatever was appended since the last fsync barrier is
      // gone; everything behind it survives for RestartNode.
      it->second->Crash();
    }
  }
}

size_t Cluster::RestartNode(NodeId id) {
  SCATTER_CHECK(persist_);
  SCATTER_CHECK(nodes_.count(id) == 0);
  SCATTER_CHECK(id < next_node_id_);
  nodes_[id] = std::make_unique<ScatterNode>(id, net_.get(), cfg_.scatter,
                                             SampleSeeds(5), DiskFor(id));
  const size_t recovered = nodes_[id]->RecoverFromDisk();
  if (recovered == 0) {
    nodes_[id]->StartJoin();  // Nothing on disk: rejoin amnesiac.
  }
  return recovered;
}

void Cluster::WipeDisk(NodeId id) {
  SCATTER_CHECK(nodes_.count(id) == 0);
  disks_.erase(id);
}

storage::SimDisk* Cluster::disk(NodeId id) {
  auto it = disks_.find(id);
  return it == disks_.end() ? nullptr : it->second.get();
}

storage::SimDisk* Cluster::DiskFor(NodeId id) {
  if (!persist_) {
    return nullptr;
  }
  auto& slot = disks_[id];
  if (slot == nullptr) {
    slot = std::make_unique<storage::SimDisk>();
  }
  return slot.get();
}

ScatterNode* Cluster::node(NodeId id) {
  auto it = nodes_.find(id);
  return it == nodes_.end() ? nullptr : it->second.get();
}

std::vector<NodeId> Cluster::live_node_ids() const {
  std::vector<NodeId> out;
  out.reserve(nodes_.size());
  for (const auto& [id, n] : nodes_) {
    out.push_back(id);
  }
  return out;
}

std::vector<NodeId> Cluster::SampleSeeds(size_t count) const {
  // Prefer nodes that actually host a group — a fresh orphan knows nothing
  // and makes a useless seed.
  std::vector<NodeId> all;
  for (const auto& [id, node] : nodes_) {
    if (node->HostsAnyGroup()) {
      all.push_back(id);
    }
  }
  if (all.empty()) {
    all = live_node_ids();
  }
  if (all.size() <= count) {
    return all;
  }
  // Deterministic sample: evenly spaced over the (sorted) live set.
  std::vector<NodeId> out;
  for (size_t i = 0; i < count; ++i) {
    out.push_back(all[i * all.size() / count]);
  }
  return out;
}

Client* Cluster::AddClient() {
  auto client = std::make_unique<Client>(next_client_id_++, net_.get(),
                                         SampleSeeds(5), cfg_.client);
  client->SeedRing(AuthoritativeRing());
  clients_.push_back(std::move(client));
  return clients_.back().get();
}

void Cluster::RefreshSeeds() {
  std::vector<NodeId> seeds = SampleSeeds(5);
  for (auto& client : clients_) {
    client->SetSeeds(seeds);
  }
}

std::vector<ring::GroupInfo> Cluster::AuthoritativeRing() const {
  // Prefer the leader's view of each group; otherwise any member's.
  std::map<GroupId, ring::GroupInfo> best;
  std::map<GroupId, bool> from_leader;
  for (const auto& [id, node] : nodes_) {
    for (const ring::GroupInfo& info : node->ServingInfos()) {
      const bool is_leader = info.leader == id;
      auto it = best.find(info.id);
      if (it == best.end() || (is_leader && !from_leader[info.id]) ||
          (is_leader == from_leader[info.id] && info.epoch > it->second.epoch)) {
        best[info.id] = info;
        from_leader[info.id] = is_leader;
      }
    }
  }
  std::vector<ring::GroupInfo> out;
  out.reserve(best.size());
  for (auto& [gid, info] : best) {
    out.push_back(info);
  }
  return out;
}

}  // namespace scatter::core
