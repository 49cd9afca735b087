// Cluster: owns a simulator, network, nodes and clients, and bootstraps an
// initial ring of groups. This is the entry point tests, benchmarks and
// examples use; the churn driver manipulates node lifetimes through it.

#ifndef SCATTER_SRC_CORE_CLUSTER_H_
#define SCATTER_SRC_CORE_CLUSTER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/common/types.h"
#include "src/core/client.h"
#include "src/core/config.h"
#include "src/core/scatter_node.h"
#include "src/ring/group_info.h"
#include "src/churn/churn.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/sim/transport.h"
#include "src/storage/sim_disk.h"

namespace scatter::core {

struct ClusterConfig {
  uint64_t seed = 1;
  // Bootstrap layout: initial_nodes spread round-robin over initial_groups
  // whose ranges evenly tile the ring.
  size_t initial_nodes = 20;
  size_t initial_groups = 4;
  ScatterConfig scatter;
  sim::NetworkConfig network{.latency = sim::LatencyModel::Lan()};
  ClientConfig client;
  // Which transport implementation carries the cluster's traffic. kDefault
  // honors the SCATTER_TRANSPORT environment variable.
  sim::TransportKind transport = sim::TransportKind::kDefault;
  // Durable storage. With persistence on, every node gets a SimDisk that
  // survives CrashNode, replicas journal through it, and RestartNode brings
  // a crashed node back from its own WAL + snapshots. kDefault honors the
  // SCATTER_PERSIST environment variable (unset = off).
  enum class Persistence { kDefault, kOn, kOff };
  Persistence persistence = Persistence::kDefault;
  // Cluster health monitoring (obs::HealthMonitor on the simulator's
  // monitor tick). Off by default: monitoring reads registry cells only,
  // but tests opt in explicitly so clean-run quietness is an assertion,
  // not an accident.
  bool enable_health_monitor = false;
  // Periodic scatter.timeline.v1 snapshots (implies nothing about tracing;
  // the timeline reads the registry). Enabling the timeline also enables
  // the health monitor when enable_health_monitor is set.
  bool enable_timeline = false;
};

class Cluster {
 public:
  explicit Cluster(const ClusterConfig& config);

  sim::Simulator& sim() { return sim_; }
  // Concrete network reference: tests reach the fault-injection surface
  // (loss, partitions, blocked links) through this, whichever transport
  // implementation is active.
  sim::Network& net() { return *net_; }
  const ClusterConfig& config() const { return cfg_; }

  // --- Node lifecycle ------------------------------------------------------
  // Starts a fresh node that joins through live seeds. Returns its id.
  NodeId SpawnNode();
  // Fail-stop: the node vanishes (volatile state lost, id never reused by
  // SpawnNode). With persistence on its disk survives — minus any bytes
  // appended since the last fsync barrier — and RestartNode can revive it.
  void CrashNode(NodeId id);
  // Brings a crashed node back on its preserved disk. The node recovers
  // every group it holds a checkpoint for (local WAL replay, no state
  // transfer) and falls back to a fresh join when the disk yields nothing.
  // Returns the number of groups recovered. The node must be dead and
  // persistence on.
  size_t RestartNode(NodeId id);
  // Discards a crashed node's disk: a subsequent RestartNode rejoins
  // amnesiac (the crash-amnesia leg of the durability tests).
  void WipeDisk(NodeId id);

  bool persistence_enabled() const { return persist_; }
  // The node's durable storage (null when diskless or never spawned). Valid
  // across crash/restart.
  storage::SimDisk* disk(NodeId id);

  ScatterNode* node(NodeId id);
  std::vector<NodeId> live_node_ids() const;
  size_t live_node_count() const { return nodes_.size(); }

  // --- Clients --------------------------------------------------------------
  Client* AddClient();
  const std::vector<std::unique_ptr<Client>>& clients() const {
    return clients_;
  }
  // Re-points all clients (and future spawns) at currently-live seed nodes.
  void RefreshSeeds();

  // --- God's-eye helpers (verification / bootstrap only) --------------------
  // Authoritative ring layout: every serving group as advertised by its
  // current leader (falls back to any member if leaderless).
  std::vector<ring::GroupInfo> AuthoritativeRing() const;

  void RunFor(TimeMicros duration) { sim_.RunFor(duration); }

  // Adapter for the churn driver.
  churn::ChurnHooks ChurnHooksFor() {
    return churn::ChurnHooks{
        .live_nodes = [this]() { return live_node_ids(); },
        .crash = [this](NodeId id) { CrashNode(id); },
        .spawn = [this]() { return SpawnNode(); },
        .refresh_seeds = [this]() { RefreshSeeds(); },
    };
  }

 private:
  std::vector<NodeId> SampleSeeds(size_t count) const;
  // The node's disk, created on first use (null when persistence is off).
  storage::SimDisk* DiskFor(NodeId id);

  ClusterConfig cfg_;
  bool persist_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  std::map<NodeId, std::unique_ptr<ScatterNode>> nodes_;
  // Survives CrashNode: crash-with-disk keeps the entry, WipeDisk drops it.
  std::map<NodeId, std::unique_ptr<storage::SimDisk>> disks_;
  std::vector<std::unique_ptr<Client>> clients_;
  NodeId next_node_id_ = 1;
  NodeId next_client_id_ = 1000000000;  // clients live in their own id space
};

}  // namespace scatter::core

#endif  // SCATTER_SRC_CORE_CLUSTER_H_
