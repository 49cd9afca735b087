// ChordCluster: bootstraps and owns a baseline DHT deployment — the
// counterpart of core::Cluster, exposing the same churn hooks and KvClient
// factories so the comparison experiments run both systems through one
// harness.

#ifndef SCATTER_SRC_BASELINE_CHORD_CLUSTER_H_
#define SCATTER_SRC_BASELINE_CHORD_CLUSTER_H_

#include <map>
#include <memory>
#include <vector>

#include "src/baseline/chord_client.h"
#include "src/baseline/chord_node.h"
#include "src/churn/churn.h"
#include "src/common/types.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/sim/transport.h"

namespace scatter::baseline {

struct ChordClusterConfig {
  uint64_t seed = 1;
  size_t initial_nodes = 20;
  sim::NetworkConfig network{.latency = sim::LatencyModel::Lan()};
  // Which transport implementation carries the cluster's traffic. kDefault
  // honors the SCATTER_TRANSPORT environment variable.
  sim::TransportKind transport = sim::TransportKind::kDefault;
};

class ChordCluster {
 public:
  explicit ChordCluster(const ChordClusterConfig& config);

  sim::Simulator& sim() { return sim_; }
  // Concrete network reference for fault injection, whichever transport
  // implementation is active.
  sim::Network& net() { return *net_; }

  NodeId SpawnNode();
  void CrashNode(NodeId id);
  ChordNode* node(NodeId id);
  std::vector<NodeId> live_node_ids() const;

  ChordClient* AddClient();
  void RefreshSeeds();

  churn::ChurnHooks ChurnHooksFor() {
    return churn::ChurnHooks{
        .live_nodes = [this]() { return live_node_ids(); },
        .crash = [this](NodeId id) { CrashNode(id); },
        .spawn = [this]() { return SpawnNode(); },
        .refresh_seeds = [this]() { RefreshSeeds(); },
    };
  }

  void RunFor(TimeMicros duration) { sim_.RunFor(duration); }

 private:
  std::vector<NodeId> SampleSeeds(size_t count) const;

  ChordClusterConfig cfg_;
  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  std::map<NodeId, std::unique_ptr<ChordNode>> nodes_;
  std::vector<std::unique_ptr<ChordClient>> clients_;
  NodeId next_node_id_ = 1;
  NodeId next_client_id_ = 1000000000;
};

}  // namespace scatter::baseline

#endif  // SCATTER_SRC_BASELINE_CHORD_CLUSTER_H_
