// Configuration of a Scatter node: consensus timings, transaction timings,
// and the self-organization policies.

#ifndef SCATTER_SRC_CORE_CONFIG_H_
#define SCATTER_SRC_CORE_CONFIG_H_

#include "src/common/types.h"
#include "src/paxos/config.h"
#include "src/txn/group_op_driver.h"

namespace scatter::core {

struct PolicyConfig {
  // Desired replication factor. Joins steer toward the smallest group;
  // splits aim to leave both children near this size.
  size_t target_group_size = 5;

  // A group larger than this splits.
  size_t max_group_size = 9;

  // A group smaller than this tries to attract a migrated member from a
  // larger neighbor, or merges with its successor.
  size_t min_group_size = 3;

  // Cadence of the per-group policy evaluation on leaders.
  TimeMicros policy_interval = Seconds(2);

  // Cadence of neighbor-link refresh lookups.
  TimeMicros neighbor_refresh_interval = Seconds(5);

  bool enable_split = true;
  bool enable_merge = true;
  bool enable_migration = true;

  // Key-count load balancing between ring neighbors (repartition).
  bool enable_repartition = false;
  // Shed keys to a neighbor when self holds more than this factor times the
  // neighbor's count.
  double repartition_imbalance = 3.0;
  // Never repartition below this many local keys (noise floor).
  size_t repartition_min_keys = 64;
  // Rate-based balancing kicks in above this many ops/s on the group;
  // below it, key counts drive the decision.
  double repartition_min_rate = 50.0;

  // Split at the median stored key (equalizing data) instead of the range
  // midpoint (equalizing key-space).
  bool load_aware_split = false;

  // Latency-aware leader placement: a leader that observes one member with
  // markedly lower RTT than the group average hands leadership to it
  // (leases are surrendered during the handover, so reads stay
  // linearizable). Converges toward the fastest / most central member
  // leading each group on heterogeneous networks.
  bool latency_aware_leader = false;
  // Minimum tenure before (re)transferring, for stability.
  TimeMicros leader_transfer_cooldown = Seconds(20);

  // Ring gossip: every interval, each node sends a sample of its routing
  // knowledge to one random acquaintance. Zero disables.
  TimeMicros gossip_interval = Seconds(3);

  // A node hosting no groups for this long re-runs the join protocol.
  TimeMicros orphan_rejoin_delay = Seconds(8);
};

struct ScatterConfig {
  paxos::PaxosConfig paxos;
  txn::TxnConfig txn;
  PolicyConfig policy;
};

}  // namespace scatter::core

#endif  // SCATTER_SRC_CORE_CONFIG_H_
