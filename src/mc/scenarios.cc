// The scenario registry: small clusters with compressed protocol timeouts,
// each exposing one interesting decision surface.
//
//   split           — two groups, concurrent client writes racing a manual
//                     split. Clean under correct code; the CI mc stage
//                     walks it and expects no violation.
//   stale_ballot    — one 3-replica group; the explorer may isolate the
//                     leader with in-flight Accepts captured, force an
//                     election on the majority side, heal, and land the
//                     stale Accept after the new promise. Detects the
//                     bug_accept_stale_ballot mutation (divergent commits /
//                     a lost acknowledged write).
//   lost_merge      — two groups, keys seeded into the successor; a merge
//                     whose first TxnPrepare the explorer withholds past
//                     the resend interval. Detects the
//                     bug_drop_resent_prepare_payload mutation (merge
//                     commits without the participant's keys).
//   bootstrap_wedge — one 3-replica group with a crash and a spawn budget;
//                     crashing a member before the joiner's add-member
//                     config change commits exercises bare-quorum
//                     bootstrap. Detects bug_skip_bootstrap_joiner (the
//                     group wedges; the liveness probe write fails).
//   crash_disk      — one 3-replica persistent group; the explorer may
//                     crash any member at any captured point and later
//                     restart it. The goal requires every restarted node to
//                     recover its replica from its own WAL + snapshot with
//                     zero full-state transfers, and the group to stay
//                     writable. Detects bug_skip_wal_replay (the restarted
//                     replica's commit point falls below its disk's: the
//                     durability auditor property), and, as
//                     crash_disk+first_batch_entry_only,
//                     bug_replay_first_batch_entry_only (replay keeps one
//                     entry of each accept record; same property).
//   crash_amnesia   — same surface, but a restart wipes the disk first.
//                     The contrast leg: the revived node cannot recover
//                     locally and re-enters only through a join + bootstrap
//                     state transfer (the goal asserts exactly that), which
//                     is what durable WAL recovery saves.
//   batched_read    — two groups; node X leads A and follows B. After a
//                     write to b in B completes, a client whose cache names
//                     X as B's leader sends Get(a) and Get(b) to X in one
//                     request. Detects bug_batch_checks_first_key_only (X
//                     serves b from its follower replica, which the
//                     explorer can hold behind the write: a stale read).
//
// "<name>+mutation" variants enable the matching seeded bug flag
// (src/paxos/config.h, src/txn/group_op_driver.h, src/core/config.h);
// crash_disk+first_batch_entry_only enables its second one.

#include "src/mc/scenario.h"

#include "src/common/logging.h"
#include "src/mc/harness.h"

namespace scatter::mc {

namespace {

// Shared base: tiny cluster, constant 1 ms latency (capture ignores
// latency; the random baseline keeps it), all self-organization policies
// off so the scenario's own operations are the only structural traffic,
// and background chatter (gossip, RTT probes) disabled to keep the
// decision alphabet small.
core::ClusterConfig BaseConfig(size_t nodes, size_t groups) {
  core::ClusterConfig c;
  c.initial_nodes = nodes;
  c.initial_groups = groups;
  c.network.latency = sim::LatencyModel{};  // constant 1 ms
  core::ScatterConfig& s = c.scatter;
  s.policy.enable_split = false;
  s.policy.enable_merge = false;
  s.policy.enable_migration = false;
  s.policy.enable_repartition = false;
  s.policy.gossip_interval = 0;
  s.policy.policy_interval = Seconds(30);
  s.policy.neighbor_refresh_interval = Seconds(30);
  s.policy.orphan_rejoin_delay = Seconds(30);
  s.paxos.peer_probe_interval = 0;
  // Failure detection never races the scenarios' windows.
  s.paxos.member_fail_timeout = Seconds(100);
  return c;
}

McScenario MakeSplit() {
  McScenario sc;
  sc.name = "split";
  sc.cluster = BaseConfig(/*nodes=*/6, /*groups=*/2);
  sc.on_start = [](McHarness& h) {
    h.ClientPut(h.KeyInGroup(0), "a");
    h.ClientPut(h.KeyInGroup(1), "b");
    h.RequestSplit(h.GroupIdAt(0));
  };
  return sc;
}

McScenario MakeStaleBallot() {
  McScenario sc;
  sc.name = "stale_ballot";
  sc.cluster = BaseConfig(/*nodes=*/3, /*groups=*/1);
  paxos::PaxosConfig& p = sc.cluster.scatter.paxos;
  // Compressed failover: the leader-isolation window the explorer must hit
  // spans one election timeout, a handful of advance_time decisions.
  p.heartbeat_interval = Millis(50);
  p.election_timeout_min = Millis(60);
  p.election_timeout_max = Millis(80);
  p.lease_duration = Millis(60);
  // No timer retransmits the in-flight Accept: a copy goes out only after
  // a heartbeat's empty probe reaches a follower and draws a need_from
  // nack (PROTOCOL.md §Pipelining), and the explorer schedules both.
  sc.setup_run = Seconds(1);
  sc.on_start = [](McHarness& h) { h.ClientPut(h.KeyInGroup(0), "w"); };
  sc.partition_islands = [](McHarness& h) {
    // Isolate the group's current leader; everyone else — including the
    // client — stays on the majority side.
    NodeId leader = kInvalidNode;
    const GroupId group = h.GroupIdAt(0);
    for (NodeId id : h.cluster().live_node_ids()) {
      const paxos::Replica* r = h.cluster().node(id)->GroupReplica(group);
      if (r != nullptr && r->is_leader()) {
        leader = id;
        break;
      }
    }
    SCATTER_CHECK(leader != kInvalidNode);
    std::vector<NodeId> majority;
    for (NodeId id : h.cluster().live_node_ids()) {
      if (id != leader) {
        majority.push_back(id);
      }
    }
    majority.push_back(h.client_id());
    return std::vector<std::vector<NodeId>>{{leader}, majority};
  };
  // The random walk weighs advance_time against deliveries with the fixed
  // weights of every scenario (advance 1.5, deliver 1.0 per message).
  return sc;
}

McScenario MakeLostMerge() {
  McScenario sc;
  sc.name = "lost_merge";
  sc.cluster = BaseConfig(/*nodes=*/6, /*groups=*/2);
  // The withhold window the explorer must cross is one resend interval;
  // keep it a few advance_time decisions wide, and keep heartbeats mostly
  // out of it.
  sc.cluster.scatter.txn.resend_interval = Millis(20);
  sc.cluster.scatter.paxos.heartbeat_interval = Millis(100);
  sc.setup = [](McHarness& h) {
    // Keys the merge participant (the successor group) must carry over.
    h.ClientPut(h.KeyInGroup(1), "m1");
    h.ClientPut(h.KeyInGroup(1) + 1, "m2");
    h.cluster().RunFor(Millis(300));
  };
  sc.on_start = [](McHarness& h) {
    SCATTER_CHECK(h.RequestMerge(h.GroupIdAt(0)));
  };
  return sc;
}

McScenario MakeBootstrapWedge() {
  McScenario sc;
  sc.name = "bootstrap_wedge";
  sc.cluster = BaseConfig(/*nodes=*/3, /*groups=*/1);
  sc.crash_budget = 1;
  sc.spawn_budget = 1;
  sc.crash_candidates = [](McHarness& h) {
    return h.cluster().live_node_ids();
  };
  // Liveness: after the fair epilogue the (possibly re-membered) group
  // must still accept writes. The probe window must absorb worst-case
  // client routing after a leader crash — the cached leader costs a full
  // rpc_timeout per attempt and the hint is retried twice before the
  // client rotates — so give it the client's whole op deadline.
  sc.probe_run = Seconds(8);
  sc.goal = [](McHarness& h) { return h.ProbeWrite(h.KeyInGroup(0)); };
  return sc;
}

// Shared body of the two durability scenarios: a persistent 3-replica
// group, one crash and one restart decision, writes in flight.
McScenario MakeCrashRestartBase() {
  McScenario sc;
  sc.cluster = BaseConfig(/*nodes=*/3, /*groups=*/1);
  sc.cluster.persistence = core::ClusterConfig::Persistence::kOn;
  sc.crash_budget = 1;
  sc.restart_budget = 1;
  sc.crash_candidates = [](McHarness& h) {
    return h.cluster().live_node_ids();
  };
  sc.setup = [](McHarness& h) {
    // Durable state worth recovering: committed writes before control
    // starts. One follower misses their Accepts and catches up through one
    // resent batch, so its WAL holds a multi-entry accept record too.
    const NodeId leader = h.LeaderOf(h.GroupIdAt(0));
    NodeId lagging = kInvalidNode;
    for (NodeId id : h.cluster().live_node_ids()) {
      if (id != leader) {
        lagging = id;
        break;
      }
    }
    h.cluster().net().BlockLink(leader, lagging);
    h.ClientPut(h.KeyInGroup(0), "pre1");
    h.ClientPut(h.KeyInGroup(0) + 1, "pre2");
    h.cluster().RunFor(Millis(20));
    h.cluster().net().UnblockLink(leader, lagging);
    h.cluster().RunFor(Millis(300));
  };
  sc.on_start = [](McHarness& h) { h.ClientPut(h.KeyInGroup(0), "w"); };
  // Same worst-case routing allowance as bootstrap_wedge.
  sc.probe_run = Seconds(8);
  return sc;
}

McScenario MakeCrashDisk() {
  McScenario sc = MakeCrashRestartBase();
  sc.name = "crash_disk";
  sc.goal = [](McHarness& h) {
    // Every node restarted during the schedule must have come back from its
    // own disk: replica present, recovery floor set, and not one snapshot
    // installed (counters are cumulative per (node, group), and a founding
    // member installs none before the crash).
    for (const Choice& c : h.executed()) {
      if (c.kind != ChoiceKind::kRestart) {
        continue;
      }
      const core::ScatterNode* node = h.cluster().node(c.arg);
      if (node == nullptr) {
        return false;
      }
      const paxos::Replica* r = node->GroupReplica(h.GroupIdAt(0));
      if (r == nullptr || !r->recovery_floor().recovered ||
          r->stats().snapshots_installed != 0) {
        return false;
      }
    }
    return h.ProbeWrite(h.KeyInGroup(0));
  };
  return sc;
}

McScenario MakeCrashAmnesia() {
  McScenario sc = MakeCrashRestartBase();
  sc.name = "crash_amnesia";
  sc.restart_amnesiac = true;
  sc.goal = [](McHarness& h) {
    // An amnesiac revival must NOT claim recovery: with its disk wiped the
    // node can only re-enter through the join protocol, receiving a full
    // state transfer.
    for (const Choice& c : h.executed()) {
      if (c.kind != ChoiceKind::kRestart) {
        continue;
      }
      const core::ScatterNode* node = h.cluster().node(c.arg);
      if (node == nullptr) {
        continue;  // Never made it back in; liveness probed below.
      }
      const paxos::Replica* r = node->GroupReplica(h.GroupIdAt(0));
      if (r != nullptr && r->recovery_floor().recovered) {
        return false;
      }
    }
    return h.ProbeWrite(h.KeyInGroup(0));
  };
  return sc;
}

McScenario MakeBatchedRead() {
  McScenario sc;
  sc.name = "batched_read";
  // Members round-robin: A = {1, 3, 5}, B = {2, 4}.
  sc.cluster = BaseConfig(/*nodes=*/5, /*groups=*/2);
  sc.setup = [](McHarness& h) {
    // A's leader X joins B through the migration path. A leader never
    // leaves its old group, so X goes on leading A and follows B, whose
    // writes then commit on {2, 4} without it.
    const NodeId x = h.LeaderOf(h.GroupIdAt(0));
    SCATTER_CHECK(x != kInvalidNode);
    ring::GroupInfo b;
    for (const ring::GroupInfo& info : h.cluster().AuthoritativeRing()) {
      if (info.id == h.GroupIdAt(1)) {
        b = info;
      }
    }
    auto directive = std::make_shared<core::MigrateDirectiveMsg>();
    directive->target_group = b;
    directive->from = x;
    directive->to = x;
    h.cluster().net().Send(std::move(directive));
    h.cluster().RunFor(Seconds(1));
    const paxos::Replica* r = h.cluster().node(x)->GroupReplica(b.id);
    SCATTER_CHECK(r != nullptr && r->has_started() && !r->is_leader());
    SCATTER_CHECK(h.LeaderOf(h.GroupIdAt(0)) == x);
  };
  sc.on_start = [](McHarness& h) {
    // The reader's cache names X as the leader of both groups, so its
    // Gets of a and b share one request to X.
    const NodeId x = h.LeaderOf(h.GroupIdAt(0));
    std::vector<ring::GroupInfo> ring = h.cluster().AuthoritativeRing();
    for (ring::GroupInfo& info : ring) {
      info.leader = x;
    }
    core::Client* reader = h.AddClient(ring);
    h.ClientPut(h.KeyInGroup(1), "b", [&h, reader] {
      // One event strictly after the write completed, so the reads must
      // observe it.
      h.cluster().sim().Schedule(1, [&h, reader] {
        h.ClientGet(reader, h.KeyInGroup(0));
        h.ClientGet(reader, h.KeyInGroup(1));
      });
    });
  };
  return sc;
}

}  // namespace

McScenario MakeScenario(const std::string& name) {
  std::string base = name;
  std::string mutation;
  const size_t plus = name.find('+');
  if (plus != std::string::npos) {
    base = name.substr(0, plus);
    mutation = name.substr(plus + 1);
  }

  McScenario sc;
  if (base == "split") {
    sc = MakeSplit();
  } else if (base == "stale_ballot") {
    sc = MakeStaleBallot();
  } else if (base == "lost_merge") {
    sc = MakeLostMerge();
  } else if (base == "bootstrap_wedge") {
    sc = MakeBootstrapWedge();
  } else if (base == "crash_disk") {
    sc = MakeCrashDisk();
  } else if (base == "crash_amnesia") {
    sc = MakeCrashAmnesia();
  } else if (base == "batched_read") {
    sc = MakeBatchedRead();
  } else {
    SCATTER_CHECK(false && "unknown mc scenario");
  }

  if (!mutation.empty()) {
    sc.name = name;
    if (mutation == "mutation") {
      // Each scenario has one matching seeded bug.
      if (base == "stale_ballot") {
        sc.cluster.scatter.paxos.bug_accept_stale_ballot = true;
      } else if (base == "lost_merge") {
        sc.cluster.scatter.txn.bug_drop_resent_prepare_payload = true;
      } else if (base == "bootstrap_wedge") {
        sc.cluster.scatter.paxos.bug_skip_bootstrap_joiner = true;
      } else if (base == "batched_read") {
        sc.cluster.scatter.bug_batch_checks_first_key_only = true;
      } else if (base == "crash_disk") {
        sc.cluster.scatter.paxos.bug_skip_wal_replay = true;
      } else {
        SCATTER_CHECK(false && "scenario has no mutation variant");
      }
    } else if (mutation == "first_batch_entry_only" && base == "crash_disk") {
      // crash_disk's second seeded bug, in WAL replay itself.
      sc.cluster.scatter.paxos.bug_replay_first_batch_entry_only = true;
    } else {
      SCATTER_CHECK(false && "unknown scenario mutation");
    }
  }
  return sc;
}

std::vector<std::string> ScenarioNames() {
  return {"split",
          "stale_ballot",
          "stale_ballot+mutation",
          "lost_merge",
          "lost_merge+mutation",
          "bootstrap_wedge",
          "bootstrap_wedge+mutation",
          "crash_disk",
          "crash_disk+mutation",
          "crash_disk+first_batch_entry_only",
          "crash_amnesia",
          "batched_read",
          "batched_read+mutation"};
}

}  // namespace scatter::mc
