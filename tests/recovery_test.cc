// Crash-recovery integration tests: a 12-node persisted cluster whose
// crashed replicas restart from their own WAL + snapshots.
//
// The acceptance contract of the durability work, pinned here:
//   - a crashed + restarted replica rebuilds every group it hosts from its
//     own disk, with ZERO snapshot installs (no state transfer);
//   - persistence is behavior-neutral absent crashes: the same seeded run
//     is bit-identical (event-for-event) with the journal on or off;
//   - group commit batches fsyncs (fsyncs strictly below appends);
//   - a wiped disk degrades to the amnesiac rejoin path;
//   - a follower journals each Accept as one record (entries plus the
//     commit index it learned) and recovers exactly what it journaled,
//     with no wire memo on the commands it only received;
//   - the durability invariant checker catches post-recovery rewrites of
//     journaled state.

#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/invariant_auditor.h"
#include "src/common/hash.h"
#include "src/core/cluster.h"
#include "src/paxos/journal.h"
#include "src/paxos/payload_codec.h"
#include "src/paxos/replica.h"
#include "src/storage/wal.h"

namespace scatter::core {
namespace {

ClusterConfig PersistedConfig(uint64_t seed) {
  ClusterConfig cfg;
  cfg.seed = seed;
  cfg.initial_nodes = 12;
  cfg.initial_groups = 3;
  // Static layout: structural churn is exercised elsewhere; these tests
  // need stable groups so before/after comparisons are meaningful.
  cfg.scatter.policy.enable_split = false;
  cfg.scatter.policy.enable_merge = false;
  cfg.scatter.policy.enable_migration = false;
  cfg.scatter.policy.min_group_size = 1;
  cfg.scatter.policy.max_group_size = 64;
  cfg.persistence = ClusterConfig::Persistence::kOn;
  return cfg;
}

bool PutSync(Cluster& c, Client* client, const std::string& name,
             const Value& value, TimeMicros limit = Seconds(15)) {
  bool done = false;
  bool ok = false;
  client->Put(KeyFromString(name), value, [&](Status s) {
    done = true;
    ok = s.ok();
  });
  const TimeMicros deadline = c.sim().now() + limit;
  while (!done && c.sim().now() < deadline) {
    c.sim().RunFor(Millis(5));
  }
  return done && ok;
}

StatusOr<Value> GetSync(Cluster& c, Client* client, const std::string& name,
                        TimeMicros limit = Seconds(15)) {
  StatusOr<Value> out = UnavailableError("did not complete");
  bool done = false;
  client->Get(KeyFromString(name), [&](StatusOr<Value> result) {
    done = true;
    out = std::move(result);
  });
  const TimeMicros deadline = c.sim().now() + limit;
  while (!done && c.sim().now() < deadline) {
    c.sim().RunFor(Millis(5));
  }
  return out;
}

// First live node serving at least one group.
NodeId PickGroupHostingNode(Cluster& c) {
  for (NodeId id : c.live_node_ids()) {
    if (!c.node(id)->ServingGroups().empty()) {
      return id;
    }
  }
  return kInvalidNode;
}

// Sum of a counter's cells belonging to `node` (all groups).
uint64_t NodeCounterTotal(Cluster& c, const std::string& name, NodeId node) {
  uint64_t total = 0;
  c.sim().metrics().ForEachCounter(
      name, [&](NodeId n, GroupId, const Counter& counter) {
        if (n == node) {
          total += counter.value;
        }
      });
  return total;
}

// Puts `count` keys with every request in flight at once, so leaders batch
// several proposals into one Accept.
void PipelinedPuts(Cluster& c, Client* client, const std::string& prefix,
                   int count) {
  int completed = 0;
  for (int i = 0; i < count; ++i) {
    client->Put(KeyFromString(prefix + std::to_string(i)), "v",
                [&completed](Status s) {
                  ASSERT_TRUE(s.ok());
                  ++completed;
                });
  }
  const TimeMicros deadline = c.sim().now() + Seconds(30);
  while (completed < count && c.sim().now() < deadline) {
    c.sim().RunFor(Millis(5));
  }
  ASSERT_EQ(completed, count);
}

// A follower replica of some group (node, group) that never campaigned, so
// it never led; {kInvalidNode, kInvalidGroup} when there is none.
std::pair<NodeId, GroupId> PickNeverLedFollower(Cluster& c) {
  std::map<std::pair<NodeId, GroupId>, uint64_t> campaigns;
  c.sim().metrics().ForEachCounter(
      "paxos.elections_started",
      [&](NodeId n, GroupId g, const Counter& counter) {
        campaigns[{n, g}] += counter.value;
      });
  for (NodeId id : c.live_node_ids()) {
    for (const auto* sm : c.node(id)->ServingGroups()) {
      const paxos::Replica* replica = c.node(id)->GroupReplica(sm->id());
      if (replica != nullptr && !replica->is_leader() &&
          campaigns[{id, sm->id()}] == 0) {
        return {id, sm->id()};
      }
    }
  }
  return {kInvalidNode, kInvalidGroup};
}

// Digests of every entry of `log` above `base`, by index.
std::map<uint64_t, uint64_t> EntryDigests(const paxos::Log& log,
                                          uint64_t base) {
  std::map<uint64_t, uint64_t> out;
  for (uint64_t i = std::max(base + 1, log.first_index());
       i <= log.last_index(); ++i) {
    if (const paxos::LogEntry* e = log.At(i); e != nullptr) {
      out[i] = paxos::DigestLogEntry(*e);
    }
  }
  return out;
}

uint64_t CounterTotal(Cluster& c, const std::string& name) {
  uint64_t total = 0;
  c.sim().metrics().ForEachCounter(
      name, [&](NodeId, GroupId, const Counter& counter) {
        total += counter.value;
      });
  return total;
}

TEST(RecoveryTest, CrashedReplicaRecoversFromOwnDiskWithoutStateTransfer) {
  Cluster c(PersistedConfig(11));
  ASSERT_TRUE(c.persistence_enabled());
  c.RunFor(Seconds(3));
  Client* client = c.AddClient();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(PutSync(c, client, "rk" + std::to_string(i),
                        "v" + std::to_string(i)));
  }
  c.RunFor(Seconds(2));  // followers apply; journals flush

  const NodeId victim = PickGroupHostingNode(c);
  ASSERT_NE(victim, kInvalidNode);
  const size_t groups_before = c.node(victim)->ServingGroups().size();
  ASSERT_GT(groups_before, 0u);
  const uint64_t installs_before =
      NodeCounterTotal(c, "paxos.snapshots_installed", victim);

  c.CrashNode(victim);
  c.RunFor(Millis(500));
  const size_t recovered = c.RestartNode(victim);
  EXPECT_EQ(recovered, groups_before)
      << "restart must rebuild every group the node hosted a checkpoint for";

  // Every recovered replica carries its recovery floor, and the rebuild
  // consumed the local journal — not a state transfer from a peer.
  for (const auto* sm : c.node(victim)->ServingGroups()) {
    const paxos::Replica* replica = c.node(victim)->GroupReplica(sm->id());
    ASSERT_NE(replica, nullptr);
    EXPECT_TRUE(replica->recovery_floor().recovered);
  }
  EXPECT_GT(NodeCounterTotal(c, "recovery.wal_records", victim), 0u);

  c.RunFor(Seconds(10));  // catch up, re-elect, serve
  EXPECT_EQ(NodeCounterTotal(c, "paxos.snapshots_installed", victim),
            installs_before)
      << "recovery from local disk must not install peer snapshots";

  c.RefreshSeeds();
  for (int i = 0; i < 30; ++i) {
    const StatusOr<Value> got = GetSync(c, client, "rk" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "rk" << i << ": " << got.status().ToString();
    EXPECT_EQ(*got, "v" + std::to_string(i));
  }
}

TEST(RecoveryTest, GroupCommitBatchesFsyncs) {
  Cluster c(PersistedConfig(12));
  c.RunFor(Seconds(3));
  Client* client = c.AddClient();
  // Pipelined load: all puts in flight at once, so the leader journals
  // several accepts between outgoing flushes and one barrier covers them
  // (sequential one-at-a-time puts would degenerate to batch == 1).
  int completed = 0;
  for (int i = 0; i < 40; ++i) {
    client->Put(KeyFromString("bk" + std::to_string(i)), "v",
                [&completed](Status s) {
                  ASSERT_TRUE(s.ok());
                  ++completed;
                });
  }
  const TimeMicros deadline = c.sim().now() + Seconds(30);
  while (completed < 40 && c.sim().now() < deadline) {
    c.sim().RunFor(Millis(5));
  }
  ASSERT_EQ(completed, 40);
  c.RunFor(Seconds(1));

  const uint64_t appends = CounterTotal(c, "wal.appends");
  const uint64_t fsyncs = CounterTotal(c, "wal.fsyncs");
  ASSERT_GT(appends, 0u);
  ASSERT_GT(fsyncs, 0u);
  EXPECT_LT(fsyncs, appends)
      << "group commit must cover multiple appends per fsync barrier";
}

TEST(RecoveryTest, WipedDiskFallsBackToAmnesiacRejoin) {
  Cluster c(PersistedConfig(13));
  c.RunFor(Seconds(3));
  Client* client = c.AddClient();
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(PutSync(c, client, "wk" + std::to_string(i), "v"));
  }
  c.RunFor(Seconds(2));

  const NodeId victim = PickGroupHostingNode(c);
  ASSERT_NE(victim, kInvalidNode);
  c.CrashNode(victim);
  c.RunFor(Millis(500));
  c.WipeDisk(victim);
  const size_t recovered = c.RestartNode(victim);
  EXPECT_EQ(recovered, 0u) << "a wiped disk has nothing to recover from";

  // The cluster still serves everything (quorums survived the crash).
  c.RunFor(Seconds(10));
  c.RefreshSeeds();
  for (int i = 0; i < 10; ++i) {
    const StatusOr<Value> got = GetSync(c, client, "wk" + std::to_string(i));
    ASSERT_TRUE(got.ok()) << "wk" << i << ": " << got.status().ToString();
  }
}

// Persistence must be invisible absent crashes: the same seed, workload and
// transport produce the same simulation event-for-event whether every
// replica journals or none does.
TEST(RecoveryTest, PersistenceIsBehaviorNeutralAbsentCrashes) {
  uint64_t events[2] = {0, 0};
  std::string reads[2];
  for (int leg = 0; leg < 2; ++leg) {
    ClusterConfig cfg = PersistedConfig(21);
    cfg.persistence = leg == 0 ? ClusterConfig::Persistence::kOn
                               : ClusterConfig::Persistence::kOff;
    Cluster c(cfg);
    c.RunFor(Seconds(3));
    Client* client = c.AddClient();
    for (int i = 0; i < 20; ++i) {
      ASSERT_TRUE(PutSync(c, client, "dk" + std::to_string(i),
                          "v" + std::to_string(i)));
    }
    c.RunFor(Seconds(5));
    for (int i = 0; i < 20; ++i) {
      const StatusOr<Value> got = GetSync(c, client, "dk" + std::to_string(i));
      ASSERT_TRUE(got.ok());
      reads[leg] += *got + ";";
    }
    events[leg] = c.sim().events_processed();
  }
  EXPECT_EQ(events[0], events[1])
      << "journaling changed the event schedule of a crash-free run";
  EXPECT_EQ(reads[0], reads[1]);
}

// A follower journals each Accept as one record: the entries it appended
// plus the commit index it learned. Restarted from its disk, it recovers
// the same entries and a commit floor no lower than the highest commit
// index its durable records carry.
TEST(RecoveryTest, FollowerRecoversBatchRecordsWithFoldedCommit) {
  Cluster c(PersistedConfig(41));
  c.RunFor(Seconds(3));
  Client* client = c.AddClient();
  PipelinedPuts(c, client, "fk", 40);
  c.RunFor(Seconds(1));

  const auto [victim, group] = PickNeverLedFollower(c);
  ASSERT_NE(victim, kInvalidNode);
  const paxos::Replica* before = c.node(victim)->GroupReplica(group);
  const paxos::Log log_before = before->log();
  c.CrashNode(victim);

  // What survived the crash: the checkpoint's commit point, then every
  // accept record in the durable WAL.
  const storage::SimDisk& disk = *c.disk(victim);
  storage::WalRecord snap;
  ASSERT_TRUE(storage::ReadSnapshotFile(disk, paxos::SnapFileName(group),
                                        &snap));
  paxos::CheckpointHeader header;
  wire::Reader snap_in(snap.payload.data(), snap.payload.size());
  snap_in(header);
  ASSERT_TRUE(snap_in.ok());
  uint64_t journaled_commit = header.commit_index;
  size_t folded_batches = 0;
  for (const storage::WalRecord& record :
       storage::ReadWal(disk, paxos::WalFileName(group)).records) {
    if (record.type !=
        static_cast<uint16_t>(paxos::JournalRecordType::kAccept)) {
      continue;
    }
    paxos::AcceptRecord<std::vector<paxos::LogEntry>> accept;
    wire::Reader in(record.payload.data(), record.payload.size());
    in(accept);
    ASSERT_TRUE(in.ok());
    journaled_commit = std::max(journaled_commit, accept.commit_index);
    if (accept.entries.size() > 1 && accept.commit_index > 0) {
      ++folded_batches;
    }
  }
  EXPECT_GT(folded_batches, 0u)
      << "pipelined puts must leave multi-entry records with a commit index";

  ASSERT_GT(c.RestartNode(victim), 0u);
  const paxos::Replica* after = c.node(victim)->GroupReplica(group);
  ASSERT_NE(after, nullptr);
  EXPECT_GE(after->recovery_floor().commit_index, journaled_commit);
  EXPECT_GE(after->commit_index(), journaled_commit);
  // Every entry an acknowledged Accept appended was synced before the ack,
  // so the rebuilt log holds exactly the pre-crash entries above the base.
  const uint64_t base = after->log().first_index() - 1;
  EXPECT_EQ(EntryDigests(after->log(), base), EntryDigests(log_before, base));
}

// On the serializing transport a follower holds decoded copies of the
// commands it accepts. Journaling them fills no wire memo (only sending
// does), and a follower that never led recovers those entries from its
// disk all the same.
TEST(RecoveryTest, NeverLedFollowerJournalsAndRecoversWithoutWireMemos) {
  ClusterConfig cfg = PersistedConfig(42);
  cfg.transport = sim::TransportKind::kSerializing;
  Cluster c(cfg);
  c.RunFor(Seconds(3));
  Client* client = c.AddClient();
  PipelinedPuts(c, client, "mk", 40);
  c.RunFor(Seconds(1));

  const auto [victim, group] = PickNeverLedFollower(c);
  ASSERT_NE(victim, kInvalidNode);
  const paxos::Replica* before = c.node(victim)->GroupReplica(group);
  const paxos::Log& log = before->log();
  size_t app_commands = 0;
  for (uint64_t i = log.first_index(); i <= log.last_index(); ++i) {
    const paxos::LogEntry* e = log.At(i);
    ASSERT_NE(e, nullptr);
    ASSERT_NE(e->command, nullptr);
    EXPECT_EQ(e->command->wire_memo, nullptr) << "slot " << i;
    app_commands += e->command->kind == paxos::Command::Kind::kApp ? 1 : 0;
  }
  ASSERT_GT(app_commands, 0u);
  const std::map<uint64_t, uint64_t> digests = EntryDigests(log, 0);

  c.CrashNode(victim);
  ASSERT_GT(c.RestartNode(victim), 0u);
  const paxos::Replica* after = c.node(victim)->GroupReplica(group);
  ASSERT_NE(after, nullptr);
  ASSERT_TRUE(after->recovery_floor().recovered);
  const uint64_t base = after->log().first_index() - 1;
  std::map<uint64_t, uint64_t> expected;
  for (const auto& [index, digest] : digests) {
    if (index > base) {
      expected[index] = digest;
    }
  }
  EXPECT_FALSE(expected.empty());
  EXPECT_EQ(EntryDigests(after->log(), base), expected);
}

// The durability checker (analysis layer) must catch a replica whose
// journaled state regresses after recovery.
TEST(RecoveryTest, AuditorDetectsPostRecoveryLogRewrite) {
  Cluster c(PersistedConfig(31));
  c.RunFor(Seconds(3));
  Client* client = c.AddClient();
  for (int i = 0; i < 30; ++i) {
    ASSERT_TRUE(PutSync(c, client, "ak" + std::to_string(i), "v"));
  }
  c.RunFor(Seconds(2));

  const NodeId victim = PickGroupHostingNode(c);
  ASSERT_NE(victim, kInvalidNode);
  c.CrashNode(victim);
  c.RunFor(Millis(500));
  ASSERT_GT(c.RestartNode(victim), 0u);

  // Find a recovered replica holding a digest-protected slot and rewrite it.
  paxos::Replica* mutated = nullptr;
  for (const auto* sm : c.node(victim)->ServingGroups()) {
    paxos::Replica* replica =
        c.node(victim)->MutableGroupReplicaForTest(sm->id());
    ASSERT_NE(replica, nullptr);
    const auto& floor = replica->recovery_floor();
    ASSERT_TRUE(floor.recovered);
    for (const auto& [index, digest] : floor.entry_digests) {
      if (replica->log().At(index) != nullptr) {
        replica->CorruptCommittedEntryForTest(index);
        mutated = replica;
        break;
      }
    }
    if (mutated != nullptr) {
      break;
    }
  }
  ASSERT_NE(mutated, nullptr) << "no digest-protected slot found to corrupt";

  analysis::AuditorOptions opts;
  opts.abort_on_violation = false;
  analysis::InvariantAuditor auditor(&c, opts);
  auditor.RunOnce();
  bool durability_violation = false;
  for (const analysis::Violation& v : auditor.violations()) {
    if (v.checker == "durability") {
      durability_violation = true;
    }
  }
  EXPECT_TRUE(durability_violation)
      << "post-recovery rewrite of a journaled slot went undetected";
}

}  // namespace
}  // namespace scatter::core
