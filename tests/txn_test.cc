// Tests for nested consensus: the cross-group transaction protocol driving
// merges and repartitions, exercised through full Scatter clusters with
// crash injection at every protocol phase.
//
// The durable protocol state lives in each group's Paxos log (CoordStart /
// Prepare / CoordDecide / Decide records); the drivers are volatile. These
// tests kill coordinator and participant leaders at each phase and assert
// the system always converges to a consistent outcome: the ring remains a
// disjoint cover, no data is lost, and no transaction half-applies.

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/invariant_auditor.h"
#include "src/common/hash.h"
#include "src/core/cluster.h"
#include "src/verify/ring_checker.h"

namespace scatter::core {
namespace {

// A 2-group cluster with policies disabled: all structural ops are
// triggered explicitly.
ClusterConfig StaticTwoGroups(uint64_t seed) {
  ClusterConfig cfg;
  cfg.seed = seed;
  cfg.initial_nodes = 10;
  cfg.initial_groups = 2;
  cfg.scatter.policy.enable_split = false;
  cfg.scatter.policy.enable_merge = false;
  cfg.scatter.policy.enable_migration = false;
  cfg.scatter.policy.min_group_size = 1;
  cfg.scatter.policy.max_group_size = 64;
  return cfg;
}

// Writes `n` keys spread over the ring and returns their names.
std::vector<std::string> Populate(Cluster& c, Client* client, int n) {
  std::vector<std::string> names;
  for (int i = 0; i < n; ++i) {
    names.push_back("txnkey" + std::to_string(i));
    bool done = false;
    client->Put(KeyFromString(names.back()), "v" + std::to_string(i),
                [&](Status s) { done = s.ok(); });
    while (!done) {
      c.sim().RunFor(Millis(2));
    }
  }
  return names;
}

// All keys readable with the expected values.
::testing::AssertionResult AllReadable(
    Cluster& c, Client* client, const std::vector<std::string>& names) {
  for (size_t i = 0; i < names.size(); ++i) {
    StatusOr<Value> got = UnavailableError("pending");
    bool done = false;
    client->Get(KeyFromString(names[i]), [&](StatusOr<Value> r) {
      done = true;
      got = std::move(r);
    });
    const TimeMicros deadline = c.sim().now() + Seconds(20);
    while (!done && c.sim().now() < deadline) {
      c.sim().RunFor(Millis(2));
    }
    if (!done || !got.ok()) {
      return ::testing::AssertionFailure()
             << names[i] << ": "
             << (done ? got.status().ToString() : "no reply");
    }
    if (*got != "v" + std::to_string(i)) {
      return ::testing::AssertionFailure()
             << names[i] << ": wrong value " << *got;
    }
  }
  return ::testing::AssertionSuccess();
}

// Leader node of the group whose range begins at 0 (the bootstrap
// "first" group — always the coordinator in these tests since merges go
// toward the clockwise successor).
std::pair<ScatterNode*, GroupId> CoordinatorLeader(Cluster& c) {
  for (NodeId id : c.live_node_ids()) {
    ScatterNode* node = c.node(id);
    for (const ring::GroupInfo& info : node->ServingInfos()) {
      if (info.leader == id && info.range.begin == 0) {
        return {node, info.id};
      }
    }
  }
  return {nullptr, kInvalidGroup};
}

std::pair<ScatterNode*, GroupId> ParticipantLeader(Cluster& c) {
  for (NodeId id : c.live_node_ids()) {
    ScatterNode* node = c.node(id);
    for (const ring::GroupInfo& info : node->ServingInfos()) {
      if (info.leader == id && info.range.begin != 0) {
        return {node, info.id};
      }
    }
  }
  return {nullptr, kInvalidGroup};
}

size_t ServingGroupCount(Cluster& c) {
  return c.AuthoritativeRing().size();
}

TEST(TxnMergeTest, CleanMergePreservesEverything) {
  Cluster c(StaticTwoGroups(1));
  analysis::InvariantAuditor audit(&c);
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  auto names = Populate(c, client, 20);

  auto [leader, group] = CoordinatorLeader(c);
  ASSERT_NE(leader, nullptr);
  Status outcome = InternalError("pending");
  bool done = false;
  leader->RequestMerge(group, [&](Status s) {
    done = true;
    outcome = s;
  });
  const TimeMicros deadline = c.sim().now() + Seconds(20);
  while (!done && c.sim().now() < deadline) {
    c.sim().RunFor(Millis(5));
  }
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.ok()) << outcome.ToString();
  c.RunFor(Seconds(5));

  EXPECT_EQ(ServingGroupCount(c), 1u);
  auto ring = c.AuthoritativeRing();
  ASSERT_EQ(ring.size(), 1u);
  EXPECT_TRUE(ring[0].range.IsFull());
  EXPECT_EQ(ring[0].members.size(), 10u);  // union of both groups
  EXPECT_TRUE(AllReadable(c, client, names));
  EXPECT_TRUE(verify::CheckQuiescentCover(c).ok);
}

// Crash the coordinator's leader at a given delay after initiating the
// merge; the transaction must either fully commit or fully abort, with all
// data readable either way.
class TxnCoordinatorCrashSweep
    : public ::testing::TestWithParam<TimeMicros> {};

TEST_P(TxnCoordinatorCrashSweep, ConvergesDespiteCoordinatorCrash) {
  Cluster c(StaticTwoGroups(40 + static_cast<uint64_t>(GetParam())));
  analysis::InvariantAuditor audit(&c);
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  auto names = Populate(c, client, 16);

  auto [leader, group] = CoordinatorLeader(c);
  ASSERT_NE(leader, nullptr);
  const NodeId doomed = leader->id();
  leader->RequestMerge(group, [](Status) {});
  c.RunFor(GetParam());  // Let the protocol reach some phase...
  c.CrashNode(doomed);   // ...then kill the coordinator's leader.

  // The system must converge: either the merge committed (1 group) or it
  // aborted / was re-driven (the successor leader resumes from the log).
  c.RunFor(Seconds(40));
  auto cover = verify::CheckQuiescentCover(c);
  EXPECT_TRUE(cover.ok) << (cover.problems.empty() ? "" : cover.problems[0]);
  EXPECT_TRUE(AllReadable(c, client, names));
  // No group may remain frozen forever.
  for (NodeId id : c.live_node_ids()) {
    for (const auto* sm : c.node(id)->ServingGroups()) {
      EXPECT_FALSE(sm->IsFrozen())
          << "group " << sm->id() << " still frozen on node " << id;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, TxnCoordinatorCrashSweep,
                         ::testing::Values(Micros(100), Millis(1), Millis(3),
                                           Millis(8), Millis(20), Millis(60),
                                           Millis(150), Millis(400)));

class TxnParticipantCrashSweep
    : public ::testing::TestWithParam<TimeMicros> {};

TEST_P(TxnParticipantCrashSweep, ConvergesDespiteParticipantCrash) {
  Cluster c(StaticTwoGroups(90 + static_cast<uint64_t>(GetParam())));
  analysis::InvariantAuditor audit(&c);
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  auto names = Populate(c, client, 16);

  auto [pleader, pgroup] = ParticipantLeader(c);
  ASSERT_NE(pleader, nullptr);
  const NodeId doomed = pleader->id();
  auto [leader, group] = CoordinatorLeader(c);
  ASSERT_NE(leader, nullptr);
  leader->RequestMerge(group, [](Status) {});
  c.RunFor(GetParam());
  if (c.node(doomed) != nullptr) {
    c.CrashNode(doomed);
  }

  c.RunFor(Seconds(40));
  auto cover = verify::CheckQuiescentCover(c);
  EXPECT_TRUE(cover.ok) << (cover.problems.empty() ? "" : cover.problems[0]);
  EXPECT_TRUE(AllReadable(c, client, names));
  for (NodeId id : c.live_node_ids()) {
    for (const auto* sm : c.node(id)->ServingGroups()) {
      EXPECT_FALSE(sm->IsFrozen());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(CrashPoints, TxnParticipantCrashSweep,
                         ::testing::Values(Micros(100), Millis(1), Millis(3),
                                           Millis(8), Millis(20), Millis(60),
                                           Millis(150), Millis(400)));

TEST(TxnRepartitionTest, BoundaryMoveKeepsDataReadable) {
  Cluster c(StaticTwoGroups(7));
  analysis::InvariantAuditor audit(&c);
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  auto names = Populate(c, client, 30);

  auto [leader, group] = CoordinatorLeader(c);
  ASSERT_NE(leader, nullptr);
  const auto* sm = leader->GroupSm(group);
  const ring::KeyRange old_range = sm->range();
  // Shed the last quarter of our range to the successor.
  const Key boundary = old_range.begin + old_range.Size() / 4 * 3;
  Status outcome = InternalError("pending");
  bool done = false;
  leader->RequestRepartition(group, boundary, [&](Status s) {
    done = true;
    outcome = s;
  });
  while (!done) {
    c.sim().RunFor(Millis(5));
  }
  EXPECT_TRUE(outcome.ok()) << outcome.ToString();
  c.RunFor(Seconds(5));

  auto ring = c.AuthoritativeRing();
  ASSERT_EQ(ring.size(), 2u);
  // Boundaries moved, cover intact, everything readable.
  EXPECT_TRUE(verify::CheckQuiescentCover(c).ok);
  bool boundary_found = false;
  for (const auto& info : ring) {
    boundary_found |= info.range.begin == boundary ||
                      info.range.end == boundary;
  }
  EXPECT_TRUE(boundary_found);
  EXPECT_TRUE(AllReadable(c, client, names));
}

TEST(TxnRepartitionTest, BoundaryAtCoordinatorBeginIsRejected) {
  // Moving the boundary to the coordinator's own begin would shed its whole
  // arc, and KeyRange{b, b} is the full ring, not an empty arc: both groups
  // would claim every key. The request must fail and leave the ring alone.
  Cluster c(StaticTwoGroups(7));
  analysis::InvariantAuditor audit(&c);
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  auto names = Populate(c, client, 30);

  auto [leader, group] = CoordinatorLeader(c);
  ASSERT_NE(leader, nullptr);
  const std::vector<ring::GroupInfo> before = c.AuthoritativeRing();
  Status outcome = InternalError("pending");
  bool done = false;
  leader->RequestRepartition(group, leader->GroupSm(group)->range().begin,
                             [&](Status s) {
                               done = true;
                               outcome = s;
                             });
  const TimeMicros deadline = c.sim().now() + Seconds(20);
  while (!done && c.sim().now() < deadline) {
    c.sim().RunFor(Millis(5));
  }
  ASSERT_TRUE(done);
  EXPECT_EQ(outcome.code(), StatusCode::kInvalidArgument)
      << outcome.ToString();
  c.RunFor(Seconds(5));

  auto cover = verify::CheckQuiescentCover(c);
  EXPECT_TRUE(cover.ok) << (cover.problems.empty() ? "" : cover.problems[0]);
  const std::vector<ring::GroupInfo> after = c.AuthoritativeRing();
  ASSERT_EQ(after.size(), before.size());
  for (size_t i = 0; i < after.size(); ++i) {
    EXPECT_EQ(after[i].id, before[i].id);
    EXPECT_EQ(after[i].range, before[i].range);
  }
  EXPECT_TRUE(AllReadable(c, client, names));
}

TEST(TxnConflictTest, ConcurrentMergesResolveToOneOutcomePerGroup) {
  // Three groups; the leaders of groups 1 and 2 both initiate merges with
  // their successors concurrently. Freezing makes the attempts conflict;
  // at least one commits or both abort — never a half-merge.
  ClusterConfig cfg;
  cfg.seed = 21;
  cfg.initial_nodes = 12;
  cfg.initial_groups = 3;
  cfg.scatter.policy.enable_split = false;
  cfg.scatter.policy.enable_merge = false;
  cfg.scatter.policy.enable_migration = false;
  cfg.scatter.policy.min_group_size = 1;
  cfg.scatter.policy.max_group_size = 64;
  Cluster c(cfg);
  analysis::InvariantAuditor audit(&c);
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  auto names = Populate(c, client, 24);

  // Find all leaders, fire merges from every group at once.
  int fired = 0;
  for (NodeId id : c.live_node_ids()) {
    ScatterNode* node = c.node(id);
    for (const ring::GroupInfo& info : node->ServingInfos()) {
      if (info.leader == id) {
        node->RequestMerge(info.id, [](Status) {});
        fired++;
      }
    }
  }
  EXPECT_EQ(fired, 3);
  c.RunFor(Seconds(30));

  // Simultaneous mutual merges may ALL abort (each group froze itself
  // before receiving its neighbor's prepare) — that is the designed
  // conflict resolution. What must hold: no half-merge, no residual
  // freeze, cover intact, data intact.
  auto cover = verify::CheckQuiescentCover(c);
  EXPECT_TRUE(cover.ok) << (cover.problems.empty() ? "" : cover.problems[0]);
  EXPECT_TRUE(AllReadable(c, client, names));
  for (NodeId id : c.live_node_ids()) {
    for (const auto* sm : c.node(id)->ServingGroups()) {
      EXPECT_FALSE(sm->IsFrozen());
    }
  }

  // A staggered retry (what the jittered policy ticks provide in practice)
  // must then succeed.
  auto [leader, group] = CoordinatorLeader(c);
  ASSERT_NE(leader, nullptr);
  Status outcome = InternalError("pending");
  bool done = false;
  leader->RequestMerge(group, [&](Status s) {
    done = true;
    outcome = s;
  });
  const TimeMicros deadline = c.sim().now() + Seconds(20);
  while (!done && c.sim().now() < deadline) {
    c.sim().RunFor(Millis(5));
  }
  ASSERT_TRUE(done);
  EXPECT_TRUE(outcome.ok()) << outcome.ToString();
  c.RunFor(Seconds(5));
  EXPECT_LT(ServingGroupCount(c), 3u);
  EXPECT_TRUE(AllReadable(c, client, names));
  EXPECT_TRUE(verify::CheckQuiescentCover(c).ok);
}

TEST(TxnTransferTest, LeadershipTransferMidMergeStillConverges) {
  // Hand coordinator leadership away while its transaction is in flight:
  // the successor driver must rebuild its agenda from the state machine
  // and finish the job.
  Cluster c(StaticTwoGroups(71));
  analysis::InvariantAuditor audit(&c);
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  auto names = Populate(c, client, 12);

  auto [leader, group] = CoordinatorLeader(c);
  ASSERT_NE(leader, nullptr);
  leader->RequestMerge(group, [](Status) {});
  c.RunFor(Millis(2));  // CoordStart committed-ish; prepare in flight.
  // Transfer coordinator leadership to another member.
  const auto* replica = leader->GroupReplica(group);
  ASSERT_NE(replica, nullptr);
  NodeId target = kInvalidNode;
  for (NodeId m : replica->members()) {
    if (m != leader->id()) {
      target = m;
      break;
    }
  }
  ASSERT_NE(target, kInvalidNode);
  // (TransferLeadership is on the replica; trigger via the paxos API.)
  const_cast<paxos::Replica*>(replica)->TransferLeadership(target);

  c.RunFor(Seconds(40));
  auto cover = verify::CheckQuiescentCover(c);
  EXPECT_TRUE(cover.ok) << (cover.problems.empty() ? "" : cover.problems[0]);
  EXPECT_TRUE(AllReadable(c, client, names));
  for (NodeId id : c.live_node_ids()) {
    for (const auto* sm : c.node(id)->ServingGroups()) {
      EXPECT_FALSE(sm->IsFrozen());
    }
  }
}

TEST(TxnLossTest, MergeCompletesUnderMessageLoss) {
  Cluster c(StaticTwoGroups(33));
  analysis::InvariantAuditor audit(&c);
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  auto names = Populate(c, client, 12);

  c.net().set_loss_rate(0.15);
  auto [leader, group] = CoordinatorLeader(c);
  ASSERT_NE(leader, nullptr);
  leader->RequestMerge(group, [](Status) {});
  c.RunFor(Seconds(45));
  c.net().set_loss_rate(0.0);
  c.RunFor(Seconds(10));

  auto cover = verify::CheckQuiescentCover(c);
  EXPECT_TRUE(cover.ok) << (cover.problems.empty() ? "" : cover.problems[0]);
  EXPECT_TRUE(AllReadable(c, client, names));
  for (NodeId id : c.live_node_ids()) {
    for (const auto* sm : c.node(id)->ServingGroups()) {
      EXPECT_FALSE(sm->IsFrozen());
    }
  }
}

TEST(TxnInheritedOutcomeTest, ParticipantLearnsCommitFromMergedDescendant) {
  // The subtlest recovery path: A commits the merge (and retires into C),
  // but every direct decision message to B is lost. B's status-query
  // backstop asks A's members — who no longer host A, but host C, which
  // INHERITED the transaction outcome. They must answer, and B must
  // commit-execute from its prepared record.
  Cluster c(StaticTwoGroups(99));
  analysis::InvariantAuditor audit(&c);
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  auto names = Populate(c, client, 10);

  auto [leader, group] = CoordinatorLeader(c);
  ASSERT_NE(leader, nullptr);
  auto [pleader, pgroup] = ParticipantLeader(c);
  ASSERT_NE(pleader, nullptr);

  // Identify both member sets up front.
  std::vector<NodeId> a_members = leader->GroupReplica(group)->members();
  std::vector<NodeId> b_members = pleader->GroupReplica(pgroup)->members();

  leader->RequestMerge(group, [](Status) {});
  // The moment B freezes it has committed its Prepare; its reply is on the
  // way to A (B->A is never blocked), but no decision can have arrived yet
  // (A must first commit CoordDecide). Cut A->B right then, so the
  // decision notification and its retries are all lost.
  bool b_frozen = false;
  const TimeMicros t0 = c.sim().now();
  while (!b_frozen && c.sim().now() - t0 < Seconds(10)) {
    c.sim().RunFor(Millis(1));
    for (NodeId b : b_members) {
      if (c.node(b) != nullptr) {
        const auto* sm = c.node(b)->GroupSm(pgroup);
        if (sm != nullptr && sm->IsFrozen()) {
          b_frozen = true;
        }
      }
    }
  }
  ASSERT_TRUE(b_frozen) << "participant never prepared";
  for (NodeId a : a_members) {
    for (NodeId b : b_members) {
      c.net().BlockLink(a, b);
    }
  }
  // B stays frozen: its status queries reach A's members, but the answers
  // travel A->B and are dropped.
  c.RunFor(Seconds(10));
  bool still_frozen = false;
  for (NodeId b : b_members) {
    if (c.node(b) != nullptr) {
      const auto* sm = c.node(b)->GroupSm(pgroup);
      if (sm != nullptr && sm->IsFrozen()) {
        still_frozen = true;
      }
    }
  }
  EXPECT_TRUE(still_frozen) << "participant should still await the outcome";

  for (NodeId a : a_members) {
    for (NodeId b : b_members) {
      c.net().UnblockLink(a, b);
    }
  }
  c.RunFor(Seconds(15));  // Status query round resolves via inherited record.

  auto cover = verify::CheckQuiescentCover(c);
  EXPECT_TRUE(cover.ok) << (cover.problems.empty() ? "" : cover.problems[0]);
  EXPECT_EQ(ServingGroupCount(c), 1u);  // The merge completed everywhere.
  for (NodeId id : c.live_node_ids()) {
    for (const auto* sm : c.node(id)->ServingGroups()) {
      EXPECT_FALSE(sm->IsFrozen());
    }
  }
  EXPECT_TRUE(AllReadable(c, client, names));
}

TEST(TxnStalePrepareTest, EpochMismatchAborts) {
  // Repartition with a deliberately stale view: trigger two back-to-back
  // boundary moves; the second uses pre-first-move geometry occasionally —
  // the participant's epoch check must reject it and the coordinator must
  // unfreeze.
  Cluster c(StaticTwoGroups(55));
  analysis::InvariantAuditor audit(&c);
  c.RunFor(Seconds(2));
  Client* client = c.AddClient();
  auto names = Populate(c, client, 12);

  auto [leader, group] = CoordinatorLeader(c);
  ASSERT_NE(leader, nullptr);
  const auto* sm = leader->GroupSm(group);
  const ring::KeyRange r = sm->range();
  leader->RequestRepartition(group, r.begin + r.Size() / 2, [](Status) {});
  leader->RequestRepartition(group, r.begin + r.Size() / 3,
                             [](Status) {});  // Conflicts while frozen.
  c.RunFor(Seconds(20));

  EXPECT_TRUE(verify::CheckQuiescentCover(c).ok);
  EXPECT_TRUE(AllReadable(c, client, names));
  for (NodeId id : c.live_node_ids()) {
    for (const auto* sm2 : c.node(id)->ServingGroups()) {
      EXPECT_FALSE(sm2->IsFrozen());
    }
  }
}

}  // namespace
}  // namespace scatter::core
