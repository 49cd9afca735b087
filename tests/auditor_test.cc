// Mutation tests for the continuous invariant auditor: each test seeds one
// class of protocol violation directly into a live cluster (through the
// *ForTest hooks, bypassing all protocol validation) and asserts the
// auditor detects it. Together they prove a detection rate of 4/4 over the
// auditor's checker classes:
//   paxos   — divergent committed log slot
//   ring    — overlapping leader-led ranges
//   groupop — illegal 2PC driver state
//   store   — key outside the group's claimed range
// A healthy-run test pins the other direction: on an unmutated cluster the
// continuous audit stays silent while running from the event-loop hook.

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <regex>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/analysis/invariant_auditor.h"
#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/core/cluster.h"
#include "src/txn/group_op_driver.h"

namespace scatter::analysis {
namespace {

using core::Client;
using core::Cluster;
using core::ClusterConfig;
using core::ScatterNode;

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

AuditorOptions Collecting() {
  AuditorOptions opts;
  opts.abort_on_violation = false;  // tests inspect violations() instead
  return opts;
}

// Writes `n` keys spread over the ring so every group has committed
// application entries and stored data.
void Populate(Cluster& c, Client* client, int n) {
  for (int i = 0; i < n; ++i) {
    bool done = false;
    client->Put(KeyFromString("auditkey" + std::to_string(i)),
                "v" + std::to_string(i), [&](Status s) { done = s.ok(); });
    while (!done) {
      c.sim().RunFor(Millis(2));
    }
  }
}

// The node currently leading `group` (kInvalidNode if none claims it).
NodeId LeaderOf(Cluster& c, GroupId group) {
  for (NodeId id : c.live_node_ids()) {
    for (const ring::GroupInfo& info : c.node(id)->ServingInfos()) {
      if (info.id == group && info.leader == id) {
        return id;
      }
    }
  }
  return kInvalidNode;
}

bool HasViolationFrom(const InvariantAuditor& auditor,
                      const std::string& checker) {
  for (const Violation& v : auditor.violations()) {
    if (v.checker == checker) {
      return true;
    }
  }
  return false;
}

class AuditorMutationTest : public ::testing::Test {
 protected:
  void SetUp() override {
    cluster_ = std::make_unique<Cluster>(StaticTwoGroups(42));
    cluster_->RunFor(Seconds(5));  // elect leaders
    Populate(*cluster_, cluster_->AddClient(), 20);
    cluster_->RunFor(Seconds(2));  // let followers apply
    ring_ = cluster_->AuthoritativeRing();
    ASSERT_EQ(ring_.size(), 2u);
  }

  std::unique_ptr<Cluster> cluster_;
  std::vector<ring::GroupInfo> ring_;
};

TEST_F(AuditorMutationTest, DetectsDivergentCommittedSlot) {
  // Corrupt a committed slot on one replica of the first group.
  const GroupId gid = ring_[0].id;
  ASSERT_GE(ring_[0].members.size(), 2u);
  ScatterNode* node = cluster_->node(ring_[0].members[0]);
  ASSERT_NE(node, nullptr);
  paxos::Replica* replica = node->MutableGroupReplicaForTest(gid);
  ASSERT_NE(replica, nullptr);
  // Pick the highest committed slot still present in the log.
  uint64_t slot = 0;
  for (uint64_t s = replica->commit_index();
       s >= replica->log().first_index(); --s) {
    if (replica->log().At(s) != nullptr) {
      slot = s;
      break;
    }
  }
  ASSERT_GT(slot, 0u) << "no committed in-log slot to corrupt";
  replica->CorruptCommittedEntryForTest(slot);

  InvariantAuditor auditor(cluster_.get(), Collecting());
  auditor.RunOnce();
  EXPECT_TRUE(HasViolationFrom(auditor, "paxos"))
      << "corrupted committed slot " << slot << " of g" << gid
      << " went undetected";
}

TEST_F(AuditorMutationTest, DetectsOverlappingLeaderRanges) {
  // Stretch one leader's claimed range over the whole ring so it overlaps
  // the other group's leader.
  ASSERT_NE(LeaderOf(*cluster_, ring_[0].id), kInvalidNode);
  ASSERT_NE(LeaderOf(*cluster_, ring_[1].id), kInvalidNode);
  ScatterNode* leader = cluster_->node(LeaderOf(*cluster_, ring_[0].id));
  leader->MutableGroupSmForTest(ring_[0].id)
      ->OverrideRangeForTest(ring::KeyRange::Full());

  InvariantAuditor auditor(cluster_.get(), Collecting());
  auditor.RunOnce();
  EXPECT_TRUE(HasViolationFrom(auditor, "ring"))
      << "overlapping leader-led ranges went undetected";
}

TEST_F(AuditorMutationTest, DetectsIllegal2pcState) {
  // Force a driver into kNotifying with no transaction — a state the legal
  // prepare/commit/abort lattice can never produce.
  ScatterNode* leader = cluster_->node(LeaderOf(*cluster_, ring_[0].id));
  ASSERT_NE(leader, nullptr);
  txn::GroupOpDriver* driver =
      leader->MutableGroupDriverForTest(ring_[0].id);
  ASSERT_NE(driver, nullptr);
  ASSERT_EQ(driver->phase(), txn::GroupOpDriver::Phase::kIdle);
  driver->ForcePhaseForTest(txn::GroupOpDriver::Phase::kNotifying);

  InvariantAuditor auditor(cluster_.get(), Collecting());
  auditor.RunOnce();
  EXPECT_TRUE(HasViolationFrom(auditor, "groupop"))
      << "illegal 2PC driver state went undetected";

  driver->ForcePhaseForTest(txn::GroupOpDriver::Phase::kIdle);
}

TEST_F(AuditorMutationTest, DetectsOutOfRangeKey) {
  // Inject a key just past the group's exclusive range end.
  const GroupId gid = ring_[0].id;
  ScatterNode* node = cluster_->node(ring_[0].members[0]);
  membership::GroupStateMachine* sm = node->MutableGroupSmForTest(gid);
  ASSERT_NE(sm, nullptr);
  ASSERT_FALSE(sm->range().IsFull());
  ASSERT_FALSE(sm->range().Contains(sm->range().end));
  sm->InjectKeyForTest(sm->range().end, "stray");

  InvariantAuditor auditor(cluster_.get(), Collecting());
  auditor.RunOnce();
  EXPECT_TRUE(HasViolationFrom(auditor, "store"))
      << "out-of-range stored key went undetected";
}

TEST(AuditorTest, HealthyChurningClusterStaysSilent) {
  // The auditor runs from the event-loop hook over a healthy run (elections,
  // writes, structural ops enabled) and must never fire.
  ClusterConfig cfg;
  cfg.seed = 7;
  cfg.initial_nodes = 12;
  cfg.initial_groups = 3;
  Cluster c(cfg);
  AuditorOptions opts;
  opts.every_n_events = 512;  // tight cadence: many audits in a short run
  InvariantAuditor auditor(&c, opts);  // aborts the test on any violation
  c.RunFor(Seconds(5));
  Populate(c, c.AddClient(), 30);
  c.RunFor(Seconds(10));
  EXPECT_GT(auditor.audits_run(), 10u);
  EXPECT_TRUE(auditor.violations().empty());
}

TEST(AuditorTest, TraceAnnotationsAreCaptured) {
  ClusterConfig cfg;
  cfg.seed = 9;
  cfg.initial_nodes = 6;
  cfg.initial_groups = 2;
  Cluster c(cfg);
  InvariantAuditor auditor(&c, Collecting());
  c.RunFor(Seconds(2));
  // The network records every delivery; a bootstrapping cluster is chatty
  // enough to wrap the ring.
  const std::vector<sim::Network::Delivery> ring =
      c.net().RecentDeliveries();
  ASSERT_EQ(ring.size(), sim::Network::kDeliveryRingSize);
  EXPECT_GT(c.net().messages_delivered(), ring.size());
  // Oldest first, in the simulator's (time, seq) firing order.
  for (size_t i = 1; i < ring.size(); ++i) {
    EXPECT_TRUE(ring[i - 1].at < ring[i].at ||
                (ring[i - 1].at == ring[i].at &&
                 ring[i - 1].seq < ring[i].seq))
        << "entry " << i;
  }
  EXPECT_LE(ring.back().at, c.sim().now());
  for (const sim::Network::Delivery& d : ring) {
    EXPECT_NE(d.type, sim::MessageType::kInvalid);
    EXPECT_NE(d.from, kInvalidNode);
    EXPECT_NE(d.to, kInvalidNode);
  }
}

[[noreturn]] void ThrowOnCheckFailure(const char* file, int line,
                                      const char* cond) {
  throw std::runtime_error(cond);
}

// An aborting auditor writes its artifact before it dies: the seed, the
// violation and the network's last deliveries, one per line as
// `t=<at> seq=<seq> <Type> <from>-><to>`.
TEST_F(AuditorMutationTest, ViolationArtifactListsLastDeliveries) {
  const GroupId gid = ring_[0].id;
  membership::GroupStateMachine* sm =
      cluster_->node(ring_[0].members[0])->MutableGroupSmForTest(gid);
  ASSERT_NE(sm, nullptr);
  sm->InjectKeyForTest(sm->range().end, "stray");

  AuditorOptions opts;
  opts.artifact_path =
      ::testing::TempDir() + "scatter_auditor_artifact_test.log";
  opts.trace_json_path.clear();
  InvariantAuditor auditor(cluster_.get(), opts);
  // The abort is a failed CHECK; turn it into an exception for the test.
  struct HandlerScope {
    HandlerScope() { SetCheckFailureHandler(&ThrowOnCheckFailure); }
    ~HandlerScope() { SetCheckFailureHandler(nullptr); }
  } handler_scope;
  EXPECT_THROW(auditor.RunOnce(), std::runtime_error);

  std::ifstream in(opts.artifact_path);
  ASSERT_TRUE(in) << opts.artifact_path;
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) {
    lines.push_back(line);
  }
  std::remove(opts.artifact_path.c_str());
  EXPECT_NE(std::find(lines.begin(), lines.end(), "seed 42"), lines.end());
  const auto header = std::find(lines.begin(), lines.end(), "[last_events]");
  ASSERT_NE(header, lines.end());
  std::vector<std::string> events;
  for (auto it = header + 1; it != lines.end() && !it->empty(); ++it) {
    events.push_back(*it);
  }
  const std::vector<sim::Network::Delivery> ring =
      cluster_->net().RecentDeliveries();
  ASSERT_EQ(events.size(), ring.size());
  ASSERT_EQ(events.size(), sim::Network::kDeliveryRingSize);
  const std::regex format(R"(t=\d+ seq=\d+ [A-Za-z]+ \d+->\d+)");
  for (size_t i = 0; i < events.size(); ++i) {
    EXPECT_TRUE(std::regex_match(events[i], format)) << events[i];
    const sim::Network::Delivery& d = ring[i];
    EXPECT_EQ(events[i], "t=" + std::to_string(d.at) +
                             " seq=" + std::to_string(d.seq) + " " +
                             sim::MessageTypeName(d.type) + " " +
                             std::to_string(d.from) + "->" +
                             std::to_string(d.to));
  }
}

}  // namespace
}  // namespace scatter::analysis
