// The model checker's validation experiment: seeded bugs, each
// reintroduced behind a test-only flag, must be found by the explorer
// within a bounded budget that random simulation does not match.
//
//   stale_ballot+mutation    — bug_accept_stale_ballot: an acceptor takes
//                              an Accept below its promise; the
//                              leader-completeness auditor property flags
//                              the divergent commit.
//   lost_merge+mutation      — bug_drop_resent_prepare_payload: a resent
//                              2PC prepare loses the participant's keys;
//                              surfaces as a linearizability violation
//                              (acknowledged writes unreadable after the
//                              merge).
//   bootstrap_wedge+mutation — bug_skip_bootstrap_joiner: an add-member
//                              config change commits on a bare quorum with
//                              an un-bootstrapped joiner; the liveness
//                              probe fails.
//   batched_read+mutation    — bug_batch_checks_first_key_only: a batched
//                              Get checks leadership and lease for its
//                              first key only; the follower's stale read of
//                              a completed write is a linearizability
//                              violation.
//   crash_disk+mutation      — bug_skip_wal_replay: a replica restarted
//                              from its disk drops the entries WAL replay
//                              recovered; the durability auditor property
//                              flags a commit point below the disk's.
//   crash_disk+first_batch_entry_only
//                            — bug_replay_first_batch_entry_only: WAL
//                              replay keeps the first entry of each accept
//                              record; a follower that journaled a batch
//                              recovers a log with a gap, and the same
//                              property flags it.
//
// Every hunt runs the explorer's defaults (walk depth 40, walk seed 1) and
// differs only in its schedule budget, a few times the schedules the walk
// needs (see DESIGN.md §10), so the tests stay deterministic and fast. The
// clean (unmutated) variants must stay clean at the same budgets, and a
// 100-seed random baseline must miss at least one mutation the explorer
// finds.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/mc/decision.h"
#include "src/mc/explorer.h"

namespace scatter::mc {
namespace {

// Schedule budgets of the hunts; the clean variants run at the same ones.
// The walk finds each mutation at schedule 91, 8, 30, 8, 5 and 5.
constexpr uint64_t kStaleBallotBudget = 2000;
constexpr uint64_t kLostMergeBudget = 500;
constexpr uint64_t kBootstrapWedgeBudget = 500;
constexpr uint64_t kBatchedReadBudget = 500;
constexpr uint64_t kCrashDiskBudget = 500;

// The explorer's defaults with a schedule budget; tests write no artifacts.
McOptions HuntOptions(uint64_t max_schedules) {
  McOptions options;
  options.max_schedules = max_schedules;
  options.counterexample_path = "";
  return options;
}

// A counterexample is only useful if it re-executes deterministically:
// replaying it twice must follow the full schedule and land on the same
// violation both times.
void ExpectDeterministicReplay(const ExploreStats& stats) {
  ASSERT_TRUE(stats.violation_found);
  const Counterexample& ce = stats.counterexample;
  ASSERT_FALSE(ce.schedule.empty());
  const ReplayResult first = ReplaySchedule(ce.scenario, ce.seed, ce.schedule);
  const ReplayResult second = ReplaySchedule(ce.scenario, ce.seed, ce.schedule);
  EXPECT_FALSE(first.diverged);
  EXPECT_FALSE(second.diverged);
  ASSERT_TRUE(first.violation.has_value());
  ASSERT_TRUE(second.violation.has_value());
  EXPECT_TRUE(SameViolation(*first.violation, ce.violation));
  EXPECT_TRUE(SameViolation(*first.violation, *second.violation));
  EXPECT_EQ(first.executed, second.executed);
}

TEST(McMutationTest, WalkFindsStaleBallotAcceptance) {
  const ExploreStats stats =
      Explore("stale_ballot+mutation", HuntOptions(kStaleBallotBudget));
  ASSERT_TRUE(stats.violation_found)
      << "budget: " << kStaleBallotBudget << " walks";
  // The divergent commit trips a Paxos safety invariant.
  EXPECT_EQ(stats.counterexample.violation.source, "auditor");
  ExpectDeterministicReplay(stats);
}

TEST(McMutationTest, WalkFindsLostMergePayload) {
  const ExploreStats stats =
      Explore("lost_merge+mutation", HuntOptions(kLostMergeBudget));
  ASSERT_TRUE(stats.violation_found)
      << "budget: " << kLostMergeBudget << " walks";
  ExpectDeterministicReplay(stats);
}

TEST(McMutationTest, WalkFindsBatchedReadServedByAFollower) {
  const ExploreStats stats =
      Explore("batched_read+mutation", HuntOptions(kBatchedReadBudget));
  ASSERT_TRUE(stats.violation_found)
      << "budget: " << kBatchedReadBudget << " walks";
  EXPECT_EQ(stats.counterexample.violation.source, "linearizability");
  ExpectDeterministicReplay(stats);
}

TEST(McMutationTest, WalkFindsBootstrapWedge) {
  const ExploreStats stats = Explore("bootstrap_wedge+mutation",
                                     HuntOptions(kBootstrapWedgeBudget));
  ASSERT_TRUE(stats.violation_found)
      << "budget: " << kBootstrapWedgeBudget << " walks";
  EXPECT_EQ(stats.counterexample.violation.source, "liveness");
  ExpectDeterministicReplay(stats);
}

TEST(McMutationTest, WalkFindsReplayThatKeepsOneEntryPerBatch) {
  const ExploreStats stats = Explore("crash_disk+first_batch_entry_only",
                                     HuntOptions(kCrashDiskBudget));
  ASSERT_TRUE(stats.violation_found)
      << "budget: " << kCrashDiskBudget << " walks";
  EXPECT_EQ(stats.counterexample.violation.source, "auditor");
  EXPECT_EQ(stats.counterexample.violation.checker, "durability");
  ExpectDeterministicReplay(stats);
}

TEST(McMutationTest, WalkFindsSkippedWalReplay) {
  const ExploreStats stats = Explore("crash_disk+mutation",
                                     HuntOptions(kCrashDiskBudget));
  ASSERT_TRUE(stats.violation_found)
      << "budget: " << kCrashDiskBudget << " walks";
  EXPECT_EQ(stats.counterexample.violation.source, "auditor");
  EXPECT_EQ(stats.counterexample.violation.checker, "durability");
  ExpectDeterministicReplay(stats);
}

// The unmutated scenarios must survive the same adversarial budgets: a
// detector that also fires on correct code is useless.
TEST(McMutationTest, CleanVariantsStayClean) {
  const struct {
    const char* scenario;
    uint64_t budget;
  } legs[] = {{"stale_ballot", kStaleBallotBudget},
              {"lost_merge", kLostMergeBudget},
              {"bootstrap_wedge", kBootstrapWedgeBudget},
              {"batched_read", kBatchedReadBudget},
              {"crash_disk", kCrashDiskBudget}};
  for (const auto& leg : legs) {
    const ExploreStats stats = Explore(leg.scenario, HuntOptions(leg.budget));
    EXPECT_EQ(stats.schedules, leg.budget) << leg.scenario;
    EXPECT_FALSE(stats.violation_found)
        << leg.scenario << ": " << stats.counterexample.violation.source
        << "/" << stats.counterexample.violation.checker << ": "
        << stats.counterexample.violation.detail;
  }
}

// The headline claim: systematic exploration beats random testing. 100
// random-schedule runs of each mutated scenario (the same instrumented
// harness, normal delivery order, faults at random times) must miss at
// least one of the bugs the explorer finds above.
TEST(McMutationTest, RandomBaselineMissesAtLeastOneMutation) {
  const std::vector<std::string> mutations = {
      "stale_ballot+mutation", "lost_merge+mutation",
      "bootstrap_wedge+mutation"};
  int scenarios_fully_missed = 0;
  for (const std::string& name : mutations) {
    int detected = 0;
    for (uint64_t seed = 1; seed <= 100; ++seed) {
      if (RandomRunViolates(name, seed)) {
        detected++;
      }
    }
    RecordProperty(name, detected);
    if (detected == 0) {
      scenarios_fully_missed++;
    }
    // Random testing must not dominate the explorer anywhere.
    EXPECT_LT(detected, 100) << name;
  }
  EXPECT_GE(scenarios_fully_missed, 1);
}

}  // namespace
}  // namespace scatter::mc
