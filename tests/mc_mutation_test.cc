// The model checker's validation experiment (ISSUE: three seeded bugs,
// each reintroduced behind a test-only flag, must be found by the explorer
// within a bounded budget that random simulation does not match):
//
//   stale_ballot+mutation    — bug_accept_stale_ballot: an acceptor takes
//                              an Accept below its promise. Found by the
//                              guided random walk; the leader-completeness
//                              auditor property flags the divergent commit.
//   lost_merge+mutation      — bug_drop_resent_prepare_payload: a resent
//                              2PC prepare loses the participant's keys.
//                              Found by the walk; surfaces as a
//                              linearizability violation (acknowledged
//                              writes unreadable after the merge).
//   bootstrap_wedge+mutation — bug_skip_bootstrap_joiner: an add-member
//                              config change commits on a bare quorum with
//                              an un-bootstrapped joiner. Found by
//                              delay-bounded DFS; the liveness probe fails.
//   batched_read+mutation    — bug_batch_checks_first_key_only: a batched
//                              Get checks leadership and lease for its
//                              first key only. Found by the walk; the
//                              follower's stale read of a completed write
//                              is a linearizability violation.
//
// Budgets below are the documented detection budgets (see DESIGN.md §10);
// each is a few times the empirically observed cost, so the tests stay
// deterministic and fast. The clean (unmutated) variants must stay clean at
// the same budgets, and a 100-seed random baseline must miss at least one
// mutation the explorer finds.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/mc/decision.h"
#include "src/mc/explorer.h"

namespace scatter::mc {
namespace {

McOptions BaseOptions() {
  McOptions options;
  options.wall_budget_seconds = 120.0;  // generous; schedule caps bind first
  options.counterexample_path = "";     // tests never write artifacts
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
  McOptions options = BaseOptions();
  options.strategy.max_depth = 40;
  options.max_schedules = 2000;
  const ExploreStats stats =
      Explore("stale_ballot+mutation", StrategyKind::kRandomWalk, options);
  ASSERT_TRUE(stats.violation_found)
      << "budget: 2000 walks at depth 40, seed 1";
  // The divergent commit trips a Paxos safety invariant.
  EXPECT_EQ(stats.counterexample.violation.source, "auditor");
  ExpectDeterministicReplay(stats);
}

TEST(McMutationTest, WalkFindsLostMergePayload) {
  McOptions options = BaseOptions();
  options.strategy.max_depth = 60;
  options.max_schedules = 500;
  const ExploreStats stats =
      Explore("lost_merge+mutation", StrategyKind::kRandomWalk, options);
  ASSERT_TRUE(stats.violation_found)
      << "budget: 500 walks at depth 60, seed 1";
  ExpectDeterministicReplay(stats);
}

TEST(McMutationTest, WalkFindsBatchedReadServedByAFollower) {
  McOptions options = BaseOptions();
  options.strategy.max_depth = 40;
  options.max_schedules = 500;
  const ExploreStats stats =
      Explore("batched_read+mutation", StrategyKind::kRandomWalk, options);
  ASSERT_TRUE(stats.violation_found)
      << "budget: 500 walks at depth 40, seed 1";
  EXPECT_EQ(stats.counterexample.violation.source, "linearizability");
  ExpectDeterministicReplay(stats);
}

TEST(McMutationTest, DelayBoundedFindsBootstrapWedge) {
  McOptions options = BaseOptions();
  options.strategy.max_depth = 40;
  options.strategy.delay_budget = 14;
  options.max_schedules = 20000;
  const ExploreStats stats = Explore("bootstrap_wedge+mutation",
                                     StrategyKind::kDelayBounded, options);
  ASSERT_TRUE(stats.violation_found)
      << "budget: delay 14 at depth 40, seed 1 (" << stats.schedules
      << " schedules explored)";
  EXPECT_EQ(stats.counterexample.violation.source, "liveness");
  ExpectDeterministicReplay(stats);
}

// The unmutated scenarios must survive the same adversarial budgets: a
// detector that also fires on correct code is useless.
TEST(McMutationTest, CleanVariantsStayClean) {
  {
    McOptions options = BaseOptions();
    options.strategy.max_depth = 40;
    options.max_schedules = 1000;
    const ExploreStats stats =
        Explore("stale_ballot", StrategyKind::kRandomWalk, options);
    EXPECT_FALSE(stats.violation_found)
        << stats.counterexample.violation.source << "/"
        << stats.counterexample.violation.checker << ": "
        << stats.counterexample.violation.detail;
  }
  {
    McOptions options = BaseOptions();
    options.strategy.max_depth = 60;
    options.max_schedules = 300;
    const ExploreStats stats =
        Explore("lost_merge", StrategyKind::kRandomWalk, options);
    EXPECT_FALSE(stats.violation_found)
        << stats.counterexample.violation.source << "/"
        << stats.counterexample.violation.checker << ": "
        << stats.counterexample.violation.detail;
  }
  {
    McOptions options = BaseOptions();
    options.strategy.max_depth = 40;
    options.strategy.delay_budget = 14;
    options.max_schedules = 20000;
    const ExploreStats stats =
        Explore("bootstrap_wedge", StrategyKind::kDelayBounded, options);
    EXPECT_FALSE(stats.violation_found)
        << stats.counterexample.violation.source << "/"
        << stats.counterexample.violation.checker << ": "
        << stats.counterexample.violation.detail;
  }
  {
    McOptions options = BaseOptions();
    options.strategy.max_depth = 40;
    options.max_schedules = 500;
    const ExploreStats stats =
        Explore("batched_read", StrategyKind::kRandomWalk, options);
    EXPECT_FALSE(stats.violation_found)
        << stats.counterexample.violation.source << "/"
        << stats.counterexample.violation.checker << ": "
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
