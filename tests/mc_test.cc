// Model-checking harness mechanics: decision serialization, the scheduler
// seam, replay determinism, and the random walk.
// Mutation-detection experiments live in mc_mutation_test.cc.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "src/mc/decision.h"
#include "src/mc/explorer.h"
#include "src/mc/harness.h"
#include "src/mc/scenario.h"
#include "src/mc/walk.h"

namespace scatter::mc {
namespace {

// ---------------------------------------------------------------------------
// Counterexample serialization
// ---------------------------------------------------------------------------

Counterexample SampleCounterexample() {
  Counterexample ce;
  ce.scenario = "split";
  ce.seed = 42;
  ce.strategy = "random_walk";
  ce.schedule = {
      Choice{ChoiceKind::kDeliver, 7, 3},
      Choice{ChoiceKind::kAdvanceTime, 0, kInvalidNode},
      Choice{ChoiceKind::kCrash, 2, kInvalidNode},
      Choice{ChoiceKind::kSpawn, 0, kInvalidNode},
      Choice{ChoiceKind::kPartition, 0, kInvalidNode},
      Choice{ChoiceKind::kHeal, 0, kInvalidNode},
  };
  ce.violation = McViolation{"auditor", "paxos", "divergence at slot 9"};
  return ce;
}

TEST(McDecisionTest, CounterexampleJsonRoundTrip) {
  const Counterexample ce = SampleCounterexample();
  const std::string json = ce.ToJson();

  Counterexample back;
  std::string error;
  ASSERT_TRUE(Counterexample::FromJson(json, &back, &error)) << error;
  EXPECT_EQ(back.version, ce.version);
  EXPECT_EQ(back.scenario, ce.scenario);
  EXPECT_EQ(back.seed, ce.seed);
  EXPECT_EQ(back.strategy, ce.strategy);
  EXPECT_TRUE(SameViolation(back.violation, ce.violation));
  EXPECT_EQ(back.violation.detail, ce.violation.detail);
  ASSERT_EQ(back.schedule.size(), ce.schedule.size());
  for (size_t i = 0; i < ce.schedule.size(); ++i) {
    EXPECT_TRUE(SameChoice(back.schedule[i], ce.schedule[i])) << i;
    EXPECT_EQ(back.schedule[i].dest, ce.schedule[i].dest) << i;
  }
}

TEST(McDecisionTest, FromJsonRejectsMalformedInput) {
  Counterexample out;
  std::string error;
  EXPECT_FALSE(Counterexample::FromJson("", &out, &error));
  EXPECT_FALSE(Counterexample::FromJson("{", &out, &error));
  EXPECT_FALSE(Counterexample::FromJson("[]", &out, &error));
  EXPECT_FALSE(Counterexample::FromJson("{\"version\": 1}", &out, &error));
  EXPECT_FALSE(Counterexample::FromJson(
      "{\"version\": 1, \"scenario\": \"x\", \"seed\": 1, "
      "\"strategy\": \"s\", \"violation\": {\"source\": \"a\", "
      "\"checker\": \"\", \"detail\": \"\"}, "
      "\"schedule\": [{\"kind\": \"nonsense\", \"arg\": 0}]}",
      &out, &error));
  EXPECT_FALSE(error.empty());
}

TEST(McDecisionTest, CounterexampleRoundTripsMaxSeed) {
  Counterexample ce = SampleCounterexample();
  ce.seed = UINT64_MAX;
  ce.schedule[0].arg = UINT64_MAX;
  Counterexample back;
  std::string error;
  ASSERT_TRUE(Counterexample::FromJson(ce.ToJson(), &back, &error)) << error;
  EXPECT_EQ(back.seed, UINT64_MAX);
  EXPECT_EQ(back.schedule[0].arg, UINT64_MAX);
}

TEST(McDecisionTest, FromJsonRejectsSeedOverflowAndTrailingGarbage) {
  const std::string json = SampleCounterexample().ToJson();
  Counterexample out;
  std::string error;
  ASSERT_TRUE(Counterexample::FromJson(json, &out, &error)) << error;

  // UINT64_MAX + 2 must not wrap around to seed 1 and replay another run.
  std::string overflow = json;
  const std::string seed = "\"seed\": 42";
  ASSERT_NE(overflow.find(seed), std::string::npos);
  overflow.replace(overflow.find(seed), seed.size(),
                   "\"seed\": 18446744073709551617");
  error.clear();
  EXPECT_FALSE(Counterexample::FromJson(overflow, &out, &error));
  EXPECT_FALSE(error.empty());

  error.clear();
  EXPECT_FALSE(Counterexample::FromJson(json + "}", &out, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(Counterexample::FromJson(json + "garbage", &out, &error));
}

// ---------------------------------------------------------------------------
// Harness: scheduler seam + replay determinism
// ---------------------------------------------------------------------------

TEST(McHarnessTest, ControlledStartCapturesSendsInsteadOfDelivering) {
  McHarness harness(MakeScenario("split"), /*seed=*/1);
  harness.Start();
  // The split scenario's on_start issues client puts and a split request;
  // under control those RPCs sit in the pending set.
  EXPECT_FALSE(harness.pending().empty());
  const std::vector<Choice> enabled = harness.EnabledChoices();
  ASSERT_FALSE(enabled.empty());
  // Canonical order: deliveries (by capture id) first.
  EXPECT_EQ(enabled.front().kind, ChoiceKind::kDeliver);
  uint64_t last_id = 0;
  for (const Choice& c : enabled) {
    if (c.kind != ChoiceKind::kDeliver) {
      break;
    }
    EXPECT_GT(c.arg, last_id);
    last_id = c.arg;
  }
}

TEST(McHarnessTest, ExecuteRejectsIllegalChoices) {
  McHarness harness(MakeScenario("split"), /*seed=*/1);
  harness.Start();
  // No such capture id.
  EXPECT_FALSE(harness.Execute(Choice{ChoiceKind::kDeliver, 999999, 1}));
  // No partition configured for this scenario, nothing to heal.
  EXPECT_FALSE(harness.Execute(Choice{ChoiceKind::kPartition, 0}));
  EXPECT_FALSE(harness.Execute(Choice{ChoiceKind::kHeal, 0}));
  // No crash budget.
  EXPECT_FALSE(harness.Execute(Choice{ChoiceKind::kCrash, 1}));
  EXPECT_TRUE(harness.executed().empty());
}

// What a test can see of a harness's run so far besides its decisions:
// the simulator's event count and clock, and the network's send count
// (captured sends included).
struct RunCounts {
  uint64_t events = 0;
  uint64_t messages = 0;
  TimeMicros now = 0;
  friend bool operator==(const RunCounts&, const RunCounts&) = default;
};

RunCounts CountsOf(McHarness& harness) {
  return RunCounts{harness.cluster().sim().events_processed(),
                   harness.cluster().net().messages_sent(),
                   harness.cluster().sim().now()};
}

// Step `step` takes the (step mod n)-th of the n enabled choices, so the
// schedule fires timers as well as deliveries.
size_t RoundRobinPick(const std::vector<Choice>& enabled, int step) {
  return static_cast<size_t>(step) % enabled.size();
}

constexpr int kSteps = 12;

// The determinism contract: (seed, decision sequence) fully determines the
// run. Two harnesses fed the same choices expose identical enabled sets,
// executed decisions, event and message counts and clocks at every step.
TEST(McHarnessTest, SameScheduleYieldsSameFingerprints) {
  const McScenario scenario = MakeScenario("split");
  McHarness a(scenario, /*seed=*/7);
  McHarness b(scenario, /*seed=*/7);
  a.Start();
  b.Start();
  for (int step = 0; step < kSteps; ++step) {
    ASSERT_TRUE(CountsOf(a) == CountsOf(b)) << "step " << step;
    ASSERT_EQ(a.executed().size(), b.executed().size()) << "step " << step;
    for (size_t i = 0; i < a.executed().size(); ++i) {
      EXPECT_TRUE(SameChoice(a.executed()[i], b.executed()[i]));
    }
    const std::vector<Choice> ea = a.EnabledChoices();
    const std::vector<Choice> eb = b.EnabledChoices();
    ASSERT_EQ(ea.size(), eb.size()) << "step " << step;
    for (size_t i = 0; i < ea.size(); ++i) {
      EXPECT_TRUE(SameChoice(ea[i], eb[i]));
    }
    if (ea.empty()) {
      break;
    }
    ASSERT_TRUE(a.Execute(ea[RoundRobinPick(ea, step)]));
    ASSERT_TRUE(b.Execute(eb[RoundRobinPick(eb, step)]));
  }
}

TEST(McHarnessTest, DifferentSeedsDiverge) {
  const McScenario scenario = MakeScenario("split");
  McHarness a(scenario, /*seed=*/1);
  McHarness b(scenario, /*seed=*/2);
  a.Start();
  b.Start();
  for (McHarness* h : {&a, &b}) {
    for (int step = 0; step < kSteps; ++step) {
      const std::vector<Choice> enabled = h->EnabledChoices();
      if (enabled.empty()) {
        break;
      }
      ASSERT_TRUE(h->Execute(enabled[RoundRobinPick(enabled, step)]));
    }
  }
  EXPECT_FALSE(CountsOf(a) == CountsOf(b));
}

// ---------------------------------------------------------------------------
// Explorer + random walk
// ---------------------------------------------------------------------------

McOptions QuickOptions() {
  McOptions options;
  options.wall_budget_seconds = 20.0;
  options.counterexample_path = "";  // tests never write artifacts
  return options;
}

TEST(McExplorerTest, CleanScenarioExploresWithoutViolation) {
  McOptions options = QuickOptions();
  options.max_schedules = 300;
  options.max_depth = 10;
  const ExploreStats stats = Explore("split", options);
  EXPECT_FALSE(stats.violation_found);
  EXPECT_EQ(stats.schedules, 300u);
  EXPECT_GT(stats.decisions, stats.schedules);
  EXPECT_FALSE(stats.ToJson().empty());
}

TEST(McExplorerTest, RandomWalkSchedulesDifferButReplayDeterministically) {
  // Two walks with different walk seeds pick different schedules; replaying
  // a recorded walk schedule reproduces the same decisions.
  const McScenario scenario = MakeScenario("split");

  auto run_walk = [&](uint64_t walk_seed) {
    RandomWalk walk(/*max_depth=*/10, walk_seed);
    walk.BeginSchedule(0);
    McHarness harness(scenario, /*seed=*/1);
    harness.Start();
    std::vector<Choice> schedule;
    for (size_t depth = 0;; ++depth) {
      const std::vector<Choice> enabled = harness.EnabledChoices();
      if (enabled.empty()) {
        break;
      }
      const size_t pick = walk.Pick(enabled, depth);
      if (pick == RandomWalk::kCut) {
        break;
      }
      EXPECT_TRUE(harness.Execute(enabled[pick]));
      schedule.push_back(enabled[pick]);
    }
    return schedule;
  };

  const std::vector<Choice> walk1 = run_walk(1);
  const std::vector<Choice> walk1_again = run_walk(1);
  const std::vector<Choice> walk2 = run_walk(2);
  ASSERT_EQ(walk1.size(), walk1_again.size());
  for (size_t i = 0; i < walk1.size(); ++i) {
    EXPECT_TRUE(SameChoice(walk1[i], walk1_again[i]));
  }
  bool differs = walk1.size() != walk2.size();
  for (size_t i = 0; !differs && i < walk1.size(); ++i) {
    differs = !SameChoice(walk1[i], walk2[i]);
  }
  EXPECT_TRUE(differs);

  const ReplayResult replay = ReplaySchedule("split", /*seed=*/1, walk1);
  EXPECT_FALSE(replay.diverged);
  EXPECT_EQ(replay.executed, walk1.size());
}

TEST(McExplorerTest, ReplayDetectsForeignSchedule) {
  // A schedule recorded under one seed generally does not fit another: the
  // capture ids refer to sends that never happen.
  McHarness harness(MakeScenario("split"), /*seed=*/1);
  harness.Start();
  std::vector<Choice> schedule;
  for (int i = 0; i < 8; ++i) {
    const std::vector<Choice> enabled = harness.EnabledChoices();
    if (enabled.empty()) {
      break;
    }
    ASSERT_TRUE(harness.Execute(enabled.back()));
    schedule.push_back(enabled.back());
  }
  schedule.push_back(Choice{ChoiceKind::kDeliver, 999999, 1});
  const ReplayResult replay = ReplaySchedule("split", /*seed=*/1, schedule);
  EXPECT_TRUE(replay.diverged);
}

TEST(McScenarioTest, AllScenariosConstruct) {
  for (const std::string& name : ScenarioNames()) {
    const McScenario scenario = MakeScenario(name);
    EXPECT_EQ(scenario.name, name);
    EXPECT_GT(scenario.cluster.initial_nodes, 0u) << name;
  }
}

}  // namespace
}  // namespace scatter::mc
