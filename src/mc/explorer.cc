#include "src/mc/explorer.h"

#include <algorithm>
#include <chrono>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/random.h"
#include "src/mc/harness.h"
#include "src/mc/scenario.h"
#include "src/mc/walk.h"

namespace scatter::mc {

namespace {

// Replay budget of the greedy counterexample minimization.
constexpr size_t kMinimizeMaxReplays = 200;

void AppendJsonStringField(const std::string& key, const std::string& value,
                           std::string* out) {
  *out += "\"" + key + "\": \"";
  for (char c : value) {
    if (c == '"' || c == '\\') {
      out->push_back('\\');
    }
    out->push_back(c);
  }
  *out += "\"";
}

// The wall-clock budget only bounds how long the checker searches; it never
// influences which schedules are explored or what any schedule observes.
// LINT-ALLOW(determinism-ambient): wall-clock search budget, not sim state.
using WallClock = std::chrono::steady_clock;

double Elapsed(WallClock::time_point start) {
  return std::chrono::duration<double>(WallClock::now() - start).count();
}

}  // namespace

std::string ExploreStats::ToJson() const {
  std::string out = "{";
  AppendJsonStringField("scenario", scenario, &out);
  out += ", \"schedules\": " + std::to_string(schedules);
  out += ", \"decisions\": " + std::to_string(decisions);
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", seconds);
  out += ", \"seconds\": " + std::string(buf);
  std::snprintf(buf, sizeof(buf), "%.1f", SchedulesPerSecond());
  out += ", \"schedules_per_sec\": " + std::string(buf);
  out += ", \"violation_found\": ";
  out += violation_found ? "true" : "false";
  if (violation_found) {
    out += ", ";
    AppendJsonStringField("violation_source", counterexample.violation.source,
                          &out);
    out += ", ";
    AppendJsonStringField("violation_checker",
                          counterexample.violation.checker, &out);
  }
  out += "}";
  return out;
}

ExploreStats Explore(const std::string& scenario_name,
                     const McOptions& options) {
  const McScenario scenario = MakeScenario(scenario_name);
  RandomWalk walk(options.max_depth, options.walk_seed);

  ExploreStats stats;
  stats.scenario = scenario_name;

  const auto start = WallClock::now();
  for (uint64_t i = 0; i < options.max_schedules; ++i) {
    if (Elapsed(start) > options.wall_budget_seconds) {
      break;
    }
    walk.BeginSchedule(i);
    McHarness harness(scenario, options.seed);
    harness.Start();
    std::vector<Choice> schedule;
    while (!harness.violated()) {
      const std::vector<Choice> enabled = harness.EnabledChoices();
      if (enabled.empty()) {
        break;
      }
      const size_t pick = walk.Pick(enabled, schedule.size());
      if (pick == RandomWalk::kCut) {
        break;
      }
      SCATTER_CHECK(pick < enabled.size());
      const Choice choice = enabled[pick];
      SCATTER_CHECK(harness.Execute(choice));
      schedule.push_back(choice);
      stats.decisions++;
    }
    harness.FinishSchedule();
    stats.schedules++;
    if (harness.violated()) {
      stats.violation_found = true;
      Counterexample ce;
      ce.scenario = scenario_name;
      ce.seed = options.seed;
      ce.strategy = RandomWalk::kName;
      ce.violation = harness.violation();
      ce.schedule = MinimizeSchedule(scenario_name, options.seed, schedule,
                                     harness.violation());
      stats.counterexample = std::move(ce);
      if (!options.counterexample_path.empty()) {
        std::string error;
        if (!stats.counterexample.WriteFile(options.counterexample_path,
                                            &error)) {
          SCATTER_WARN() << "mc: failed to write counterexample: " << error;
        }
      }
      break;
    }
  }
  stats.seconds = Elapsed(start);
  return stats;
}

ReplayResult ReplaySchedule(const std::string& scenario_name, uint64_t seed,
                            const std::vector<Choice>& schedule) {
  const McScenario scenario = MakeScenario(scenario_name);
  McHarness harness(scenario, seed);
  harness.Start();
  ReplayResult result;
  for (const Choice& choice : schedule) {
    if (harness.violated()) {
      break;
    }
    if (!harness.Execute(choice)) {
      result.diverged = true;
      result.executed = harness.executed().size();
      return result;
    }
  }
  harness.FinishSchedule();
  result.executed = harness.executed().size();
  if (harness.violated()) {
    result.violation = harness.violation();
  }
  return result;
}

std::vector<Choice> MinimizeSchedule(const std::string& scenario_name,
                                     uint64_t seed,
                                     const std::vector<Choice>& schedule,
                                     const McViolation& violation) {
  size_t replays = 0;
  auto reproduces = [&](const std::vector<Choice>& candidate,
                        size_t* executed) {
    replays++;
    const ReplayResult r = ReplaySchedule(scenario_name, seed, candidate);
    if (executed != nullptr) {
      *executed = r.executed;
    }
    return !r.diverged && r.violation.has_value() &&
           SameViolation(*r.violation, violation);
  };

  // Truncate to the decisions actually executed before the violation.
  size_t executed = schedule.size();
  if (!reproduces(schedule, &executed)) {
    return schedule;  // should not happen; keep the original
  }
  std::vector<Choice> current(schedule.begin(),
                              schedule.begin() +
                                  std::min(executed, schedule.size()));

  bool improved = true;
  while (improved && replays < kMinimizeMaxReplays) {
    improved = false;
    for (size_t i = current.size(); i-- > 0 && replays < kMinimizeMaxReplays;) {
      std::vector<Choice> candidate = current;
      candidate.erase(candidate.begin() + static_cast<std::ptrdiff_t>(i));
      if (reproduces(candidate, nullptr)) {
        current = std::move(candidate);
        improved = true;
      }
    }
  }
  return current;
}

bool RandomRunViolates(const std::string& scenario_name, uint64_t seed) {
  const McScenario scenario = MakeScenario(scenario_name);
  McHarness harness(scenario, seed);
  harness.Start(/*controlled=*/false);
  Rng rng(MixHash(seed, HashBytes("mc-random-baseline")));

  // Sample fault times over a horizon comparable to the protocol timeouts
  // the scenario compresses — the same fault surface the explorer gets,
  // minus the ability to aim.
  const TimeMicros horizon = Seconds(2);
  auto random_time = [&rng, horizon]() {
    return static_cast<TimeMicros>(
        rng.Below(static_cast<uint64_t>(horizon)));
  };
  struct TimedFault {
    TimeMicros at;
    Choice choice;
  };
  std::vector<TimedFault> faults;
  if (!harness.partition().empty() && rng.Bernoulli(0.75)) {
    const TimeMicros at = random_time();
    faults.push_back({at, Choice{ChoiceKind::kPartition, 0, kInvalidNode}});
    faults.push_back({at + 1 + random_time(),
                      Choice{ChoiceKind::kHeal, 0, kInvalidNode}});
  }
  if (!harness.crash_candidates().empty() &&
      harness.scenario().crash_budget > 0 && rng.Bernoulli(0.75)) {
    const std::vector<NodeId>& candidates = harness.crash_candidates();
    faults.push_back({random_time(),
                      Choice{ChoiceKind::kCrash,
                             candidates[rng.Index(candidates.size())],
                             kInvalidNode}});
  }
  if (harness.scenario().spawn_budget > 0 && rng.Bernoulli(0.75)) {
    faults.push_back(
        {random_time(), Choice{ChoiceKind::kSpawn, 0, kInvalidNode}});
  }
  std::sort(faults.begin(), faults.end(),
            [](const TimedFault& a, const TimedFault& b) {
              return a.at < b.at;
            });

  TimeMicros cursor = 0;
  for (const TimedFault& f : faults) {
    if (harness.violated()) {
      break;
    }
    if (f.at > cursor) {
      harness.RunUncontrolled(f.at - cursor);
      cursor = f.at;
    }
    harness.Execute(f.choice);  // ignore infeasible (e.g. node already dead)
  }
  if (!harness.violated() && horizon > cursor) {
    harness.RunUncontrolled(horizon - cursor);
  }
  harness.FinishSchedule();
  return harness.violated();
}

}  // namespace scatter::mc
