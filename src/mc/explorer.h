// The exploration driver: generates schedules with the guided random walk
// (src/mc/walk.h), runs each through a fresh McHarness, and on violation
// minimizes and writes a replayable counterexample.
//
// Everything is replay-based: a schedule is re-executed from scratch by
// re-running its decisions against a fresh harness with the same seed, so
// a counterexample file (scenario, seed, decisions) is a complete,
// deterministic reproduction recipe — tools/mc_replay re-executes it with
// tracing enabled.

#ifndef SCATTER_SRC_MC_EXPLORER_H_
#define SCATTER_SRC_MC_EXPLORER_H_

#include <optional>
#include <string>
#include <vector>

#include "src/mc/decision.h"

namespace scatter::mc {

struct McOptions {
  // Cluster seed every schedule starts from.
  uint64_t seed = 1;
  // Decisions per schedule before the epilogue takes over.
  size_t max_depth = 40;
  // Walk seed; schedule i uses MixHash(walk_seed, i).
  uint64_t walk_seed = 1;
  // Stop conditions: whichever hits first.
  uint64_t max_schedules = 1000000;
  double wall_budget_seconds = 30.0;
  // Where the counterexample artifact is written; empty = don't write.
  std::string counterexample_path = "scatter_mc_counterexample.json";
};

struct ExploreStats {
  std::string scenario;
  uint64_t schedules = 0;
  uint64_t decisions = 0;
  double seconds = 0;
  bool violation_found = false;
  Counterexample counterexample;  // meaningful when violation_found

  double SchedulesPerSecond() const {
    return seconds > 0 ? static_cast<double>(schedules) / seconds : 0;
  }
  std::string ToJson() const;
};

// Walks `scenario_name` until a stop condition or the first violation
// hits. The violation's counterexample is minimized and written to
// options.counterexample_path.
ExploreStats Explore(const std::string& scenario_name,
                     const McOptions& options);

// One deterministic re-execution of a recorded schedule.
struct ReplayResult {
  // A decision in the schedule was not legal at its position (the schedule
  // does not fit this seed / scenario — e.g. a minimization candidate that
  // broke its own prefix).
  bool diverged = false;
  // Decisions executed before the run ended (violation, divergence, or
  // schedule end).
  size_t executed = 0;
  std::optional<McViolation> violation;
};
ReplayResult ReplaySchedule(const std::string& scenario_name, uint64_t seed,
                            const std::vector<Choice>& schedule);

// Greedy counterexample minimization: truncate at the violating decision,
// then repeatedly drop decisions (scanning from the end) while the same
// violation still reproduces.
std::vector<Choice> MinimizeSchedule(const std::string& scenario_name,
                                     uint64_t seed,
                                     const std::vector<Choice>& schedule,
                                     const McViolation& violation);

// Baseline for the mutation-detection experiments: one uncontrolled
// instrumented run of the scenario (normal random delivery order, faults
// injected at seed-derived random times), reporting whether any checked
// property was violated.
bool RandomRunViolates(const std::string& scenario_name, uint64_t seed);

}  // namespace scatter::mc

#endif  // SCATTER_SRC_MC_EXPLORER_H_
