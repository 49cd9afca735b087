// Model-checking scenarios: a deterministic starting state plus the
// decision surface the explorer may exercise from it.
//
// A scenario fixes the cluster configuration (usually with compressed
// protocol timeouts, so interesting windows are reachable at small decision
// depth), a setup phase executed under normal uncontrolled scheduling (the
// same seed always reaches the same steady state), the operations injected
// when model-checked execution begins, the fault budget offered as decision
// points, and the properties checked: the auditor's invariant set after
// every decision, post-hoc linearizability over the recorded client
// history, and an optional liveness goal evaluated after a fair epilogue.

#ifndef SCATTER_SRC_MC_SCENARIO_H_
#define SCATTER_SRC_MC_SCENARIO_H_

#include <functional>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/cluster.h"

namespace scatter::mc {

class McHarness;

struct McScenario {
  std::string name;

  // Base cluster configuration; the per-run seed overrides cluster.seed.
  core::ClusterConfig cluster;

  // Uncontrolled warm-up before control is taken (bootstrap, elections,
  // initial data). Deterministic per seed.
  TimeMicros setup_run = Seconds(2);
  // Optional extra setup under uncontrolled scheduling (e.g. seed data and
  // wait for it to commit). Runs before control is taken.
  std::function<void(McHarness&)> setup;

  // Runs at the instant control is taken: inject client ops / structural
  // requests whose message flow the explorer then schedules.
  std::function<void(McHarness&)> on_start;

  // --- Fault decision surface -------------------------------------------
  // How many crash / spawn decisions a schedule may take.
  size_t crash_budget = 0;
  size_t spawn_budget = 0;
  // How many restart decisions a schedule may take (reviving a node crashed
  // earlier in the same schedule). Requires cluster persistence on.
  size_t restart_budget = 0;
  // When true, a restart first wipes the node's disk: the crash-amnesia leg
  // the durability scenarios contrast with crash-with-disk recovery.
  bool restart_amnesiac = false;
  // Nodes the explorer may crash (evaluated once, at control start).
  std::function<std::vector<NodeId>(McHarness&)> crash_candidates;
  // When set, the explorer may install this partition once (and heal it).
  // Island lists must cover every id that should keep communicating —
  // including client ids; uncovered ids are cut off from everyone.
  std::function<std::vector<std::vector<NodeId>>(McHarness&)>
      partition_islands;

  // --- Properties ---------------------------------------------------------
  // Auditor property subset (empty = all; see analysis::MakeStandardCheckers).
  std::vector<std::string> properties;
  // Liveness goal, evaluated after the fair epilogue; returning false is a
  // violation. The epilogue delivers everything still pending and runs the
  // cluster fairly, so only genuine wedges — not adversarial starvation —
  // fail the goal.
  std::function<bool(McHarness&)> goal;

  // Budget for probe reads and writes to complete after the epilogue.
  TimeMicros probe_run = Seconds(3);
};

// Scenario registry. MakeScenario CHECK-fails on unknown names; mutation
// variants ("<name>+<mutation>") enable the matching seeded bug flag.
McScenario MakeScenario(const std::string& name);
std::vector<std::string> ScenarioNames();

}  // namespace scatter::mc

#endif  // SCATTER_SRC_MC_SCENARIO_H_
