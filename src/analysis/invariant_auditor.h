// Continuous runtime invariant auditing.
//
// Scatter's correctness claim is global — linearizable storage WHILE groups
// split, merge, and migrate under churn — but the checks in src/verify run
// either at quiescence (ring_checker) or post-hoc over a completed history
// (linearizability). A transient protocol violation mid-handover can heal
// before either sees it. The InvariantAuditor closes that gap: it hooks the
// simulator's event loop and re-checks safety invariants every N delivered
// events, so a violation is caught within N events of the step that caused
// it, while the guilty state is still live.
//
// Standard checkers (one per subsystem):
//   paxos   — no two replicas of a group disagree on a committed log slot;
//             promised ballots and commit indexes are monotonic per
//             acceptor; at most one leaseholding leader per group; every
//             slot committed at or below the current leader's ballot is
//             present in that leader's log (leader completeness).
//   ring    — no two leader-led groups serve overlapping ranges (distinct
//             groups at any epoch; same group only flagged when both
//             claimants hold a valid lease at the same epoch).
//   groupop — 2PC driver state is internally consistent (a non-idle phase
//             always has a transaction) and every frozen group's active
//             transaction names it in the role it is playing. The legal
//             phase lattice itself is enforced transition-by-transition
//             inside txn::GroupOpDriver.
//   store   — every key held by a replica's KvStore lies inside its group's
//             claimed range.
//   durability — a replica recovered from its own WAL + snapshot never
//             regresses its promised ballot or commit index below the
//             recovered floor, and committed entries restored from disk
//             still match their recovery-time digests while in the log.
//   health  — when the simulator runs an obs::HealthMonitor, no health
//             detector has raised (clean audited runs must be quiet; chaos
//             scenarios that inject faults and expect raises narrow the
//             property set to exclude this). No-op without a monitor.
//
// On violation the auditor dumps the network's ring of recent deliveries
// plus the run's seed as a replayable trace artifact, then aborts the run
// (configurable for the auditor's own mutation tests).

#ifndef SCATTER_SRC_ANALYSIS_INVARIANT_AUDITOR_H_
#define SCATTER_SRC_ANALYSIS_INVARIANT_AUDITOR_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/types.h"
#include "src/core/cluster.h"

namespace scatter::analysis {

struct AuditorOptions {
  // Checkers run after every this many processed simulator events.
  uint64_t every_n_events = 4096;
  // Abort the process after dumping the artifact. Mutation tests disable
  // this and inspect violations() instead.
  bool abort_on_violation = true;
  // Where the trace artifact is written (relative to the working directory).
  std::string artifact_path = "scatter_audit_trace.log";
  // If the simulator has causal tracing enabled, the recorded spans are
  // dumped here as Chrome trace-event JSON alongside the artifact.
  std::string trace_json_path = "scatter_audit_trace.json";
  // Which standard properties to register: any subset of
  // {"paxos", "ring", "groupop", "store", "durability", "health"}.
  // Empty = all of them.
  // The model checker narrows this per scenario; RegisterChecker still adds
  // custom checkers on top.
  std::vector<std::string> properties;
};

struct Violation {
  std::string checker;
  std::string detail;
  TimeMicros at = 0;
  uint64_t events_processed = 0;
};

// One subsystem's invariant check. Checkers may keep state across calls
// (e.g. last-seen ballots for monotonicity); they must not mutate the
// cluster or schedule events.
class Checker {
 public:
  virtual ~Checker() = default;
  virtual const char* name() const = 0;
  virtual void Check(core::Cluster& cluster,
                     std::vector<std::string>* problems) = 0;
};

// Standard per-subsystem checkers (registered by default).
std::unique_ptr<Checker> MakePaxosSafetyChecker();
std::unique_ptr<Checker> MakeRingSafetyChecker();
std::unique_ptr<Checker> MakeGroupOpChecker();
std::unique_ptr<Checker> MakeStoreContainmentChecker();
std::unique_ptr<Checker> MakeDurabilityChecker();
std::unique_ptr<Checker> MakeHealthQuietChecker();

// The standard property set by name ("paxos", "ring", "groupop", "store",
// "durability", "health"). An empty selection returns all of them; unknown
// names CHECK-fail. Fresh
// checker instances each call — checkers keep cross-call state (e.g.
// ballot monotonicity watermarks), so they must never be shared between
// runs.
std::vector<std::unique_ptr<Checker>> MakeStandardCheckers(
    const std::vector<std::string>& properties = {});

class InvariantAuditor {
 public:
  // Installs the audit hook on the cluster's simulator and registers the
  // standard checkers. At most one auditor may be
  // attached to a simulator at a time.
  explicit InvariantAuditor(core::Cluster* cluster,
                            AuditorOptions options = {});
  ~InvariantAuditor();

  InvariantAuditor(const InvariantAuditor&) = delete;
  InvariantAuditor& operator=(const InvariantAuditor&) = delete;

  void RegisterChecker(std::unique_ptr<Checker> checker);

  // Runs every checker immediately (also what the event-loop hook calls).
  void RunOnce();

  const std::vector<Violation>& violations() const { return violations_; }
  uint64_t audits_run() const { return audits_run_; }

 private:
  void DumpArtifact() const;

  core::Cluster* cluster_;
  AuditorOptions opts_;
  std::vector<std::unique_ptr<Checker>> checkers_;
  std::vector<Violation> violations_;
  uint64_t audits_run_ = 0;
};

}  // namespace scatter::analysis

#endif  // SCATTER_SRC_ANALYSIS_INVARIANT_AUDITOR_H_
