// McHarness: one controlled execution of a scenario.
//
// The harness owns a fresh, seeded cluster and installs itself as the
// network's Scheduler (src/sim/scheduler.h): after the uncontrolled setup
// phase, every non-self-send is captured into a pending set instead of
// being scheduled, and execution advances only through explicit decisions —
// deliver a pending message, fire the earliest timer (advance_time), or
// inject a fault from the scenario's budget. After every decision the
// invariant auditor runs; at schedule end a fair epilogue (pending messages
// flushed, cluster run normally) precedes probe reads, the post-hoc
// linearizability check, and the scenario's liveness goal.
//
// Determinism: all randomness flows from the cluster seed, captured sends
// consume no latency RNG, and capture ids are assigned in send order — so
// (seed, decision sequence) fully determines the run, which is what makes
// schedules replayable.
//
// For the harness's lifetime SCATTER_CHECK failures anywhere in the system
// under test are intercepted (SetCheckFailureHandler) and recorded as
// violations with source "check" instead of aborting the process: a
// schedule that drives a replica into one of its own internal invariant
// checks is a finding, not a crash of the explorer.

#ifndef SCATTER_SRC_MC_HARNESS_H_
#define SCATTER_SRC_MC_HARNESS_H_

#include <deque>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/analysis/invariant_auditor.h"
#include "src/common/types.h"
#include "src/core/cluster.h"
#include "src/mc/decision.h"
#include "src/mc/scenario.h"
#include "src/sim/scheduler.h"
#include "src/verify/history.h"

namespace scatter::mc {

class McHarness : public sim::Scheduler {
 public:
  struct PendingMessage {
    uint64_t id = 0;
    sim::MessagePtr msg;
  };

  McHarness(const McScenario& scenario, uint64_t seed);
  ~McHarness() override;

  McHarness(const McHarness&) = delete;
  McHarness& operator=(const McHarness&) = delete;

  // Runs the uncontrolled setup phase, then (when `controlled`) takes
  // scheduling control and runs the scenario's on_start hook. With
  // controlled=false the harness becomes a plain instrumented run — the
  // random-baseline mode the explorer compares against.
  void Start(bool controlled = true);

  // Decision points currently enabled, in canonical order: deliveries in
  // capture order, then advance_time, then faults.
  std::vector<Choice> EnabledChoices();

  // Executes one decision (plus the same-instant event cascade it
  // triggers) and re-runs the auditor. Returns false — without executing —
  // if the choice is not currently legal (replay divergence).
  bool Execute(const Choice& choice);

  // Fair epilogue + probe reads + linearizability + liveness goal.
  // No-op if a violation was already recorded.
  void FinishSchedule();

  // Runs the cluster uncontrolled for `d`, converting an internal
  // SCATTER_CHECK failure into a recorded "check" violation (used by the
  // random-baseline mode, which advances time in slices between faults).
  void RunUncontrolled(TimeMicros d);

  bool violated() const { return violation_.has_value(); }
  const McViolation& violation() const { return *violation_; }

  core::Cluster& cluster() { return *cluster_; }
  const std::deque<PendingMessage>& pending() const { return pending_; }
  const std::vector<Choice>& executed() const { return executed_; }
  NodeId client_id() const;
  const McScenario& scenario() const { return scenario_; }

  // --- Scenario helpers ----------------------------------------------------
  // Fire-and-forget client write of a globally unique value, recorded in
  // the history; its key is probed with a read during the epilogue. `then`,
  // when set, runs once the write completes.
  void ClientPut(Key key, const std::string& tag,
                 std::function<void()> then = nullptr);
  // Fire-and-forget read through `client`, recorded in the history.
  void ClientGet(core::Client* client, Key key);
  // Adds a client whose routing cache starts as `ring`, stale hints and
  // all. The harness's own client stays the one ClientPut uses.
  core::Client* AddClient(const std::vector<ring::GroupInfo>& ring);
  // The node leading `group`, or kInvalidNode.
  NodeId LeaderOf(GroupId group);
  // Starts a structural operation on the group's current leader node.
  // Returns false if the group has no leader (scenario setup too short).
  bool RequestMerge(GroupId group);
  bool RequestSplit(GroupId group);
  // Blocking probe write during the epilogue (liveness goals); runs the
  // simulator up to scenario.probe_run. True on definite success.
  bool ProbeWrite(Key key);
  // Deterministic key inside the index-th group's range / the group's id
  // (groups ordered by range start, from the ring layout frozen after the
  // setup run).
  Key KeyInGroup(size_t group_index) const;
  GroupId GroupIdAt(size_t group_index) const;
  // Fault surface computed at control start.
  const std::vector<NodeId>& crash_candidates() const { return crash_list_; }
  const std::vector<std::vector<NodeId>>& partition() const {
    return islands_;
  }

  const verify::HistoryRecorder& history() const { return history_; }

 private:
  bool OnSend(const sim::MessagePtr& message) override;
  // The body of Execute, without cascade draining or auditing. Returns
  // false if the choice is not legal in the current state.
  bool ExecuteChoice(const Choice& choice);
  // Records an internal SCATTER_CHECK failure (intercepted via the
  // handler installed for the harness's lifetime) as a violation with
  // source "check"; `where` is the stable file:line identity.
  void RecordCheckViolation(const std::string& where, const std::string& cond);
  // Runs every event due at the current instant (handler cascades).
  void DrainTurn();
  // Auditor pass + violation collection after a state change.
  void AfterStep();
  void NoteAuditorViolations();
  void IssueProbeReads();

  const McScenario scenario_;
  std::unique_ptr<core::Cluster> cluster_;
  std::unique_ptr<analysis::InvariantAuditor> auditor_;
  core::Client* client_ = nullptr;

  bool capture_ = false;
  std::deque<PendingMessage> pending_;
  uint64_t next_capture_id_ = 1;
  uint64_t captured_dropped_ = 0;

  std::vector<Choice> executed_;
  std::optional<McViolation> violation_;

  // Fault state.
  std::vector<NodeId> crash_list_;
  std::vector<std::vector<NodeId>> islands_;
  bool partition_active_ = false;
  size_t crashes_left_ = 0;
  size_t spawns_left_ = 0;
  size_t restarts_left_ = 0;

  // Ring layout frozen after the setup run (KeyInGroup / GroupIdAt).
  std::vector<ring::GroupInfo> groups_;

  verify::HistoryRecorder history_;
  std::vector<Key> written_keys_;
  uint64_t put_seq_ = 0;
  bool finished_ = false;
};

}  // namespace scatter::mc

#endif  // SCATTER_SRC_MC_HARNESS_H_
