// Leader-side driver of structural group operations.
//
// One driver per hosted replica. All durable state lives in the group state
// machine (committed through Paxos); the driver is pure volatile glue that
// (a) pushes a coordinator transaction through prepare -> decide -> notify,
// (b) answers the participant side, and (c) runs the recovery backstops
// (re-driving after leader changes, status queries when frozen too long).
// Any driver can crash at any point; a successor rebuilds its agenda from
// the state machine.

#ifndef SCATTER_SRC_TXN_GROUP_OP_DRIVER_H_
#define SCATTER_SRC_TXN_GROUP_OP_DRIVER_H_

#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/status.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/membership/commands.h"
#include "src/membership/group_state_machine.h"
#include "src/paxos/replica.h"
#include "src/ring/group_info.h"
#include "src/sim/simulator.h"
#include "src/txn/messages.h"

namespace scatter::txn {

struct TxnConfig {
  // Resend cadence for unacknowledged prepare / decision messages.
  TimeMicros resend_interval = Millis(500);

  // Seeded bug (test-only; see tests/mc_mutation_test.cc): when the
  // answered prepare was a resend, the coordinator records the reply with
  // its data payload dropped, so a commit merges/moves membership but loses
  // the participant's keys. Must stay off outside tests.
  bool bug_drop_resent_prepare_payload = false;
};

// Transport the driver needs from its hosting node.
class DriverHost {
 public:
  virtual ~DriverHost() = default;
  virtual void SendToNode(NodeId to, sim::MessagePtr message) = 0;
};

class GroupOpDriver {
 public:
  GroupOpDriver(sim::Simulator* sim, DriverHost* host,
                paxos::Replica* replica,
                membership::GroupStateMachine* state_machine,
                const TxnConfig& config);

  // Re-evaluates the agenda. The host calls this on leadership changes and
  // on structural state-machine changes; the driver also self-schedules a
  // periodic tick.
  void Poke();

  // --- Message entry points (routed by the host) -------------------------
  void OnPrepare(const TxnPrepareMsg& m);
  void OnPrepareReply(const TxnPrepareReplyMsg& m);
  void OnDecision(const TxnDecisionMsg& m);
  void OnDecisionAck(const TxnDecisionAckMsg& m);
  void OnStatusReply(const TxnStatusReplyMsg& m);

  // --- Initiation (leader only; rejected otherwise) ----------------------
  using DoneCallback = std::function<void(Status)>;

  // Splits this group at `split_key` into (left_members, right_members).
  // Single-group atomic operation.
  void StartSplit(Key split_key, std::vector<NodeId> left_members,
                  std::vector<NodeId> right_members, GroupId left_id,
                  GroupId right_id, DoneCallback done);

  // Merges this group with its clockwise successor (this group
  // coordinates). `successor` must be the current cached successor info.
  void StartMerge(const ring::GroupInfo& successor, GroupId merged_id,
                  uint64_t txn_id, DoneCallback done);

  // Moves the boundary with the clockwise successor to `new_boundary`.
  void StartRepartition(const ring::GroupInfo& successor, Key new_boundary,
                        uint64_t txn_id, DoneCallback done);

  // Thin view over this driver's cells in the MetricsRegistry
  // ("txn.<field>" scoped to (node, group)); see Replica::Stats.
  struct Stats {
    Stats(obs::MetricsRegistry& registry, NodeId node, GroupId group);
    Stats(const Stats&) = delete;  // a copy would alias the live cells
    Stats& operator=(const Stats&) = delete;

    Counter& txns_started;
    Counter& txns_committed;
    Counter& txns_aborted;
    Counter& status_queries_sent;
    Counter& prepares_answered;
  };
  const Stats& stats() const { return stats_; }

  // Coordinator-side 2PC progress. Public so the invariant auditor can
  // validate the driver against the legal transition lattice.
  enum class Phase {
    kIdle,
    kStarting,    // CoordStart proposed, not yet applied
    kPreparing,   // prepare sent, awaiting participant reply
    kDeciding,    // CoordDecide proposed, not yet applied
    kNotifying,   // decision committed locally, awaiting participant ack
  };
  static const char* PhaseName(Phase phase);

  // The legal prepare/commit/abort lattice. Finish (-> kIdle) is reachable
  // from anywhere; forward progress is strictly kIdle -> kStarting ->
  // kPreparing -> kDeciding -> kNotifying, except that a successor leader
  // rebuilding its agenda from the state machine enters at kPreparing.
  static bool LegalPhaseTransition(Phase from, Phase to);

  Phase phase() const { return phase_; }
  // Id of the transaction the coordinator side is driving (nullopt when
  // idle).
  std::optional<uint64_t> active_txn_id() const {
    return txn_ ? std::optional<uint64_t>(txn_->id) : std::nullopt;
  }

  // Mutation-testing hook: forces the raw phase without going through the
  // transition lattice, so auditor tests can prove illegal states are
  // detected. Never called by protocol code.
  void ForcePhaseForTest(Phase phase) { phase_ = phase; }

 private:
  void StartTxn(membership::RingTxn txn, DoneCallback done);
  // Moves phase_ along the lattice, checking legality.
  void TransitionTo(Phase to);
  void SendPrepare();
  void Decide(bool commit);
  void SendDecision();
  void Finish(Status status);
  void MaybeStatusQuery();
  void ScheduleTick();
  void ProposeDecide(uint64_t txn_id, bool commit, NodeId ack_to);
  const std::vector<NodeId>& SuccessorMembers() const;
  bool IsLeader() const { return replica_->is_leader(); }

  // Fills a positive prepare reply with this group's contribution
  // (participant side).
  void FillParticipantReply(TxnPrepareReplyMsg* reply) const;

  sim::Simulator* sim_;
  DriverHost* host_;
  paxos::Replica* replica_;
  membership::GroupStateMachine* sm_;
  TxnConfig cfg_;
  Rng rng_;

  // Volatile coordinator-side state (rebuilt after leader change by Poke).
  Phase phase_ = Phase::kIdle;
  std::optional<membership::RingTxn> txn_;
  DoneCallback done_;
  TimeMicros phase_started_ = 0;
  TimeMicros last_send_ = 0;
  size_t participant_cursor_ = 0;  // member round-robin for resends
  size_t prepare_sends_ = 0;       // prepares sent for the current txn
  // Participant contribution captured from the prepare reply.
  std::optional<membership::Contribution> part_;

  // Participant-side backstop bookkeeping.
  TimeMicros frozen_since_ = 0;
  TimeMicros last_status_query_ = 0;
  size_t coord_cursor_ = 0;
  bool decide_in_flight_ = false;

  // Parent span of the whole multi-group operation (coordinator side);
  // prepare/decision sends are stamped with it so every participant span
  // parents back to it across groups. Closed in Finish.
  obs::TraceContext op_ctx_;

  Stats stats_;
  sim::TimerOwner timers_;
};

}  // namespace scatter::txn

#endif  // SCATTER_SRC_TXN_GROUP_OP_DRIVER_H_
