#include "src/txn/group_op_driver.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "src/common/logging.h"
#include "src/common/pooled.h"

namespace scatter::txn {
namespace {

// Coordinator aborts if the participant has not prepared by then.
constexpr TimeMicros kPrepareTimeout = Seconds(3);
// A participant frozen this long without a decision starts status
// queries against the coordinator group's members.
constexpr TimeMicros kStatusQueryAfter = Seconds(4);

}  // namespace

using membership::CoordDecideCommand;
using membership::CoordStartCommand;
using membership::DecideCommand;
using membership::PrepareCommand;
using membership::RingTxn;
using membership::SplitCommand;

const char* GroupOpDriver::PhaseName(Phase phase) {
  switch (phase) {
    case Phase::kIdle:
      return "Idle";
    case Phase::kStarting:
      return "Starting";
    case Phase::kPreparing:
      return "Preparing";
    case Phase::kDeciding:
      return "Deciding";
    case Phase::kNotifying:
      return "Notifying";
  }
  return "Unknown";
}

bool GroupOpDriver::LegalPhaseTransition(Phase from, Phase to) {
  if (to == Phase::kIdle) {
    return true;  // Finish resigns from any phase.
  }
  switch (from) {
    case Phase::kIdle:
      // kPreparing directly when inheriting an in-flight coordinated
      // transaction after a leader change.
      return to == Phase::kStarting || to == Phase::kPreparing;
    case Phase::kStarting:
      return to == Phase::kPreparing;
    case Phase::kPreparing:
      return to == Phase::kDeciding;
    case Phase::kDeciding:
      return to == Phase::kNotifying;
    case Phase::kNotifying:
      return false;  // Only Finish leaves kNotifying.
  }
  return false;
}

namespace {

const char* PhaseMetricName(GroupOpDriver::Phase to) {
  switch (to) {
    case GroupOpDriver::Phase::kIdle:
      return "txn.phase.idle";
    case GroupOpDriver::Phase::kStarting:
      return "txn.phase.starting";
    case GroupOpDriver::Phase::kPreparing:
      return "txn.phase.preparing";
    case GroupOpDriver::Phase::kDeciding:
      return "txn.phase.deciding";
    case GroupOpDriver::Phase::kNotifying:
      return "txn.phase.notifying";
  }
  return "txn.phase.unknown";
}

}  // namespace

GroupOpDriver::Stats::Stats(obs::MetricsRegistry& registry, NodeId node,
                            GroupId group)
    : txns_started(registry.GetCounter("txn.txns_started", node, group)),
      txns_committed(registry.GetCounter("txn.txns_committed", node, group)),
      txns_aborted(registry.GetCounter("txn.txns_aborted", node, group)),
      status_queries_sent(
          registry.GetCounter("txn.status_queries_sent", node, group)),
      prepares_answered(
          registry.GetCounter("txn.prepares_answered", node, group)) {}

void GroupOpDriver::TransitionTo(Phase to) {
  SCATTER_CHECK(LegalPhaseTransition(phase_, to));
  phase_ = to;
  // Phase transitions are rare (a handful per structural op), so the
  // registry lookup here is off every hot path.
  sim_->metrics()
      .GetCounter(PhaseMetricName(to), replica_->self(), sm_->id())
      .Add();
}

GroupOpDriver::GroupOpDriver(sim::Simulator* sim, DriverHost* host,
                             paxos::Replica* replica,
                             membership::GroupStateMachine* state_machine,
                             const TxnConfig& config)
    : sim_(sim),
      host_(host),
      replica_(replica),
      sm_(state_machine),
      cfg_(config),
      rng_(sim->rng().Fork()),
      stats_(sim->metrics(), replica->self(), state_machine->id()),
      timers_(sim) {
  ScheduleTick();
}

void GroupOpDriver::ScheduleTick() {
  timers_.Schedule(cfg_.resend_interval + rng_.Range(0, Millis(50)),
                   [this]() {
                     Poke();
                     ScheduleTick();
                   });
}

void GroupOpDriver::Poke() {
  const bool frozen = sm_->IsFrozen();
  if (!frozen) {
    frozen_since_ = 0;
  } else if (frozen_since_ == 0) {
    frozen_since_ = sim_->now();
  }

  if (!IsLeader()) {
    // Resign the volatile coordinator role; a successor rebuilds it from
    // the state machine.
    if (phase_ != Phase::kIdle) {
      Finish(NotLeaderError("lost leadership mid-transaction"));
    }
    return;
  }

  if (frozen && sm_->state().active->is_coordinator &&
      phase_ == Phase::kIdle) {
    // We inherited an in-flight coordinated transaction (leader change).
    txn_ = sm_->state().active->txn;
    obs::TraceRecorder* tr = sim_->tracer();
    op_ctx_ = obs::StartSpan(tr, "txn.coordinate", replica_->self(), sm_->id());
    obs::Annotate(tr, op_ctx_, "txn_id", txn_->id);
    obs::Annotate(tr, op_ctx_, "inherited", "true");
    TransitionTo(Phase::kPreparing);
    phase_started_ = sim_->now();
    SendPrepare();
    return;
  }

  switch (phase_) {
    case Phase::kIdle:
      break;
    case Phase::kStarting:
    case Phase::kDeciding:
      break;  // Waiting on our own Paxos commit callbacks.
    case Phase::kPreparing:
      if (sim_->now() - phase_started_ > kPrepareTimeout) {
        Decide(false);
      } else if (sim_->now() - last_send_ >= cfg_.resend_interval) {
        SendPrepare();
      }
      break;
    case Phase::kNotifying:
      if (sim_->now() - last_send_ >= cfg_.resend_interval) {
        SendDecision();
      }
      break;
  }

  MaybeStatusQuery();
}

// ---------------------------------------------------------------------------
// Initiation
// ---------------------------------------------------------------------------

void GroupOpDriver::StartSplit(Key split_key, std::vector<NodeId> left_members,
                               std::vector<NodeId> right_members,
                               GroupId left_id, GroupId right_id,
                               DoneCallback done) {
  if (!IsLeader() || sm_->IsFrozen() || sm_->IsRetired()) {
    done(ConflictError("group busy"));
    return;
  }
  auto cmd = std::make_shared<SplitCommand>();
  cmd->split_key = split_key;
  cmd->left_members = std::move(left_members);
  cmd->right_members = std::move(right_members);
  cmd->left_id = left_id;
  cmd->right_id = right_id;
  // Single-group atomic op; still worth a span so splits show up in traces.
  obs::TraceRecorder* tr = sim_->tracer();
  const obs::TraceContext span =
      obs::StartSpan(tr, "txn.split", replica_->self(), sm_->id());
  obs::Annotate(tr, span, "split_key", split_key);
  obs::ScopedContext trace_scope(tr, span);
  replica_->Propose(
      cmd, [this, span, done = std::move(done)](StatusOr<uint64_t> result) {
        obs::EndSpan(sim_->tracer(), span);
        if (!result.ok()) {
          done(result.status());
          return;
        }
        done(sm_->IsRetired() ? Status::Ok()
                              : AbortedError("split rejected at apply"));
      });
}

void GroupOpDriver::StartMerge(const ring::GroupInfo& successor,
                               GroupId merged_id, uint64_t txn_id,
                               DoneCallback done) {
  RingTxn txn;
  txn.id = txn_id;
  txn.kind = RingTxn::Kind::kMerge;
  txn.coord_group = sm_->id();
  txn.part_group = successor.id;
  txn.coord_range = sm_->range();
  txn.part_range = successor.range;
  txn.coord_epoch = sm_->epoch();
  txn.part_epoch = successor.epoch;
  txn.merged_id = merged_id;
  StartTxn(std::move(txn), std::move(done));
}

void GroupOpDriver::StartRepartition(const ring::GroupInfo& successor,
                                     Key new_boundary, uint64_t txn_id,
                                     DoneCallback done) {
  RingTxn txn;
  txn.id = txn_id;
  txn.kind = RingTxn::Kind::kRepartition;
  txn.coord_group = sm_->id();
  txn.part_group = successor.id;
  txn.coord_range = sm_->range();
  txn.part_range = successor.range;
  txn.coord_epoch = sm_->epoch();
  txn.part_epoch = successor.epoch;
  txn.new_boundary = new_boundary;
  // The boundary must move, stay inside the two ranges and leave the
  // coordinator a non-empty arc: {begin, begin} would be the full ring.
  if (new_boundary == txn.part_range.begin ||
      new_boundary == txn.coord_range.begin ||
      (!txn.coord_range.Contains(new_boundary) &&
       !txn.part_range.Contains(new_boundary))) {
    done(InvalidArgumentError("boundary outside the two ranges"));
    return;
  }
  StartTxn(std::move(txn), std::move(done));
}

void GroupOpDriver::StartTxn(RingTxn txn, DoneCallback done) {
  if (!IsLeader() || sm_->IsFrozen() || sm_->IsRetired() ||
      phase_ != Phase::kIdle) {
    done(ConflictError("group busy"));
    return;
  }
  stats_.txns_started++;
  // One parent span for the whole multi-group operation; everything the
  // coordinator and participant do for it parents back here.
  obs::TraceRecorder* tr = sim_->tracer();
  op_ctx_ = obs::StartSpan(tr, "txn.coordinate", replica_->self(), sm_->id());
  obs::Annotate(tr, op_ctx_, "txn_id", txn.id);
  obs::Annotate(tr, op_ctx_, "kind",
                txn.kind == RingTxn::Kind::kMerge ? "merge" : "repartition");
  txn_ = txn;
  done_ = std::move(done);
  TransitionTo(Phase::kStarting);
  phase_started_ = sim_->now();
  auto cmd = std::make_shared<CoordStartCommand>();
  cmd->txn = std::move(txn);
  obs::ScopedContext trace_scope(tr, op_ctx_);
  replica_->Propose(cmd, [this, id = txn_->id](StatusOr<uint64_t> result) {
    if (phase_ != Phase::kStarting || !txn_ || txn_->id != id) {
      return;  // Superseded (leadership churn).
    }
    if (!result.ok()) {
      Finish(result.status());
      return;
    }
    if (!sm_->IsFrozen() || sm_->state().active->txn.id != id) {
      Finish(AbortedError("coordinator start rejected at apply"));
      return;
    }
    TransitionTo(Phase::kPreparing);
    phase_started_ = sim_->now();
    SendPrepare();
  });
}

void GroupOpDriver::SendPrepare() {
  SCATTER_CHECK(txn_.has_value());
  SCATTER_CHECK(sm_->IsFrozen());
  auto m = MakePooled<TxnPrepareMsg>();
  m->txn = *txn_;
  m->coord = sm_->OwnContribution();

  // Prefer the successor's known leader, then round-robin its members.
  const std::vector<NodeId>& members = SuccessorMembers();
  if (members.empty()) {
    return;
  }
  const NodeId to = members[participant_cursor_++ % members.size()];
  prepare_sends_++;
  last_send_ = sim_->now();
  // Stamp the prepare with the op span so the participant group's spans
  // parent back to this operation.
  obs::ScopedContext trace_scope(sim_->tracer(), op_ctx_);
  host_->SendToNode(to, std::move(m));
}

const std::vector<NodeId>& GroupOpDriver::SuccessorMembers() const {
  // The participant is always our clockwise successor; use the freshest
  // member list we have for it.
  static const std::vector<NodeId> kEmpty;
  const ring::GroupInfo& succ = sm_->state().succ;
  if (txn_ && succ.id == txn_->part_group && !succ.members.empty()) {
    return succ.members;
  }
  return kEmpty;
}

void GroupOpDriver::OnPrepareReply(const TxnPrepareReplyMsg& m) {
  if (phase_ != Phase::kPreparing || !txn_ || m.txn_id != txn_->id) {
    return;
  }
  if (!m.prepared) {
    Decide(false);
    return;
  }
  part_ = m.part;
  if (cfg_.bug_drop_resent_prepare_payload && prepare_sends_ > 1) {
    // Seeded bug (model-checker mutation tests): a reply that answered a
    // resent prepare is recorded with its payload dropped, so the decision
    // below commits the structural change without the participant's keys.
    part_->data = store::KvStore{};
  }
  Decide(true);
}

void GroupOpDriver::Decide(bool commit) {
  SCATTER_CHECK(txn_.has_value());
  TransitionTo(Phase::kDeciding);
  auto cmd = std::make_shared<CoordDecideCommand>();
  cmd->txn_id = txn_->id;
  cmd->commit = commit;
  if (commit) {
    SCATTER_CHECK(part_.has_value());
    cmd->part = *part_;
  }
  obs::ScopedContext trace_scope(sim_->tracer(), op_ctx_);
  replica_->Propose(
      cmd, [this, id = txn_->id, commit](StatusOr<uint64_t> result) {
        if (phase_ != Phase::kDeciding || !txn_ || txn_->id != id) {
          return;
        }
        if (!result.ok()) {
          // Leadership lost; a successor (or the participant backstop)
          // finishes the job.
          Finish(result.status());
          return;
        }
        if (commit) {
          stats_.txns_committed++;
        } else {
          stats_.txns_aborted++;
        }
        TransitionTo(Phase::kNotifying);
        SendDecision();
      });
}

void GroupOpDriver::SendDecision() {
  SCATTER_CHECK(txn_.has_value());
  const auto outcome = sm_->OutcomeOf(txn_->id);
  if (!outcome.has_value()) {
    return;  // Decide entry not applied yet.
  }
  auto m = MakePooled<TxnDecisionMsg>();
  m->txn_id = txn_->id;
  m->participant_group = txn_->part_group;
  m->commit = *outcome;
  const std::vector<NodeId>& members = SuccessorMembers();
  std::vector<NodeId> targets = members;
  if (targets.empty() && part_.has_value()) {
    targets = part_->members;
  }
  if (targets.empty()) {
    return;
  }
  const NodeId to = targets[participant_cursor_++ % targets.size()];
  last_send_ = sim_->now();
  obs::ScopedContext trace_scope(sim_->tracer(), op_ctx_);
  host_->SendToNode(to, std::move(m));
}

void GroupOpDriver::OnDecisionAck(const TxnDecisionAckMsg& m) {
  if (phase_ != Phase::kNotifying || !txn_ || m.txn_id != txn_->id) {
    return;
  }
  const auto outcome = sm_->OutcomeOf(txn_->id);
  Finish(outcome.value_or(false)
             ? Status::Ok()
             : AbortedError("transaction aborted"));
}

void GroupOpDriver::Finish(Status status) {
  TransitionTo(Phase::kIdle);
  obs::TraceRecorder* tr = sim_->tracer();
  obs::Annotate(tr, op_ctx_, "status",
                status.ok() ? std::string_view("ok") : status.message());
  obs::EndSpan(tr, op_ctx_);
  op_ctx_ = obs::TraceContext{};
  txn_.reset();
  part_.reset();
  prepare_sends_ = 0;
  if (done_) {
    DoneCallback done = std::move(done_);
    done_ = nullptr;
    done(std::move(status));
  }
}

// ---------------------------------------------------------------------------
// Participant side
// ---------------------------------------------------------------------------

void GroupOpDriver::FillParticipantReply(TxnPrepareReplyMsg* reply) const {
  reply->txn_id = sm_->state().active->txn.id;
  reply->prepared = true;
  reply->part = sm_->OwnContribution();
}

void GroupOpDriver::OnPrepare(const TxnPrepareMsg& m) {
  if (!IsLeader()) {
    return;  // The host forwards toward the leader hint; otherwise retry.
  }
  stats_.prepares_answered++;
  const NodeId coordinator = m.from;
  auto nack = [&]() {
    auto reply = MakePooled<TxnPrepareReplyMsg>();
    reply->txn_id = m.txn.id;
    reply->prepared = false;
    host_->SendToNode(coordinator, std::move(reply));
  };

  if (sm_->IsRetired()) {
    nack();
    return;
  }
  if (sm_->IsFrozen()) {
    if (sm_->state().active->txn.id == m.txn.id) {
      auto reply = MakePooled<TxnPrepareReplyMsg>();
      FillParticipantReply(reply.get());
      host_->SendToNode(coordinator, std::move(reply));
    } else {
      nack();
    }
    return;
  }
  if (m.txn.part_epoch != sm_->epoch() || m.txn.part_range != sm_->range()) {
    nack();
    return;
  }
  auto cmd = std::make_shared<PrepareCommand>();
  cmd->txn = m.txn;
  cmd->coord = m.coord;
  // Participant-side prepare span: opened under the delivered prepare's
  // context (the coordinator's op span), closed once the reply goes out.
  obs::TraceRecorder* tr = sim_->tracer();
  const obs::TraceContext part_span = obs::StartSpan(
      tr, "txn.participant_prepare", replica_->self(), sm_->id());
  obs::Annotate(tr, part_span, "txn_id", m.txn.id);
  obs::ScopedContext trace_scope(tr, part_span);
  replica_->Propose(cmd, [this, coordinator, part_span,
                          id = m.txn.id](StatusOr<uint64_t> result) {
    if (result.ok()) {
      auto reply = MakePooled<TxnPrepareReplyMsg>();
      reply->txn_id = id;
      if (sm_->IsFrozen() && sm_->state().active->txn.id == id) {
        FillParticipantReply(reply.get());
      } else {
        reply->prepared = false;  // Lost an apply-time race.
      }
      obs::ScopedContext reply_scope(sim_->tracer(), part_span);
      host_->SendToNode(coordinator, std::move(reply));
    }
    // On failure the coordinator resends and the next leader answers.
    obs::EndSpan(sim_->tracer(), part_span);
  });
}

void GroupOpDriver::OnDecision(const TxnDecisionMsg& m) {
  const NodeId coordinator = m.from;
  auto ack = [&]() {
    auto reply = MakePooled<TxnDecisionAckMsg>();
    reply->txn_id = m.txn_id;
    host_->SendToNode(coordinator, std::move(reply));
  };
  if (sm_->OutcomeOf(m.txn_id).has_value()) {
    ack();  // Already decided (duplicate notification).
    return;
  }
  if (!IsLeader()) {
    return;
  }
  if (!sm_->IsFrozen() || sm_->state().active->txn.id != m.txn_id) {
    // We never prepared this transaction. An abort needs no local record
    // (there is nothing to release) — ack it so the coordinator stops
    // retrying. A commit notification here would be a protocol violation
    // (commits require our prepare), so it is dropped.
    if (!m.commit) {
      ack();
    }
    return;
  }
  ProposeDecide(m.txn_id, m.commit, coordinator);
}

void GroupOpDriver::ProposeDecide(uint64_t txn_id, bool commit,
                                  NodeId ack_to) {
  if (decide_in_flight_) {
    return;
  }
  decide_in_flight_ = true;
  auto cmd = std::make_shared<DecideCommand>();
  cmd->txn_id = txn_id;
  cmd->commit = commit;
  // Participant-side commit/abort span, parented to the delivered decision
  // (or status reply) and closed when the local decide entry applies.
  obs::TraceRecorder* tr = sim_->tracer();
  const obs::TraceContext part_span = obs::StartSpan(
      tr, "txn.participant_decide", replica_->self(), sm_->id());
  obs::Annotate(tr, part_span, "txn_id", txn_id);
  obs::Annotate(tr, part_span, "commit", commit ? "true" : "false");
  obs::ScopedContext trace_scope(tr, part_span);
  replica_->Propose(
      cmd, [this, txn_id, ack_to, part_span](StatusOr<uint64_t> result) {
        decide_in_flight_ = false;
        if (result.ok() && ack_to != kInvalidNode &&
            sm_->OutcomeOf(txn_id).has_value()) {
          auto reply = MakePooled<TxnDecisionAckMsg>();
          reply->txn_id = txn_id;
          obs::ScopedContext reply_scope(sim_->tracer(), part_span);
          host_->SendToNode(ack_to, std::move(reply));
        }
        obs::EndSpan(sim_->tracer(), part_span);
      });
}

void GroupOpDriver::MaybeStatusQuery() {
  if (!IsLeader() || !sm_->IsFrozen() ||
      sm_->state().active->is_coordinator) {
    return;
  }
  const TimeMicros now = sim_->now();
  if (frozen_since_ == 0 || now - frozen_since_ < kStatusQueryAfter ||
      now - last_status_query_ < cfg_.resend_interval) {
    return;
  }
  const std::vector<NodeId>& coords = sm_->state().active->coord.members;
  if (coords.empty()) {
    return;
  }
  auto m = MakePooled<TxnStatusQueryMsg>();
  m->txn_id = sm_->state().active->txn.id;
  last_status_query_ = now;
  stats_.status_queries_sent++;
  host_->SendToNode(coords[coord_cursor_++ % coords.size()], std::move(m));
}

void GroupOpDriver::OnStatusReply(const TxnStatusReplyMsg& m) {
  if (!IsLeader() || !m.known || !sm_->IsFrozen() ||
      sm_->state().active->is_coordinator ||
      sm_->state().active->txn.id != m.txn_id) {
    return;
  }
  ProposeDecide(m.txn_id, m.committed, kInvalidNode);
}

}  // namespace scatter::txn
