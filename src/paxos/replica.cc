#include "src/paxos/replica.h"

#include <algorithm>
#include <array>
#include <functional>
#include <limits>
#include <utility>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/pooled.h"
#include "src/paxos/payload_codec.h"
#include "src/wire/buffer.h"

namespace scatter::paxos {
namespace {

// A snapshot install is retransmitted if unacknowledged for this long.
constexpr TimeMicros kSnapshotResend = Seconds(2);

// A candidate refused because of an unexpired lease retries once the lease
// ends, plus a random jitter in [1ms, kLeaseWaitJitterMax] so competing
// candidates do not collide again.
constexpr TimeMicros kLeaseWaitJitterMax = Millis(50);

// Outstanding unacknowledged Accept rounds the leader keeps in flight per
// follower (the replication window is kPipelineDepth * kMaxBatchEntries
// entries past the follower's match index). Also bounds how many flushed
// broadcast rounds may be awaiting commit before further flushes defer to
// round completion.
constexpr uint64_t kPipelineDepth = 4;

// After the leader advances its commit index it notifies idle followers
// (via one empty, unacknowledged Accept each) within this long, instead of
// waiting for the next heartbeat. A flush carrying fresh entries
// supersedes the notification: the commit index rides those entries.
constexpr TimeMicros kCommitNotifyInterval = Millis(1);

}  // namespace

// Hashes the canonical wire encoding so decoded copies and originals digest
// alike (the durability checker recomputes this against the live log).
uint64_t DigestLogEntry(const LogEntry& entry) {
  wire::Buffer buf;
  wire::Write(entry, buf);
  return HashBytes(std::string_view(reinterpret_cast<const char*>(buf.data()),
                                    buf.size()));
}

Replica::Stats::Stats(obs::MetricsRegistry& registry, NodeId node,
                      GroupId group)
    : elections_started(
          registry.GetCounter("paxos.elections_started", node, group)),
      transfers_initiated(
          registry.GetCounter("paxos.transfers_initiated", node, group)),
      transfer_elections(
          registry.GetCounter("paxos.transfer_elections", node, group)),
      times_elected(registry.GetCounter("paxos.times_elected", node, group)),
      entries_committed(
          registry.GetCounter("paxos.entries_committed", node, group)),
      snapshots_sent(registry.GetCounter("paxos.snapshots_sent", node, group)),
      snapshots_installed(
          registry.GetCounter("paxos.snapshots_installed", node, group)),
      lease_reads(registry.GetCounter("paxos.lease_reads", node, group)),
      barrier_reads(registry.GetCounter("paxos.barrier_reads", node, group)),
      proposals_failed(
          registry.GetCounter("paxos.proposals_failed", node, group)),
      accept_broadcasts(
          registry.GetCounter("paxos.accept_broadcasts", node, group)),
      accepts_sent(registry.GetCounter("paxos.accepts_sent", node, group)),
      accept_entries_sent(
          registry.GetCounter("paxos.accept_entries_sent", node, group)),
      acks_sent(registry.GetCounter("paxos.acks_sent", node, group)),
      messages_sent(registry.GetCounter("paxos.messages_sent", node, group)),
      commit_index(registry.GetGauge("paxos.commit_index", node, group)),
      applied_index(registry.GetGauge("paxos.applied_index", node, group)),
      is_leader(registry.GetGauge("paxos.is_leader", node, group)),
      proposals_pending(
          registry.GetGauge("paxos.proposals_pending", node, group)),
      snapshots_inflight(
          registry.GetGauge("paxos.snapshots_inflight", node, group)),
      commits_learned(
          registry.GetCounter("paxos.commits_learned", node, group)) {}

void Replica::UpdateHealthGauges() {
  stats_.commit_index.Set(static_cast<int64_t>(commit_index_));
  stats_.applied_index.Set(static_cast<int64_t>(applied_index_));
  stats_.is_leader.Set(role_ == Role::kLeader ? 1 : 0);
  stats_.proposals_pending.Set(
      static_cast<int64_t>(pending_proposals_.size()));
  int64_t inflight = 0;
  // LINT-ALLOW(unordered-iteration): pure count, order-independent.
  for (const auto& [peer_id, peer] : peers_) {
    if (peer.snapshot_inflight) inflight++;
  }
  stats_.snapshots_inflight.Set(inflight);
}

Replica::Replica(sim::Simulator* sim, ReplicaHost* host,
                 StateMachine* state_machine, const PaxosConfig& config,
                 GroupId group, NodeId self,
                 std::vector<NodeId> initial_members,
                 std::unique_ptr<GroupJournal> journal)
    : sim_(sim),
      host_(host),
      sm_(state_machine),
      cfg_(config),
      group_(group),
      self_(self),
      rng_(sim->rng().Fork()),
      journal_(std::move(journal)),
      stats_(sim->metrics(), self, group),
      timers_(sim) {
  SCATTER_CHECK(cfg_.lease_duration <= cfg_.election_timeout_min);
  if (!initial_members.empty()) {
    // Founding replica: all members boot with the same config and an empty
    // log; the config is the (virtual) snapshot at index 0.
    snap_config_ = initial_members;
    snap_config_index_ = 0;
    config_ = std::move(initial_members);
    centrality_ = ComputeCentrality();
    started_ = true;
    SCATTER_CHECK(std::count(config_.begin(), config_.end(), self_) == 1);
    ResetElectionTimer();
    if (journal_ != nullptr) {
      // First checkpoint: a founding group is recoverable from birth (the
      // state machine is at its index-0 initial state right now).
      journal_->WriteCheckpoint({0, Ballot{}, config_, 0, promised_, 0}, *sm_,
                                log_);
    }
  }
  // Joiners stay passive (started_ == false) until a snapshot arrives.
  if (cfg_.peer_probe_interval > 0) {
    timers_.Schedule(cfg_.peer_probe_interval + rng_.Range(0, Millis(500)),
                     [this]() { ProbePeers(); });
  }
}

Replica::Replica(sim::Simulator* sim, ReplicaHost* host,
                 StateMachine* state_machine, const PaxosConfig& config,
                 GroupId group, NodeId self,
                 std::unique_ptr<GroupJournal> journal,
                 const RecoveredState& recovered)
    : sim_(sim),
      host_(host),
      sm_(state_machine),
      cfg_(config),
      group_(group),
      self_(self),
      rng_(sim->rng().Fork()),
      journal_(std::move(journal)),
      stats_(sim->metrics(), self, group),
      timers_(sim) {
  SCATTER_CHECK(cfg_.lease_duration <= cfg_.election_timeout_min);
  SCATTER_CHECK(journal_ != nullptr);
  if (recovered.wal_torn) {
    // New appends must not land behind unreadable garbage.
    journal_->DropTornTail(recovered.wal_clean_bytes);
  }
  // Rebuild exactly what the pre-crash replica persisted: the state machine
  // already holds the checkpoint's state (GroupJournal::Recover restored
  // it); the WAL-recovered log suffix goes on top of it.
  log_.ResetToSnapshot(recovered.snap_base_index);
  snap_base_index_ = recovered.snap_base_index;
  snap_base_ballot_ = recovered.snap_base_ballot;
  snap_config_ = recovered.snap_config;
  snap_config_index_ = recovered.snap_config_index;
  for (const LogEntry& entry : recovered.entries) {
    if (cfg_.bug_skip_wal_replay) {
      break;  // Seeded bug: the WAL's entries are dropped.
    }
    if (entry.index != log_.last_index() + 1) {
      break;  // A hole above the contiguous prefix: drop the stranded tail.
    }
    log_.Set(entry.index, entry.ballot, entry.command);
  }
  RecomputeVotingConfig();
  commit_index_ = std::min(recovered.commit_index, log_.LastContiguous());
  applied_index_ = snap_base_index_;  // ReplayRecovered() catches up.
  applied_config_index_ = snap_config_index_;
  promised_ = recovered.promised;  // Already durable; no re-journal needed.
  max_round_seen_ = std::max(max_round_seen_, promised_.round);
  started_ = true;
  ResetElectionTimer();
  if (cfg_.peer_probe_interval > 0) {
    timers_.Schedule(cfg_.peer_probe_interval + rng_.Range(0, Millis(500)),
                     [this]() { ProbePeers(); });
  }

  // Recover() clamps the commit point to the contiguous recovered entries,
  // all of which the loop above re-added, so a correct rebuild starts
  // exactly at this floor.
  recovery_floor_.recovered = true;
  recovery_floor_.promised = recovered.promised;
  recovery_floor_.commit_index = recovered.commit_index;
  for (const LogEntry& entry : recovered.entries) {
    if (entry.index > recovered.commit_index) {
      break;
    }
    recovery_floor_.entry_digests[entry.index] = DigestLogEntry(entry);
  }
  SCATTER_DEBUG() << "g" << group_ << " n" << self_ << " recovered: base="
                  << snap_base_index_ << " commit=" << commit_index_
                  << " last=" << last_log_index()
                  << " promised=" << promised_.ToString()
                  << (recovered.wal_torn ? " (torn tail discarded)" : "");
}

uint64_t Replica::ReplayRecovered() {
  const uint64_t before = applied_index_;
  ApplyCommitted();
  UpdateHealthGauges();
  return applied_index_ - before;
}

Replica::~Replica() {
  FailPendingProposals(AbortedError("replica destroyed"));
  for (auto& [index, cb] : pending_reads_) {
    cb(AbortedError("replica destroyed"));
  }
  pending_reads_.clear();
}

void Replica::CorruptCommittedEntryForTest(uint64_t index) {
  const LogEntry* entry = log_.At(index);
  SCATTER_CHECK(entry != nullptr);
  SCATTER_CHECK(index <= commit_index_);
  // A config command naming an impossible node: distinguishable from any
  // legitimately committed command even under value (wire-encoding)
  // comparison, which the auditor uses when replicas hold decoded copies.
  log_.Set(index, entry->ballot,
           std::make_shared<ConfigCommand>(ConfigCommand::Op::kAddMember,
                                           NodeId{0xDEADC0DE}));
}

// ---------------------------------------------------------------------------
// Role transitions
// ---------------------------------------------------------------------------

void Replica::ResetElectionTimer() {
  ArmElectionTimer(
      rng_.Range(cfg_.election_timeout_min, cfg_.election_timeout_max));
}

void Replica::ArmElectionTimer(TimeMicros delay) {
  // Every follower Accept lands here: move the pending timer in place.
  if (!timers_.Reschedule(election_timer_, delay)) {
    election_timer_ = timers_.Schedule(delay, [this]() { StartElection(); });
  }
}

// ---------------------------------------------------------------------------
// Durability
// ---------------------------------------------------------------------------

void Replica::RaisePromise(Ballot b) {
  if (b <= promised_) {
    return;
  }
  promised_ = b;
  if (journal_ != nullptr) {
    journal_->LogPromise(b);
  }
}

void Replica::JournalAccept(const LogEntry& entry) {
  if (journal_ != nullptr) {
    journal_->LogAccept(entry);
  }
}

void Replica::JournalTruncateSuffix(uint64_t from) {
  if (journal_ != nullptr) {
    journal_->LogTruncateSuffix(from);
  }
}

void Replica::JournalCommit(uint64_t index) {
  if (journal_ != nullptr) {
    journal_->LogCommit(index);
  }
}

void Replica::SyncJournal() {
  if (journal_ != nullptr) {
    journal_->Sync();
  }
}

void Replica::BecomeFollower(Ballot seen) {
  RaisePromise(seen);
  max_round_seen_ = std::max(max_round_seen_, seen.round);
  role_ = Role::kFollower;
  ResetElectionTimer();
}

void Replica::StepDown(Ballot seen) {
  const bool was_leader = role_ == Role::kLeader;
  lease_surrendered_until_ = 0;
  RaisePromise(seen);
  max_round_seen_ = std::max(max_round_seen_, seen.round);
  role_ = Role::kFollower;
  timers_.Cancel(heartbeat_timer_);
  heartbeat_timer_ = sim::kInvalidTimer;
  timers_.Cancel(fd_timer_);
  fd_timer_ = sim::kInvalidTimer;
  timers_.Cancel(flush_timer_);
  flush_timer_ = sim::kInvalidTimer;
  flush_deadline_ = 0;
  flush_ends_.clear();
  last_flush_end_ = 0;
  votes_.clear();
  peers_.clear();
  DropLeaseExpiry();
  term_barrier_index_ = 0;
  pending_config_index_ = 0;
  FailPendingProposals(NotLeaderError("lost leadership"));
  for (auto& [index, cb] : pending_reads_) {
    cb(NotLeaderError("lost leadership"));
  }
  pending_reads_.clear();
  if (was_leader) {
    host_->OnRoleChanged(group_, /*is_leader=*/false);
  }
  ResetElectionTimer();
}

void Replica::StartElection() {
  if (!started_ || role_ == Role::kLeader) {
    return;
  }
  if (std::count(config_.begin(), config_.end(), self_) == 0) {
    return;  // Removed from the group; never campaign.
  }
  role_ = Role::kCandidate;
  max_round_seen_++;
  RaisePromise(Ballot{max_round_seen_, self_});
  votes_ = {self_};
  stats_.elections_started++;
  SCATTER_TRACE() << "g" << group_ << " n" << self_ << " campaigning at "
                  << promised_.ToString();
  if (votes_.size() >= QuorumSize()) {
    BecomeLeader();
    return;
  }
  for (NodeId peer : config_) {
    if (peer == self_) {
      continue;
    }
    auto m = MakePooled<PrepareMsg>(group_);
    m->ballot = promised_;
    m->last_log_index = last_log_index();
    m->last_log_ballot = LastLogBallot();
    m->bypass_lease = transfer_election_;
    Send(peer, std::move(m));
  }
  if (transfer_election_) {
    stats_.transfer_elections++;
    transfer_election_ = false;
  }
  ResetElectionTimer();  // Retry with a fresh ballot if this one stalls.
  UpdateHealthGauges();
}

void Replica::BecomeLeader() {
  SCATTER_CHECK(role_ == Role::kCandidate);
  role_ = Role::kLeader;
  lease_surrendered_until_ = 0;
  stats_.times_elected++;
  votes_.clear();
  timers_.Cancel(election_timer_);
  election_timer_ = sim::kInvalidTimer;
  peers_.clear();
  DropLeaseExpiry();
  for (NodeId peer : config_) {
    if (peer == self_) {
      continue;
    }
    peers_[peer] =
        Peer{.next_index = last_log_index() + 1, .last_ack = sim_->now()};
  }
  // A config entry appended by a predecessor may still be uncommitted;
  // block further changes until it resolves.
  pending_config_index_ = config_index_ > commit_index_ ? config_index_ : 0;
  flush_ends_.clear();
  last_flush_end_ = 0;
  leader_hint_ = self_;
  host_->OnRoleChanged(group_, /*is_leader=*/true);
  // Barrier no-op: commits everything inherited from prior ballots and
  // marks the point after which lease reads are safe.
  term_barrier_index_ = AppendLocal(std::make_shared<NoOpCommand>());
  SCATTER_DEBUG() << "g" << group_ << " n" << self_ << " elected at "
                  << promised_.ToString() << " last=" << last_log_index();
  BroadcastAppends();
  heartbeat_timer_ = timers_.Schedule(cfg_.heartbeat_interval,
                                      [this]() { OnHeartbeatTimer(); });
  fd_timer_ = timers_.Schedule(cfg_.member_fail_timeout,
                               [this]() { CheckQuorumConnectivity(); });
  MaybeAdvanceCommit();  // Single-node groups commit immediately.
}

// ---------------------------------------------------------------------------
// Message dispatch
// ---------------------------------------------------------------------------

void Replica::OnMessage(const std::shared_ptr<PaxosMessage>& message) {
  SCATTER_CHECK(message->group == group_);
  switch (message->type) {
    case sim::MessageType::kPaxosPrepare:
      HandlePrepare(static_cast<const PrepareMsg&>(*message));
      break;
    case sim::MessageType::kPaxosPromise:
      HandlePromise(static_cast<const PromiseMsg&>(*message));
      break;
    case sim::MessageType::kPaxosAccept:
      HandleAccept(message);
      break;
    case sim::MessageType::kPaxosAccepted:
      HandleAccepted(static_cast<const AcceptedMsg&>(*message));
      break;
    case sim::MessageType::kPaxosSnapshot:
      HandleSnapshot(static_cast<const SnapshotMsg&>(*message));
      break;
    case sim::MessageType::kPaxosSnapshotAck:
      HandleSnapshotAck(static_cast<const SnapshotAckMsg&>(*message));
      break;
    case sim::MessageType::kPaxosTimeoutNow:
      HandleTimeoutNow(static_cast<const TimeoutNowMsg&>(*message));
      break;
    case sim::MessageType::kPaxosPing:
      HandlePing(static_cast<const PingMsg&>(*message));
      break;
    case sim::MessageType::kPaxosPong:
      HandlePong(static_cast<const PongMsg&>(*message));
      break;
    default:
      SCATTER_CHECK(false);
  }
  UpdateHealthGauges();
}

void Replica::HandlePrepare(const PrepareMsg& m) {
  max_round_seen_ = std::max(max_round_seen_, m.ballot.round);
  auto reply = MakePooled<PromiseMsg>(group_);
  reply->ballot = m.ballot;

  if (m.ballot <= promised_) {
    reply->granted = false;
    reply->promised = promised_;
    Send(m.from, std::move(reply));
    return;
  }

  // Lease check: while we believe a leader holds a lease we granted, we must
  // not help elect anyone else — that is what makes the leader's local reads
  // linearizable. The lease holder itself may re-campaign (e.g. after
  // restarting its term); that cannot violate its own reads.
  const TimeMicros now = sim_->now();
  if (!m.bypass_lease && cfg_.enable_lease_reads && lease_ballot_.valid() &&
      lease_ballot_.node != m.ballot.node && now < lease_until_) {
    reply->granted = false;
    reply->promised = promised_;
    reply->lease_wait = lease_until_ - now;
    Send(m.from, std::move(reply));
    return;
  }

  if (!LogUpToDate(m.last_log_index, m.last_log_ballot)) {
    // Candidate's log is stale; raise our promise so it stops retrying this
    // ballot, but do not vote.
    RaisePromise(m.ballot);
    if (role_ != Role::kFollower) {
      StepDown(m.ballot);
    }
    reply->granted = false;
    reply->promised = promised_;
    Send(m.from, std::move(reply));
    return;
  }

  RaisePromise(m.ballot);
  if (role_ != Role::kFollower) {
    StepDown(m.ballot);
  } else {
    ResetElectionTimer();
  }
  reply->granted = true;
  reply->promised = promised_;
  Send(m.from, std::move(reply));
}

void Replica::HandlePromise(const PromiseMsg& m) {
  if (role_ != Role::kCandidate || m.ballot != promised_) {
    if (m.promised > promised_) {
      BecomeFollower(m.promised);
    }
    return;
  }
  if (!m.granted) {
    if (m.promised > promised_) {
      StepDown(m.promised);
    } else if (m.lease_wait > 0) {
      // Back off until the blocking lease expires.
      role_ = Role::kFollower;
      votes_.clear();
      ArmElectionTimer(m.lease_wait +
                       rng_.Range(Millis(1), kLeaseWaitJitterMax));
    }
    return;
  }
  votes_.insert(m.from);
  if (votes_.size() >= QuorumSize()) {
    BecomeLeader();
  }
}

void Replica::HandleAccept(const std::shared_ptr<PaxosMessage>& message) {
  const auto& m = static_cast<const AcceptMsg&>(*message);
  max_round_seen_ = std::max(max_round_seen_, m.ballot.round);

  // Replies are built only when sent (a commit notification gets none);
  // each answers this Accept's ballot and echoes its send time.
  auto ack = [&](uint64_t match_index) {
    auto r = MakePooled<AcceptedMsg>(group_);
    r->ballot = m.ballot;
    r->ok = true;
    r->match_index = match_index;
    r->applied_index = applied_index_;
    r->leader_sent_at = m.sent_at;
    r->centrality = Centrality();
    stats_.acks_sent++;
    Send(m.from, std::move(r));
  };
  // need_from 0 is a ballot rejection, or a joiner asking for a snapshot.
  auto nack = [&](uint64_t need_from) {
    auto r = MakePooled<AcceptedMsg>(group_);
    r->ballot = m.ballot;
    r->promised = promised_;
    r->need_from = need_from;
    r->leader_sent_at = m.sent_at;
    stats_.acks_sent++;
    Send(m.from, std::move(r));
  };

  if (m.ballot < promised_) {
    if (cfg_.bug_accept_stale_ballot && started_ &&
        role_ != Role::kLeader && !m.entries.empty() &&
        m.prev_index == last_log_index() && m.prev_index >= snap_base_index_ &&
        BallotAt(m.prev_index) == m.prev_ballot) {
      // Seeded bug (model-checker mutation tests): a follower "fast path"
      // appends a batch that cleanly extends the local log without checking
      // the ballot against our promise. The stale leader gets a
      // valid-looking ack and can reach quorum for a slot a newer leader
      // fills differently. Promise, lease and commit state stay untouched,
      // so the bug only surfaces through the divergence itself.
      for (const LogEntry& e : m.entries) {
        SCATTER_CHECK(e.index == last_log_index() + 1);
        log_.Set(e.index, e.ballot, e.command);
        JournalAccept(e);
      }
      RecomputeVotingConfig();
      ack(m.prev_index + m.entries.size());
      return;
    }
    nack(0);
    return;
  }

  // Valid leader traffic: adopt it, refresh timers and lease grant.
  RaisePromise(m.ballot);
  if (role_ != Role::kFollower) {
    StepDown(m.ballot);
  }
  leader_hint_ = m.from;
  ResetElectionTimer();
  lease_ballot_ = m.ballot;
  lease_until_ = sim_->now() + cfg_.lease_duration;

  if (!started_) {
    // Joiner with no state yet: ask for a snapshot (need_from == 0).
    nack(0);
    return;
  }

  // Chain check at (prev_index, prev_ballot). If part of the batch is
  // already covered by our snapshot, the covered prefix is committed state
  // and provably matches the leader's log, so we skip it and re-anchor at
  // the snapshot base.
  uint64_t prev_index = m.prev_index;
  size_t skip = 0;
  if (prev_index < snap_base_index_) {
    while (skip < m.entries.size() &&
           m.entries[skip].index <= snap_base_index_) {
      skip++;
    }
    prev_index = snap_base_index_;
  }

  if (prev_index > last_log_index()) {
    // Pipelined rounds can arrive out of order; nack so the leader backs up
    // and resends.
    nack(last_log_index() + 1);
    return;
  }
  if (prev_index == m.prev_index && BallotAt(prev_index) != m.prev_ballot) {
    // Conflicting suffix; it cannot be committed (committed entries match
    // the leader's log by Leader Completeness), so drop it.
    SCATTER_CHECK(prev_index > commit_index_);
    log_.TruncateSuffix(prev_index);
    JournalTruncateSuffix(prev_index);
    RecomputeVotingConfig();
    nack(prev_index);
    return;
  }

  // Append, skipping entries we already hold at the same ballot.
  bool mutated = false;
  for (size_t i = skip; i < m.entries.size(); ++i) {
    const LogEntry& e = m.entries[i];
    const LogEntry* existing = log_.At(e.index);
    if (existing != nullptr) {
      if (existing->ballot == e.ballot) {
        continue;
      }
      SCATTER_CHECK(e.index > commit_index_);
      log_.TruncateSuffix(e.index);
      JournalTruncateSuffix(e.index);
      mutated = true;
    }
    SCATTER_CHECK(e.index == last_log_index() + 1);
    log_.Set(e.index, e.ballot, e.command);
    JournalAccept(e);
    mutated = true;
  }
  if (mutated) {
    RecomputeVotingConfig();
  }

  const uint64_t new_commit =
      std::min<uint64_t>(m.commit_index, last_log_index());
  if (new_commit > commit_index_) {
    stats_.commits_learned += new_commit - commit_index_;
    // The commit record rides the next barrier (commit points are
    // re-derivable from the leader; journaling them only speeds recovery).
    JournalCommit(new_commit);
    commit_index_ = new_commit;
    ApplyCommitted();
  }

  if (m.want_ack) {  // A commit notification gets no ack.
    ack(m.prev_index + m.entries.size());
  }
}

void Replica::HandleAccepted(const AcceptedMsg& m) {
  if (m.promised > promised_) {
    if (role_ != Role::kFollower) {
      StepDown(m.promised);
    } else {
      // Keep max_round_seen_ in step with the adopted promise, as StepDown
      // does: a later StartElection campaigns at max_round_seen_ + 1, and
      // letting it fall behind promised_ would regress the promise to a
      // lower ballot (and with it, re-grant votes the replica already
      // denied at the higher one).
      RaisePromise(m.promised);
      max_round_seen_ = std::max(max_round_seen_, m.promised.round);
    }
    return;
  }
  if (role_ != Role::kLeader || m.ballot != promised_) {
    return;
  }
  auto it = peers_.find(m.from);
  if (it == peers_.end()) {
    return;  // Ack from a node no longer in the config.
  }
  Peer& peer = it->second;
  peer.last_ack = sim_->now();
  peer.suspected = false;
  if (m.leader_sent_at > 0) {
    peer.grant_until =
        m.leader_sent_at + cfg_.lease_duration - cfg_.clock_skew_bound;
    DropLeaseExpiry();
  }
  if (m.centrality > 0) {
    peer.centrality = m.centrality;
  }
  if (m.ok) {
    peer.match_index = std::max(peer.match_index, m.match_index);
    peer.next_index = std::max(peer.next_index, peer.match_index + 1);
    if (peer.leaving_at != 0 && peer.match_index >= peer.leaving_at &&
        m.applied_index >= peer.leaving_at) {
      peers_.erase(m.from);  // It has applied its own removal; done.
      DropLeaseExpiry();
      MaybeAdvanceCommit();
      return;
    }
    MaybeAdvanceCommit();
    if (peer.next_index <= last_log_index()) {
      // The freed window may admit more rounds. A commit advance alone
      // waits for MaybeAdvanceCommit's flush, which tells every peer once.
      ReplicateTo(m.from, /*allow_empty=*/false);
    }
    return;
  }
  // Chain mismatch: back up (need_from == 0 means "send a snapshot";
  // next_index 0 is the snapshot-request sentinel ReplicateTo acts on).
  if (m.need_from == 0) {
    peer.next_index = 0;
    peer.match_index = 0;
    peer.snapshot_inflight = false;
    ReplicateTo(m.from);
    return;
  }
  peer.next_index = std::min(peer.next_index, m.need_from);
  if (peer.next_index == 0) {
    peer.next_index = 1;
  }
  ReplicateTo(m.from);
}

void Replica::HandleSnapshot(const SnapshotMsg& m) {
  max_round_seen_ = std::max(max_round_seen_, m.ballot.round);
  if (m.ballot < promised_) {
    return;  // Stale leader.
  }
  RaisePromise(m.ballot);
  if (role_ != Role::kFollower) {
    StepDown(m.ballot);
  }
  leader_hint_ = m.from;
  ResetElectionTimer();
  lease_ballot_ = m.ballot;
  lease_until_ = sim_->now() + cfg_.lease_duration;

  auto reply = MakePooled<SnapshotAckMsg>(group_);
  reply->ballot = m.ballot;
  reply->leader_sent_at = m.sent_at;

  if (started_ && m.last_included_index <= applied_index_) {
    reply->last_included_index = applied_index_;
    Send(m.from, std::move(reply));
    return;
  }

  // The bytes are a peer's EncodeState output, which always decodes.
  const bool restored = sm_->Restore(m.data.data(), m.data.size());
  SCATTER_CHECK(restored);
  log_.ResetToSnapshot(m.last_included_index);
  snap_base_index_ = m.last_included_index;
  snap_base_ballot_ = m.last_included_ballot;
  commit_index_ = m.last_included_index;
  applied_index_ = m.last_included_index;
  snap_config_ = m.config;
  snap_config_index_ = m.config_index;
  RecomputeVotingConfig();
  started_ = true;
  stats_.snapshots_installed++;
  ResetElectionTimer();
  if (journal_ != nullptr) {
    // An installed snapshot replaces all prior durable state: checkpoint it
    // (durable on return, so the ack below never outruns the disk). This is
    // also the moment a joiner becomes crash-recoverable.
    journal_->WriteCheckpoint({m.last_included_index, m.last_included_ballot,
                               m.config, m.config_index, promised_,
                               commit_index_},
                              *sm_, log_);
  }
  SCATTER_DEBUG() << "g" << group_ << " n" << self_
                  << " installed snapshot at " << m.last_included_index;

  reply->last_included_index = m.last_included_index;
  Send(m.from, std::move(reply));
}

void Replica::HandleSnapshotAck(const SnapshotAckMsg& m) {
  if (role_ != Role::kLeader || m.ballot != promised_) {
    return;
  }
  auto it = peers_.find(m.from);
  if (it == peers_.end()) {
    return;
  }
  Peer& peer = it->second;
  peer.last_ack = sim_->now();
  peer.suspected = false;
  peer.snapshot_inflight = false;
  peer.bootstrap = false;
  if (m.leader_sent_at > 0) {
    peer.grant_until =
        m.leader_sent_at + cfg_.lease_duration - cfg_.clock_skew_bound;
    DropLeaseExpiry();
  }
  peer.match_index = std::max(peer.match_index, m.last_included_index);
  peer.next_index = std::max(peer.next_index, peer.match_index + 1);
  MaybeAdvanceCommit();
  if (peer.next_index <= last_log_index()) {
    ReplicateTo(m.from);
  }
}

// ---------------------------------------------------------------------------
// Leader machinery
// ---------------------------------------------------------------------------

uint64_t Replica::AppendLocal(CommandPtr command) {
  SCATTER_CHECK(role_ == Role::kLeader);
  const uint64_t index = last_log_index() + 1;
  const bool is_config = command->kind == Command::Kind::kConfig;
  log_.Set(index, promised_, std::move(command));
  JournalAccept(*log_.At(index));
  if (is_config) {
    RecomputeVotingConfig();
  }
  return index;
}

void Replica::ReplicateTo(NodeId peer_id, bool allow_empty) {
  SCATTER_CHECK(role_ == Role::kLeader);
  const auto [it, inserted] = peers_.try_emplace(
      peer_id,
      Peer{.next_index = last_log_index() + 1, .last_ack = sim_->now()});
  if (inserted) {
    DropLeaseExpiry();
  }
  Peer& peer = it->second;

  if (peer.next_index == 0 || peer.next_index <= snap_base_index_ ||
      peer.next_index < log_.first_index()) {
    // The entries this peer needs were truncated; ship a snapshot.
    if (peer.snapshot_inflight &&
        sim_->now() - peer.snapshot_sent_at < kSnapshotResend) {
      return;
    }
    auto snap = MakePooled<SnapshotMsg>(group_);
    snap->ballot = promised_;
    snap->last_included_index = applied_index_;
    snap->last_included_ballot = BallotAt(applied_index_);
    snap->config = AppliedConfig();
    snap->config_index = applied_config_index_;
    wire::Buffer state;
    sm_->EncodeState(state);
    snap->data.assign(state.data(), state.data() + state.size());
    snap->sent_at = sim_->now();
    snap->bootstrap = peer.bootstrap;
    peer.snapshot_inflight = true;
    peer.snapshot_sent_at = sim_->now();
    stats_.snapshots_sent++;
    Send(peer_id, std::move(snap));
    return;
  }

  // Stream rounds up to the pipeline window past the acked match index,
  // advancing next_index optimistically. A round lost or reordered in
  // flight comes back as a need_from nack (backstopped by the heartbeat's
  // empty probe), which rewinds next_index for a resend.
  const uint64_t window_end =
      peer.match_index + kPipelineDepth * kMaxBatchEntries;
  bool sent = false;
  while (peer.next_index <= last_log_index() &&
         peer.next_index <= window_end) {
    auto m = MakePooled<AcceptMsg>(group_);
    m->ballot = promised_;
    m->prev_index = peer.next_index - 1;
    m->prev_ballot = BallotAt(m->prev_index);
    const uint64_t last =
        std::min({last_log_index(),
                  peer.next_index + kMaxBatchEntries - 1, window_end});
    for (uint64_t i = peer.next_index; i <= last; ++i) {
      const LogEntry* e = log_.At(i);
      SCATTER_CHECK(e != nullptr);
      m->entries.push_back(*e);
    }
    m->commit_index = commit_index_;
    m->sent_at = sim_->now();
    stats_.accepts_sent++;
    stats_.accept_entries_sent += m->entries.size();
    peer.next_index = last + 1;
    peer.last_sent_commit = commit_index_;
    Send(peer_id, std::move(m));
    sent = true;
  }
  if (sent || (!allow_empty && peer.last_sent_commit >= commit_index_)) {
    return;
  }
  // Empty Accept: heartbeat or window probe (acked), or commit notification
  // (not acked).
  auto m = MakePooled<AcceptMsg>(group_);
  m->ballot = promised_;
  m->prev_index = peer.next_index - 1;
  m->prev_ballot = BallotAt(m->prev_index);
  m->commit_index = commit_index_;
  m->sent_at = sim_->now();
  m->want_ack = allow_empty;
  stats_.accepts_sent++;
  peer.last_sent_commit = commit_index_;
  Send(peer_id, std::move(m));
}

void Replica::BootstrapJoiner(NodeId node) {
  const auto [it, inserted] =
      peers_.try_emplace(node, Peer{.next_index = 0, .last_ack = sim_->now()});
  if (inserted) {
    DropLeaseExpiry();
  }
  Peer& peer = it->second;
  peer.leaving_at = 0;  // Re-added before it learned of a prior removal.
  if (peer.match_index == 0) {
    // Never heard from it: it may not host a replica for this group at all
    // (the join reply that creates one races with the config-change
    // commit). A bootstrap-flagged snapshot tells its host to create one.
    peer.next_index = 0;
    peer.bootstrap = true;
  }
  ReplicateTo(node);
}

void Replica::FlushAppends(bool force_empty) {
  stats_.accept_broadcasts++;
  // The flush may fire from a timer, outside the context of any proposal;
  // parent it to the last proposal that requested it so the Accept
  // broadcast below stays causally linked to client work.
  obs::TraceRecorder* tr = sim_->tracer();
  obs::TraceContext flush_span;
  if (flush_ctx_.valid()) {
    flush_span = obs::StartSpanWithParent(tr, "paxos.flush", flush_ctx_,
                                          self_, group_);
    flush_ctx_ = obs::TraceContext{};
  }
  obs::ScopedContext trace_scope(tr, flush_span);
  for (NodeId peer : config_) {
    if (peer != self_) {
      ReplicateTo(peer, force_empty);
    }
  }
  // Departing peers stay on the list until they learn of their removal.
  // peers_ is unordered; sort so the send order (and thus the simulated
  // message schedule) does not depend on hash layout.
  std::vector<NodeId> leaving;
  for (const auto& [id, peer] : peers_) {
    if (peer.leaving_at != 0) {
      leaving.push_back(id);
    }
  }
  std::sort(leaving.begin(), leaving.end());
  for (NodeId id : leaving) {
    ReplicateTo(id, force_empty);
  }
  if (last_flush_end_ < last_log_index()) {
    last_flush_end_ = last_log_index();
    flush_ends_.push_back(last_flush_end_);
  }
  obs::EndSpan(tr, flush_span);
}

void Replica::BroadcastAppends() { FlushAppends(/*force_empty=*/true); }

void Replica::RequestFlush() {
  if (role_ != Role::kLeader || last_flush_end_ >= last_log_index()) {
    return;
  }
  if (flush_ends_.empty()) {
    // Nothing in flight: send immediately, so a lone sequential proposer
    // pays no extra event-loop turn of latency.
    Flush();
  } else if (flush_ends_.size() < kPipelineDepth) {
    // Flush on the next event-loop turn: everything else proposed in this
    // turn rides one broadcast.
    ScheduleFlush(0);
  }
  // Else the pipeline is full: the flush happens when a round commits
  // (MaybeAdvanceCommit) or at the latest on the next heartbeat.
}

void Replica::ScheduleFlush(TimeMicros delay) {
  const TimeMicros deadline = sim_->now() + delay;
  if (flush_timer_ != sim::kInvalidTimer) {
    if (flush_deadline_ <= deadline) {
      return;  // An earlier (or equal) flush is already on its way.
    }
    timers_.Cancel(flush_timer_);
  }
  flush_deadline_ = deadline;
  flush_timer_ = timers_.Schedule(delay, [this]() { Flush(); });
}

void Replica::Flush() {
  // RequestFlush also calls this directly. A timed flush still pending (a
  // commit notification) would then find nothing left to send: this flush
  // carries the commit index to every peer.
  timers_.Cancel(flush_timer_);
  flush_timer_ = sim::kInvalidTimer;
  flush_deadline_ = 0;
  if (role_ != Role::kLeader) {
    return;
  }
  FlushAppends(/*force_empty=*/false);
}

void Replica::MaybeAdvanceCommit() {
  if (role_ != Role::kLeader) {
    return;
  }
  // The quorum match: the QuorumSize()-th largest replicated index across
  // the voting config (our own log always matches itself).
  std::vector<uint64_t>& matches = match_scratch_;
  matches.clear();
  for (NodeId member : config_) {
    if (member == self_) {
      matches.push_back(last_log_index());
      continue;
    }
    auto it = peers_.find(member);
    matches.push_back(it == peers_.end() ? 0 : it->second.match_index);
  }
  std::sort(matches.begin(), matches.end(), std::greater<>());
  const uint64_t quorum_match = matches[QuorumSize() - 1];
  // Scan down for the highest quorum-replicated entry carrying our own
  // ballot: it commits by counting, everything below it transitively.
  uint64_t best = commit_index_;
  for (uint64_t n = quorum_match; n > commit_index_; --n) {
    if (BallotAt(n) == promised_) {
      best = n;
      break;
    }
  }
  if (best <= commit_index_) {
    return;
  }
  // Our own log counts toward this quorum: it must be durable before the
  // commit point moves past it (followers synced before acking, so their
  // contribution already is). Single-node groups hit this barrier as their
  // only one — they never send.
  SyncJournal();
  JournalCommit(best);
  // Mark the quorum-commit moment on each proposal that just committed
  // (proposal_ctx_ is empty while tracing is off).
  for (auto it = proposal_ctx_.upper_bound(commit_index_);
       it != proposal_ctx_.end() && it->first <= best; ++it) {
    obs::ScopedContext scope(sim_->tracer(), it->second);
    obs::AddInstant(sim_->tracer(), "paxos.quorum_commit", self_, group_);
  }
  stats_.entries_committed += best - commit_index_;
  stats_.commits_learned += best - commit_index_;
  commit_index_ = best;
  ApplyCommitted();
  ServePendingReads();
  // Close the broadcast rounds the commit passed. That frees pipeline
  // slots, so release any deferred flush; otherwise make sure followers
  // hear about the new commit index well before the next heartbeat.
  while (!flush_ends_.empty() && flush_ends_.front() <= commit_index_) {
    flush_ends_.pop_front();
  }
  if (last_flush_end_ < last_log_index()) {
    RequestFlush();
  } else {
    // LINT-ALLOW(unordered-iteration): pure existence check — the first lagging
    // peer triggers one flush regardless of which peer it is.
    for (const auto& [id, peer] : peers_) {
      if (peer.last_sent_commit < commit_index_) {
        ScheduleFlush(kCommitNotifyInterval);
        break;
      }
    }
  }
}

void Replica::OnHeartbeatTimer() {
  if (role_ != Role::kLeader) {
    return;
  }
  BroadcastAppends();
  // Failure detector: flag members that have gone silent. OnMemberSuspected
  // may synchronously propose a removal, which reassigns config_ — walk a
  // snapshot so the iteration survives.
  const std::vector<NodeId> members = config_;
  for (NodeId member : members) {
    if (member == self_) {
      continue;
    }
    auto it = peers_.find(member);
    if (it == peers_.end()) {
      continue;
    }
    if (!it->second.suspected &&
        sim_->now() - it->second.last_ack > cfg_.member_fail_timeout) {
      it->second.suspected = true;
      host_->OnMemberSuspected(group_, member);
    }
  }
  heartbeat_timer_ = timers_.Schedule(cfg_.heartbeat_interval,
                                      [this]() { OnHeartbeatTimer(); });
  // Snapshot transfers start from this timer path (ReplicateTo), so refresh
  // the gauges here too — a fully partitioned leader sees no messages.
  UpdateHealthGauges();
}

void Replica::CheckQuorumConnectivity() {
  if (role_ != Role::kLeader) {
    return;
  }
  // If no quorum has acked us recently we may be in a minority partition;
  // step down so clients stop being routed to a dead end.
  std::vector<TimeMicros> acks;
  for (NodeId member : config_) {
    if (member == self_) {
      acks.push_back(sim_->now());
      continue;
    }
    auto it = peers_.find(member);
    acks.push_back(it == peers_.end() ? 0 : it->second.last_ack);
  }
  std::sort(acks.begin(), acks.end(), std::greater<>());
  const TimeMicros quorum_ack = acks[QuorumSize() - 1];
  if (sim_->now() - quorum_ack > 2 * cfg_.election_timeout_max) {
    SCATTER_DEBUG() << "g" << group_ << " n" << self_
                    << " lost quorum contact; stepping down";
    StepDown(promised_);
    return;
  }
  fd_timer_ = timers_.Schedule(cfg_.member_fail_timeout,
                               [this]() { CheckQuorumConnectivity(); });
}

TimeMicros Replica::LeaseExpiry() const {
  if (!lease_expiry_stale_) {
    return lease_expiry_;
  }
  // The lease holds until the QuorumSize()-th largest grant (counting our
  // own, which never expires) runs out. The grants go in a stack buffer
  // unless the config outgrows it.
  std::array<TimeMicros, kInlineLeaseGrants> inline_grants;
  std::vector<TimeMicros> heap_grants;
  TimeMicros* grants = inline_grants.data();
  if (config_.size() > kInlineLeaseGrants) {
    heap_grants.resize(config_.size());
    grants = heap_grants.data();
  }
  size_t n = 0;
  for (NodeId member : config_) {
    if (member == self_) {
      grants[n++] = std::numeric_limits<TimeMicros>::max();
      continue;
    }
    auto it = peers_.find(member);
    grants[n++] = it == peers_.end() ? 0 : it->second.grant_until;
  }
  TimeMicros* const kth = grants + (QuorumSize() - 1);
  std::nth_element(grants, kth, grants + n, std::greater<>());
  lease_expiry_ = *kth;
  lease_expiry_stale_ = false;
  return lease_expiry_;
}

std::vector<NodeId> Replica::SuspectedMembers() const {
  std::vector<NodeId> out;
  if (role_ != Role::kLeader) {
    return out;
  }
  for (const auto& [id, peer] : peers_) {
    if (peer.suspected && peer.leaving_at == 0) {
      out.push_back(id);
    }
  }
  // peers_ is unordered; report suspects in a canonical order so the
  // membership layer's repair proposals are hash-layout-independent.
  std::sort(out.begin(), out.end());
  return out;
}

bool Replica::HasLease() const {
  return role_ == Role::kLeader && cfg_.enable_lease_reads &&
         commit_index_ >= term_barrier_index_ && term_barrier_index_ > 0 &&
         sim_->now() >= lease_surrendered_until_ &&
         sim_->now() < LeaseExpiry();
}

bool Replica::TransferLeadership(NodeId target) {
  if (role_ != Role::kLeader || target == self_ ||
      std::count(config_.begin(), config_.end(), target) == 0) {
    return false;
  }
  // Surrender the lease for long enough that the handover either completes
  // (we step down on seeing the higher ballot) or visibly fails; reads fall
  // back to the barrier path meanwhile, so linearizability is unaffected.
  lease_surrendered_until_ = sim_->now() + 2 * cfg_.election_timeout_max;
  stats_.transfers_initiated++;
  auto m = MakePooled<TimeoutNowMsg>(group_);
  m->ballot = promised_;
  Send(target, std::move(m));
  return true;
}

void Replica::HandleTimeoutNow(const TimeoutNowMsg& m) {
  if (!started_ || role_ == Role::kLeader || m.ballot < promised_) {
    return;  // Stale transfer or we already moved on.
  }
  transfer_election_ = true;
  StartElection();
}

void Replica::ProbePeers() {
  timers_.Schedule(cfg_.peer_probe_interval + rng_.Range(0, Millis(200)),
                   [this]() { ProbePeers(); });
  if (!started_ || config_.size() < 2) {
    return;
  }
  // One peer per round, round-robin.
  const NodeId target = config_[probe_cursor_++ % config_.size()];
  if (target == self_) {
    return;
  }
  auto m = MakePooled<PingMsg>(group_);
  m->sent_at = sim_->now();
  Send(target, std::move(m));
}

void Replica::HandlePing(const PingMsg& m) {
  auto reply = MakePooled<PongMsg>(group_);
  reply->ping_sent_at = m.sent_at;
  Send(m.from, std::move(reply));
}

void Replica::HandlePong(const PongMsg& m) {
  const TimeMicros rtt = sim_->now() - m.ping_sent_at;
  TimeMicros& slot = probe_rtt_[m.from];
  slot = slot == 0 ? rtt : (3 * slot + rtt) / 4;
  centrality_ = ComputeCentrality();
}

TimeMicros Replica::ComputeCentrality() const {
  TimeMicros total = 0;
  size_t measured = 0;
  for (NodeId member : config_) {
    if (member == self_) {
      continue;
    }
    auto it = probe_rtt_.find(member);
    if (it != probe_rtt_.end() && it->second > 0) {
      total += it->second;
      measured++;
    }
  }
  if (config_.size() < 2 || measured * 2 < config_.size() - 1) {
    return 0;  // Too few probes to mean anything yet.
  }
  return total / static_cast<TimeMicros>(measured);
}

std::vector<std::pair<NodeId, TimeMicros>> Replica::MemberCentralities()
    const {
  std::vector<std::pair<NodeId, TimeMicros>> out;
  for (NodeId member : config_) {
    if (member == self_) {
      out.emplace_back(member, Centrality());
      continue;
    }
    auto it = peers_.find(member);
    out.emplace_back(member,
                     it == peers_.end() ? 0 : it->second.centrality);
  }
  return out;
}

void Replica::ServePendingReads() {
  if (pending_reads_.empty()) {
    return;
  }
  std::vector<std::pair<uint64_t, ReadCallback>> still_waiting;
  auto reads = std::move(pending_reads_);
  pending_reads_.clear();
  for (auto& [read_index, cb] : reads) {
    if (applied_index_ >= read_index) {
      cb(Status::Ok());
    } else {
      still_waiting.emplace_back(read_index, std::move(cb));
    }
  }
  for (auto& r : still_waiting) {
    pending_reads_.push_back(std::move(r));
  }
}

void Replica::FailPendingProposals(const Status& status) {
  auto pending = std::move(pending_proposals_);
  pending_proposals_.clear();
  stats_.proposals_failed += pending.size();
  obs::TraceRecorder* tr = sim_->tracer();
  for (auto& [index, ctx] : proposal_ctx_) {
    obs::Annotate(tr, ctx, "failed", status.message());
    obs::EndSpan(tr, ctx);
  }
  proposal_ctx_.clear();
  for (auto& [index, cb] : pending) {
    cb(status);
  }
}

// ---------------------------------------------------------------------------
// Public API
// ---------------------------------------------------------------------------

void Replica::Propose(CommandPtr command, CommitCallback callback) {
  SCATTER_CHECK(command != nullptr);
  SCATTER_CHECK(command->kind == Command::Kind::kApp);
  if (role_ != Role::kLeader) {
    callback(NotLeaderError("not leader"));
    return;
  }
  const uint64_t index = AppendLocal(std::move(command));
  // Span closes when the entry applies (or the proposal fails). Also
  // becomes the exemplar parent of the flush that carries it out.
  obs::TraceRecorder* tr = sim_->tracer();
  const obs::TraceContext span =
      obs::StartSpan(tr, "paxos.propose", self_, group_);
  obs::Annotate(tr, span, "index", index);
  TrackProposal(index, span);
  pending_proposals_.emplace(index, std::move(callback));
  // Group commit: the entry is in the log; the broadcast goes out on the
  // next flush, coalescing every proposal that lands before it.
  RequestFlush();
  MaybeAdvanceCommit();  // Single-node groups commit synchronously.
  UpdateHealthGauges();
}

void Replica::ProposeConfigChange(ConfigCommand::Op op, NodeId node,
                                  CommitCallback callback) {
  if (role_ != Role::kLeader) {
    callback(NotLeaderError("not leader"));
    return;
  }
  if (pending_config_index_ != 0) {
    callback(ConflictError("config change already in flight"));
    return;
  }
  const bool present =
      std::count(config_.begin(), config_.end(), node) > 0;
  if (op == ConfigCommand::Op::kAddMember && present) {
    callback(InvalidArgumentError("already a member"));
    return;
  }
  if (op == ConfigCommand::Op::kRemoveMember && !present) {
    callback(InvalidArgumentError("not a member"));
    return;
  }
  if (op == ConfigCommand::Op::kRemoveMember && node == self_) {
    callback(InvalidArgumentError("leader cannot remove itself"));
    return;
  }
  const uint64_t index =
      AppendLocal(std::make_shared<ConfigCommand>(op, node));
  obs::TraceRecorder* tr = sim_->tracer();
  const obs::TraceContext span =
      obs::StartSpan(tr, "paxos.propose_config", self_, group_);
  obs::Annotate(tr, span, "index", index);
  TrackProposal(index, span);
  pending_config_index_ = index;
  pending_proposals_.emplace(index, std::move(callback));
  if (op == ConfigCommand::Op::kAddMember && !cfg_.bug_skip_bootstrap_joiner) {
    // The appended entry already counts `node` toward its own quorum
    // (config takes effect at append), so start its catch-up now rather
    // than after commit — with a bare-quorum config the commit needs it.
    // (bug_skip_bootstrap_joiner re-introduces the pre-PR-2 wedge for the
    // model checker's mutation tests.)
    BootstrapJoiner(node);
  }
  RequestFlush();
  MaybeAdvanceCommit();
  UpdateHealthGauges();
}

void Replica::LinearizableRead(ReadCallback callback) {
  if (role_ != Role::kLeader) {
    callback(NotLeaderError("not leader"));
    return;
  }
  if (HasLease()) {
    stats_.lease_reads++;
    const uint64_t read_index = commit_index_;
    if (applied_index_ >= read_index) {
      callback(Status::Ok());
    } else {
      pending_reads_.emplace_back(read_index, std::move(callback));
    }
    return;
  }
  // Slow path: a no-op barrier through the log.
  stats_.barrier_reads++;
  const uint64_t index = AppendLocal(std::make_shared<NoOpCommand>());
  TrackProposal(index,
                obs::StartSpan(sim_->tracer(), "paxos.barrier", self_, group_));
  pending_proposals_.emplace(
      index, [cb = std::move(callback)](StatusOr<uint64_t> result) mutable {
        cb(result.ok() ? Status::Ok() : result.status());
      });
  RequestFlush();
  MaybeAdvanceCommit();
  UpdateHealthGauges();
}

// ---------------------------------------------------------------------------
// Shared machinery
// ---------------------------------------------------------------------------

void Replica::TrackProposal(uint64_t index, obs::TraceContext span) {
  if (span.valid()) {
    proposal_ctx_[index] = span;
    flush_ctx_ = span;
  }
}

void Replica::Send(NodeId to, std::shared_ptr<PaxosMessage> message) {
  // Group-commit barrier: no outgoing message may reveal a promise, accept,
  // or commit a crash could take back. A no-op when the journal is clean;
  // when dirty, one fsync covers every record since the last barrier —
  // batched flushes, and commit records from unacknowledged commit
  // notifications, are what make the batch > 1.
  SyncJournal();
  stats_.messages_sent++;
  host_->SendPaxos(to, std::move(message));
}

void Replica::ApplyCommitted() {
  obs::TraceRecorder* tr = sim_->tracer();
  while (applied_index_ < commit_index_) {
    const uint64_t index = applied_index_ + 1;
    const LogEntry* entry = log_.At(index);
    SCATTER_CHECK(entry != nullptr);
    const CommandPtr command = entry->command;  // Keep alive across apply.
    applied_index_ = index;
    // Leader side, the apply span parents to the proposal's span; follower
    // side there is none, so it parents to the delivered Accept's context.
    const auto pit = proposal_ctx_.find(index);
    const obs::TraceContext apply_span = obs::StartSpanWithParent(
        tr, "paxos.apply",
        pit != proposal_ctx_.end() ? pit->second : obs::Ambient(tr), self_,
        group_);
    obs::Annotate(tr, apply_span, "index", index);
    {
      obs::ScopedContext trace_scope(tr, apply_span);
      switch (command->kind) {
        case Command::Kind::kNoOp:
          break;
        case Command::Kind::kConfig:
          ApplyConfig(static_cast<const ConfigCommand&>(*command), index);
          break;
        case Command::Kind::kApp:
          sm_->Apply(index, *command);
          break;
      }
      auto it = pending_proposals_.find(index);
      if (it != pending_proposals_.end()) {
        CommitCallback cb = std::move(it->second);
        pending_proposals_.erase(it);
        cb(index);
      }
    }
    obs::EndSpan(tr, apply_span);
    // Found again: the callback may have failed (and erased) proposals.
    if (auto done = proposal_ctx_.find(index); done != proposal_ctx_.end()) {
      obs::EndSpan(tr, done->second);
      proposal_ctx_.erase(done);
    }
  }
  MaybeTruncateLog();
  ServePendingReads();
}

void Replica::ApplyConfig(const ConfigCommand& cmd, uint64_t index) {
  applied_config_index_ = index;
  if (role_ == Role::kLeader) {
    if (pending_config_index_ == index) {
      pending_config_index_ = 0;
    }
    if (cmd.op == ConfigCommand::Op::kAddMember) {
      // Kicks off snapshot/catch-up for the joiner. Normally already under
      // way since propose time; a new leader that inherited this entry
      // starts it here.
      BootstrapJoiner(cmd.node);
    } else if (auto it = peers_.find(cmd.node); it != peers_.end()) {
      // Keep the departing peer on the replication list until it holds the
      // entry that removed it, so it learns to stand down.
      it->second.leaving_at = index;
      ReplicateTo(cmd.node);
    }
  }
  if (cmd.op == ConfigCommand::Op::kRemoveMember && cmd.node == self_) {
    // We are out. Stop participating; the host tears us down shortly.
    timers_.Cancel(election_timer_);
    election_timer_ = sim::kInvalidTimer;
    host_->OnSelfRemoved(group_);
  }
}

void Replica::ConfigAt(uint64_t up_to, uint64_t* index,
                       std::vector<NodeId>* out) const {
  std::vector<NodeId>& config = *out;
  config.assign(snap_config_.begin(), snap_config_.end());
  uint64_t config_index = snap_config_index_;
  const auto& entries = log_.config_entries();
  for (auto it = entries.begin(); it != entries.end() && it->first <= up_to;
       ++it) {
    const ConfigCommand& cc = *it->second;
    if (cc.op == ConfigCommand::Op::kAddMember) {
      if (std::count(config.begin(), config.end(), cc.node) == 0) {
        config.push_back(cc.node);
      }
    } else {
      config.erase(std::remove(config.begin(), config.end(), cc.node),
                   config.end());
    }
    config_index = it->first;
  }
  if (index != nullptr) {
    *index = config_index;
  }
}

void Replica::RecomputeVotingConfig() {
  // The fold reads only the snapshot config and the log's config entries.
  // Every later change of the snapshot config (install, recovery, prefix
  // truncation) comes with a log reset or truncation, which bumps the count.
  if (log_.config_changes() == config_changes_folded_) {
    return;
  }
  config_changes_folded_ = log_.config_changes();
  ConfigAt(log_.last_index(), &config_index_, &config_scratch_);
  if (config_scratch_ != config_) {
    config_.swap(config_scratch_);
    DropLeaseExpiry();
    centrality_ = ComputeCentrality();
  }
}

void Replica::MaybeTruncateLog() {
  if (applied_index_ <= snap_base_index_ + 2 * cfg_.log_retention) {
    return;
  }
  const uint64_t new_base = applied_index_ - cfg_.log_retention;
  const Ballot base_ballot = BallotAt(new_base);
  // The snapshot-equivalent config moves with the base: it is the membership
  // as of new_base, which equals the applied config because new_base <=
  // applied_index_ and config entries in (new_base, applied] are re-derived
  // from the log by AppliedConfig().
  snap_config_ = ConfigAt(new_base, &snap_config_index_);
  log_.TruncatePrefix(new_base);
  snap_base_index_ = new_base;
  snap_base_ballot_ = base_ballot;
  if (journal_ != nullptr) {
    // Periodic durable checkpoint, piggybacked on in-memory truncation. The
    // on-disk base is the applied index (the state machine's live state) —
    // tighter than the in-memory retention base — and the WAL shrinks to
    // the unapplied tail plus whatever accumulates afterwards.
    journal_->WriteCheckpoint({applied_index_, BallotAt(applied_index_),
                               AppliedConfig(), applied_config_index_,
                               promised_, commit_index_},
                              *sm_, log_);
  }
}

bool Replica::LogUpToDate(uint64_t last_index, Ballot last_ballot) const {
  const Ballot mine = LastLogBallot();
  if (last_ballot != mine) {
    return last_ballot > mine;
  }
  return last_index >= last_log_index();
}

Ballot Replica::LastLogBallot() const { return BallotAt(last_log_index()); }

Ballot Replica::BallotAt(uint64_t index) const {
  if (index == 0) {
    return Ballot{};
  }
  if (index == snap_base_index_) {
    return snap_base_ballot_;
  }
  const LogEntry* e = log_.At(index);
  SCATTER_CHECK(e != nullptr);
  return e->ballot;
}

}  // namespace scatter::paxos
