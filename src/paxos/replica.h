// A group replica: acceptor, proposer, learner, and state-machine driver.
//
// One Replica instance per (node, group). The hosting node routes incoming
// PaxosMessages to the replica via OnMessage and provides the transport and
// lifecycle callbacks through ReplicaHost.
//
// Protocol summary (see messages.h for the safety rationale):
//  - Leader election: randomized timeouts; PrepareMsg = vote request with an
//    up-to-date-log restriction; a quorum of promises makes a leader, which
//    immediately appends a no-op barrier entry at its ballot.
//  - Replication: AcceptMsg carries consecutive entries anchored at
//    (prev_index, prev_ballot); followers verify the anchor, truncate
//    conflicting suffixes, and ack their match index. The leader advances
//    the commit index when a quorum matches an index whose entry carries the
//    leader's own ballot, and spreads it on the next Accept; an empty
//    Accept sent only for that (a commit notification) is not acked.
//  - Leases: every granted append extends the follower's promise not to
//    vote for anyone else for lease_duration; the leader serves linearizable
//    reads locally while a quorum of such grants (measured from its own send
//    timestamps, minus the configured clock-skew bound) is unexpired.
//  - Membership: single-member config changes through the log, effective on
//    append for quorum counting, one change in flight at a time.
//  - Snapshots: followers too far behind receive a full state-machine
//    snapshot; the log is prefix-truncated behind the applied index.

#ifndef SCATTER_SRC_PAXOS_REPLICA_H_
#define SCATTER_SRC_PAXOS_REPLICA_H_

#include <deque>
#include <map>
#include <utility>
#include <memory>
#include <set>
#include <unordered_map>
#include <vector>

#include "src/common/inline_fn.h"
#include "src/common/random.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"
#include "src/paxos/command.h"
#include "src/paxos/config.h"
#include "src/paxos/journal.h"
#include "src/paxos/log.h"
#include "src/paxos/messages.h"
#include "src/paxos/state_machine.h"
#include "src/sim/simulator.h"

namespace scatter::paxos {

// Services the replica requires from its hosting node.
class ReplicaHost {
 public:
  virtual ~ReplicaHost() = default;

  // Delivers a protocol message to the same group's replica on `to`.
  virtual void SendPaxos(NodeId to, std::shared_ptr<PaxosMessage> message) = 0;

  // This replica became / stopped being leader.
  virtual void OnRoleChanged(GroupId group, bool is_leader) {}

  // This node was removed from the group. The host should destroy the
  // replica soon, but must NOT do so synchronously from this callback.
  virtual void OnSelfRemoved(GroupId group) {}

  // Leader-side failure detector verdict: `member` has not acknowledged
  // anything for PaxosConfig::member_fail_timeout.
  virtual void OnMemberSuspected(GroupId group, NodeId member) {}
};

enum class Role { kFollower, kCandidate, kLeader };

class Replica {
 public:
  // Creates a founding replica (initial_members includes self; every member
  // starts with the same config and an empty log) or a joiner (passive until
  // a snapshot arrives; initial_members empty). With a journal, promises,
  // accepts and commits are persisted through it (founding replicas write
  // their first checkpoint immediately; joiners become recoverable when the
  // first snapshot installs).
  Replica(sim::Simulator* sim, ReplicaHost* host, StateMachine* state_machine,
          const PaxosConfig& config, GroupId group, NodeId self,
          std::vector<NodeId> initial_members,
          std::unique_ptr<GroupJournal> journal = nullptr);

  // Creates a replica from crash-recovered durable state (the restart path):
  // restores the state machine from the recovered snapshot and rebuilds the
  // log, promise and commit point exactly as persisted. The caller must
  // invoke ReplayRecovered() once host wiring is complete.
  Replica(sim::Simulator* sim, ReplicaHost* host, StateMachine* state_machine,
          const PaxosConfig& config, GroupId group, NodeId self,
          std::unique_ptr<GroupJournal> journal,
          const RecoveredState& recovered);
  ~Replica();

  Replica(const Replica&) = delete;
  Replica& operator=(const Replica&) = delete;

  // Routes one incoming protocol message.
  void OnMessage(const std::shared_ptr<PaxosMessage>& message);

  // Proposes an application command. The callback fires exactly once:
  // - with the entry's log index after the command committed AND applied, or
  // - with NOT_LEADER / ABORTED if this replica cannot commit it (the
  //   command may still commit later if it reached other replicas; callers
  //   rely on state-machine dedup for exactly-once effects).
  using CommitCallback = InlineFn<void(StatusOr<uint64_t>)>;
  void Propose(CommandPtr command, CommitCallback callback);

  // Proposes a membership change. Rejected with CONFLICT while another
  // change is in flight, NOT_LEADER on followers, INVALID_ARGUMENT for
  // no-op changes (adding a member twice, removing a non-member).
  void ProposeConfigChange(ConfigCommand::Op op, NodeId node,
                           CommitCallback callback);

  // Linearizable read barrier. The callback fires with OK once the local
  // applied state is guaranteed to reflect every operation that completed
  // before this call. Fast path: leader lease + ReadIndex (no network).
  // Slow path (lease disabled or not yet held): commit a no-op barrier.
  using ReadCallback = InlineFn<void(Status)>;
  void LinearizableRead(ReadCallback callback);

  // --- Introspection ----------------------------------------------------
  NodeId self() const { return self_; }
  Role role() const { return role_; }
  bool is_leader() const { return role_ == Role::kLeader; }
  // Current leader as far as this replica knows (kInvalidNode if unknown).
  NodeId leader_hint() const { return leader_hint_; }
  const std::vector<NodeId>& members() const { return config_; }
  // Membership as of applied_index_ — what the state machine's Apply "sees".
  // Deterministic across replicas at equal applied indexes (unlike
  // members(), which reflects uncommitted config entries).
  std::vector<NodeId> AppliedConfig() const {
    return ConfigAt(applied_index_, nullptr);
  }
  // Leader only: members flagged silent by the failure detector.
  std::vector<NodeId> SuspectedMembers() const;
  uint64_t commit_index() const { return commit_index_; }
  uint64_t applied_index() const { return applied_index_; }
  uint64_t last_log_index() const { return log_.last_index(); }
  // The raw accepted log (read-only; the invariant auditor compares
  // committed slots across replicas through this).
  const Log& log() const { return log_; }
  Ballot promised() const { return promised_; }
  bool has_started() const { return started_; }
  // True while the leader's lease covers local reads right now.
  bool HasLease() const;
  // Configs up to this size compute the lease expiry without allocating.
  static constexpr size_t kInlineLeaseGrants = 16;

  // Leadership transfer (leader only): surrender the lease and tell
  // `target` to campaign immediately. Returns false if preconditions fail
  // (not leader, target not a member, target == self).
  bool TransferLeadership(NodeId target);

  // This replica's self-measured centrality: mean smoothed RTT to peers
  // (0 until at least half the peers have been probed). Cached: every
  // Accepted reply carries it, so it is recomputed only when a probe
  // result or the voting config changes.
  TimeMicros Centrality() const { return centrality_; }
  // The value Centrality() caches, computed afresh.
  TimeMicros ComputeCentrality() const;

  // Leader only: each member's self-reported centrality (0 if unknown);
  // includes self. Input to the placement policy.
  std::vector<std::pair<NodeId, TimeMicros>> MemberCentralities() const;

  // Re-applies recovered committed entries to the state machine, firing the
  // usual host callbacks (config applied, etc.). Separate from the recovery
  // constructor so the host finishes wiring first. Returns the number of
  // entries applied.
  uint64_t ReplayRecovered();

  // What recovery read from disk — the durability invariant's floor: a
  // recovered replica may never regress its promise or commit point below
  // these, and committed entries still in the log must match the recorded
  // digests. Taken from the recovered state, not from the rebuilt replica,
  // so a rebuild that drops what the disk held shows as a regression. Read
  // by the analysis-layer durability checker.
  struct RecoveryFloor {
    bool recovered = false;
    Ballot promised;
    uint64_t commit_index = 0;
    // FNV digest over (index, ballot, encoded command) for every committed
    // entry restored from the WAL, keyed by index.
    std::map<uint64_t, uint64_t> entry_digests;
  };
  const RecoveryFloor& recovery_floor() const { return recovery_floor_; }

  // Mutation-testing hook: overwrites the committed entry at `index` with a
  // fresh no-op, silently diverging this replica from its peers. Exists so
  // auditor tests can prove the continuous Paxos checker detects committed
  // -slot divergence; never called by protocol code.
  void CorruptCommittedEntryForTest(uint64_t index);

  // Thin view over this replica's cells in the simulation's MetricsRegistry
  // ("paxos.<field>" scoped to (self, group)). Registry cells outlive the
  // replica, so counters are cumulative across restarts on the same
  // (node, group); bench math (avg_batch, msgs_per_op) reads through the
  // references exactly as it read the old plain struct.
  struct Stats {
    Stats(obs::MetricsRegistry& registry, NodeId node, GroupId group);
    // View over registry cells: a copy would alias the live counters (and
    // silently break before/after delta patterns), so forbid it. Snapshot
    // individual fields as plain integers instead.
    Stats(const Stats&) = delete;
    Stats& operator=(const Stats&) = delete;

    Counter& elections_started;
    Counter& transfers_initiated;
    Counter& transfer_elections;
    Counter& times_elected;
    Counter& entries_committed;
    Counter& snapshots_sent;
    Counter& snapshots_installed;
    Counter& lease_reads;
    Counter& barrier_reads;
    Counter& proposals_failed;
    // Commit-path batching/pipelining visibility (bench reports derive
    // avg batch = accept_entries_sent / accepts_sent and
    // messages-per-committed-op = messages_sent / entries_committed).
    Counter& accept_broadcasts;    // flush sweeps over all peers
    Counter& accepts_sent;         // AcceptMsgs sent (incl. empty)
    Counter& accept_entries_sent;  // log entries carried by them
    Counter& acks_sent;            // AcceptedMsgs sent
    Counter& messages_sent;        // every outgoing protocol message
    // Health-detector inputs (obs::HealthMonitor reads these cells by name):
    // levels refreshed by UpdateHealthGauges after every protocol step.
    obs::Gauge& commit_index;       // highest index known committed
    obs::Gauge& applied_index;      // highest index applied to the SM
    obs::Gauge& is_leader;          // 1 while this replica leads
    obs::Gauge& proposals_pending;  // accepted-not-yet-applied proposals
    obs::Gauge& snapshots_inflight; // unacked snapshot transfers (leader)
    // Entries this replica learned committed, as leader or follower (the
    // obs timeline's commit rate; entries_committed counts the leader only).
    Counter& commits_learned;
  };
  const Stats& stats() const { return stats_; }

 private:
  struct Peer {
    uint64_t next_index = 1;
    uint64_t match_index = 0;
    TimeMicros last_ack = 0;
    // Until when this peer's lease grant (measured from our send time)
    // holds.
    TimeMicros grant_until = 0;
    // Peer's self-reported centrality (leader side; from AcceptedMsg).
    TimeMicros centrality = 0;
    bool snapshot_inflight = false;
    TimeMicros snapshot_sent_at = 0;
    bool suspected = false;
    // Commit index carried by our last Accept to this peer; when it lags
    // commit_index_ the next flush owes the peer a commit notification.
    uint64_t last_sent_commit = 0;
    // Nonzero: index of the config entry that removed this peer. We keep
    // replicating until the peer has that entry (so it learns it was
    // removed), then drop it.
    uint64_t leaving_at = 0;
    // Fresh joiner that may not host a replica for this group yet; our
    // snapshots to it carry the bootstrap flag so its host creates one.
    // Cleared by the first snapshot ack.
    bool bootstrap = false;
  };

  // --- Role transitions ---------------------------------------------
  void BecomeFollower(Ballot seen);
  void StartElection();
  void BecomeLeader();
  void StepDown(Ballot seen);

  // --- Message handlers ----------------------------------------------
  void HandlePrepare(const PrepareMsg& m);
  void HandlePromise(const PromiseMsg& m);
  void HandleAccept(const std::shared_ptr<PaxosMessage>& m);
  void HandleAccepted(const AcceptedMsg& m);
  void HandleSnapshot(const SnapshotMsg& m);
  void HandleSnapshotAck(const SnapshotAckMsg& m);
  void HandleTimeoutNow(const TimeoutNowMsg& m);
  void HandlePing(const PingMsg& m);
  void HandlePong(const PongMsg& m);
  void ProbePeers();

  // --- Leader machinery ----------------------------------------------
  // Appends a command to the local log at the next index with our ballot.
  uint64_t AppendLocal(CommandPtr command);
  // Streams entry rounds (or a snapshot) to one follower from its
  // next_index, up to the pipeline window past its match index, advancing
  // next_index optimistically. With nothing to send, an empty Accept goes
  // out if `allow_empty` (heartbeat or window probe, acknowledged) or the
  // peer lags commit_index_ (commit notification, not acknowledged).
  void ReplicateTo(NodeId peer, bool allow_empty = true);
  // Starts catch-up for a member added by a config entry. A joiner we have
  // never heard from gets a bootstrap snapshot immediately — before the
  // entry commits — because the entry's own quorum already counts it: with
  // a bare-quorum config the change can only commit once the joiner acks,
  // and the joiner may not even host a replica until a snapshot tells its
  // host to create one.
  void BootstrapJoiner(NodeId node);
  // One flush sweep over all peers. force_empty sends heartbeats to
  // up-to-date peers too (heartbeat timer, new leader).
  void FlushAppends(bool force_empty);
  void BroadcastAppends();
  // Group-commit scheduling: proposals request a flush; rounds gate on
  // kPipelineDepth flushed-but-uncommitted broadcasts.
  void RequestFlush();
  void ScheduleFlush(TimeMicros delay);
  void Flush();
  void MaybeAdvanceCommit();
  void OnHeartbeatTimer();
  void CheckQuorumConnectivity();
  // When the leader's lease runs out: the QuorumSize()-th largest grant.
  // Cached: every write to a grant_until, every insert, erase or clear of
  // peers_ and every change of config_ calls DropLeaseExpiry().
  TimeMicros LeaseExpiry() const;
  void DropLeaseExpiry() { lease_expiry_stale_ = true; }
  void ServePendingReads();
  void FailPendingProposals(const Status& status);

  // --- Durability ------------------------------------------------------
  // Raises the promise to max(promised_, b); journals only a strict
  // increase. The single mutation point for promised_.
  void RaisePromise(Ballot b);
  void JournalAccept(const LogEntry& entry);
  void JournalTruncateSuffix(uint64_t from);
  void JournalCommit(uint64_t index);
  // Fsync barrier (no-op without a journal or when it is clean). Called
  // from Send() so no outgoing message can reveal state a crash would lose,
  // and from MaybeAdvanceCommit so our own log is durable before it counts
  // toward a quorum.
  void SyncJournal();

  // --- Shared machinery ----------------------------------------------
  // Records a traced proposal's span under its index and as the next
  // flush's parent; an invalid span (tracing off) records nothing.
  void TrackProposal(uint64_t index, obs::TraceContext span);
  // All outgoing protocol traffic funnels through here (message counting
  // and the journal's group-commit barrier).
  void Send(NodeId to, std::shared_ptr<PaxosMessage> message);
  void ApplyCommitted();
  void ApplyConfig(const ConfigCommand& cmd, uint64_t index);
  // Refreshes the health-detector gauges from current replica state. Called
  // after every externally-driven step (message, proposal, election), so
  // gauges are never staler than one protocol event when the monitor ticks.
  void UpdateHealthGauges();
  // Membership as of log index `up_to`: the snapshot config with the log's
  // indexed config entries at or below `up_to` applied in order. `*index`
  // receives the index of the last entry applied (snap_config_index_ if
  // none); may be null. The three-argument form folds into *config, reusing
  // its capacity.
  void ConfigAt(uint64_t up_to, uint64_t* index,
                std::vector<NodeId>* config) const;
  std::vector<NodeId> ConfigAt(uint64_t up_to, uint64_t* index) const {
    std::vector<NodeId> config;
    ConfigAt(up_to, index, &config);
    return config;
  }
  // Updates the voting config when a config entry is appended/truncated.
  // Followers call it on every accepted batch; it folds into
  // config_scratch_, so it allocates nothing while the config stands still.
  void RecomputeVotingConfig();
  void MaybeTruncateLog();
  size_t QuorumSize() const { return config_.size() / 2 + 1; }
  bool LogUpToDate(uint64_t last_index, Ballot last_ballot) const;
  // Re-arms the election timer at a random election timeout, or at `delay`.
  void ResetElectionTimer();
  void ArmElectionTimer(TimeMicros delay);
  Ballot LastLogBallot() const;
  Ballot BallotAt(uint64_t index) const;  // snapshot-base aware

  sim::Simulator* sim_;
  ReplicaHost* host_;
  StateMachine* sm_;
  PaxosConfig cfg_;
  GroupId group_;
  NodeId self_;
  Rng rng_;

  // Persistence seam: null runs the replica memory-only (exactly the
  // pre-durability behavior); non-null journals durable state through the
  // storage layer.
  std::unique_ptr<GroupJournal> journal_;
  RecoveryFloor recovery_floor_;

  // Durable-equivalent state.
  Ballot promised_;
  Log log_;
  uint64_t snap_base_index_ = 0;
  Ballot snap_base_ballot_;

  // Voting configuration: the latest config entry present in the log (even
  // uncommitted), falling back to the snapshot config.
  std::vector<NodeId> config_;
  std::vector<NodeId> config_scratch_;  // RecomputeVotingConfig's fold
  uint64_t config_index_ = 0;  // log index that produced config_
  uint64_t config_changes_folded_ = 0;  // log_.config_changes() at the fold
  uint64_t snap_config_index_ = 0;
  std::vector<NodeId> snap_config_;
  uint64_t applied_config_index_ = 0;

  Role role_ = Role::kFollower;
  NodeId leader_hint_ = kInvalidNode;
  uint64_t commit_index_ = 0;
  uint64_t applied_index_ = 0;
  uint64_t max_round_seen_ = 0;
  bool started_ = false;  // false for joiners until the first snapshot

  // Leader state.
  std::unordered_map<NodeId, Peer> peers_;
  uint64_t term_barrier_index_ = 0;  // our no-op; reads wait for its commit
  uint64_t pending_config_index_ = 0;  // uncommitted config entry, 0 if none
  std::map<uint64_t, CommitCallback> pending_proposals_;  // by log index
  std::vector<std::pair<uint64_t, ReadCallback>> pending_reads_;
  // Group-commit state: last log index covered by a flush, and the end
  // index of each flushed-but-uncommitted broadcast round (front is pruned
  // as the commit index passes it).
  uint64_t last_flush_end_ = 0;
  std::deque<uint64_t> flush_ends_;
  TimeMicros flush_deadline_ = 0;
  // MaybeAdvanceCommit's quorum-match fold, reused across acks.
  std::vector<uint64_t> match_scratch_;

  // Causal-trace plumbing across the batching boundary: a timer-driven
  // flush fires outside the context that caused it, so the last proposal
  // that requested one is captured here as the flush span's parent.
  obs::TraceContext flush_ctx_;
  // Per-proposal span (by log index): opened in Propose, closed when the
  // entry applies (or the proposal fails).
  std::map<uint64_t, obs::TraceContext> proposal_ctx_;

  // Candidate state.
  std::set<NodeId> votes_;
  // The next election we start carries bypass_lease (leadership transfer).
  bool transfer_election_ = false;
  // Set when we hand leadership away: stop serving lease reads until we
  // observe the outcome (a higher ballot) or the attempt expires.
  TimeMicros lease_surrendered_until_ = 0;

  // LeaseExpiry()'s last result, valid while !lease_expiry_stale_.
  mutable TimeMicros lease_expiry_ = 0;
  mutable bool lease_expiry_stale_ = true;

  // Follower lease grant.
  Ballot lease_ballot_;
  TimeMicros lease_until_ = 0;

  // Peer probing (all roles): our own RTT estimates to each member, and
  // outstanding ping send-times. Leader-side estimates also come from
  // append acks; probing covers followers.
  std::unordered_map<NodeId, TimeMicros> probe_rtt_;
  TimeMicros centrality_ = 0;  // ComputeCentrality() as of the last change
  size_t probe_cursor_ = 0;

  Stats stats_;

  sim::TimerId election_timer_ = sim::kInvalidTimer;
  sim::TimerId heartbeat_timer_ = sim::kInvalidTimer;
  sim::TimerId fd_timer_ = sim::kInvalidTimer;
  sim::TimerId flush_timer_ = sim::kInvalidTimer;
  // Declared last: cancels all timers before other members are destroyed.
  sim::TimerOwner timers_;
};

// Content digest of a log entry — FNV over (index, ballot, canonical wire
// encoding of the command). RecoveryFloor::entry_digests records these at
// recovery; the analysis durability checker recomputes them against the
// live log to prove recovery-committed entries are never rewritten.
uint64_t DigestLogEntry(const LogEntry& entry);

}  // namespace scatter::paxos

#endif  // SCATTER_SRC_PAXOS_REPLICA_H_
