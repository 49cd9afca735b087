// Tunable timing parameters of the Paxos implementation.

#ifndef SCATTER_SRC_PAXOS_CONFIG_H_
#define SCATTER_SRC_PAXOS_CONFIG_H_

#include "src/common/types.h"

namespace scatter::paxos {

// Entries per AcceptMsg. Longer backlogs stream as consecutive rounds.
inline constexpr uint64_t kMaxBatchEntries = 64;

struct PaxosConfig {
  // Leader -> follower heartbeat period.
  TimeMicros heartbeat_interval = Millis(50);

  // A follower that hears nothing from a leader for a randomized timeout in
  // [election_timeout_min, election_timeout_max] starts an election.
  TimeMicros election_timeout_min = Millis(250);
  TimeMicros election_timeout_max = Millis(500);

  // Leader lease length. Followers refuse to promise to a new candidate for
  // this long after hearing from the leader; the leader serves local reads
  // while a quorum's grants are unexpired. Must be <= election_timeout_min
  // so a live follower never times out while its own grant still binds it.
  TimeMicros lease_duration = Millis(250);

  // Leader declares a member suspect after this long without any ack; the
  // group layer may then propose removing it.
  TimeMicros member_fail_timeout = Seconds(4);

  // Log entries retained below the applied index before truncation. The
  // window lets laggards catch up from the log instead of by snapshot.
  uint64_t log_retention = 256;

  // When true, the leader serves linearizable reads locally under a valid
  // lease (fast path). When false, every read commits a no-op barrier
  // through the log (slow path); benchmarks toggle this to measure the
  // lease optimization.
  bool enable_lease_reads = true;

  // Period of the per-replica peer RTT probe (feeds leader placement).
  // Zero disables probing.
  TimeMicros peer_probe_interval = Seconds(2);

  // Maximum clock skew assumed by the lease logic. The simulator has a
  // single global clock, so the default is 0; tests inject non-zero values
  // to exercise the margin arithmetic.
  TimeMicros clock_skew_bound = 0;

  // --- Seeded bugs (test-only; never enable outside tests) ----------------
  // Known-bug mutations the model checker's mutation tests re-introduce to
  // prove the explorer finds them (tests/mc_mutation_test.cc). All default
  // to off and must stay off in production configurations.
  //
  // An acceptor takes a "fast path" that appends a batch cleanly extending
  // its log without checking the ballot against its promise — a stale
  // leader's in-flight Accept can then land after a new leader was elected,
  // committing divergent values for one slot.
  bool bug_accept_stale_ballot = false;
  // Skip the propose-time BootstrapJoiner call (the PR-2 join-liveness
  // fix): a bare-quorum group adding a member that does not yet host a
  // replica wedges, because the appended config entry already counts the
  // joiner toward its own quorum.
  bool bug_skip_bootstrap_joiner = false;
  // A replica recovering from its disk rebuilds from the checkpoint alone
  // and drops the log suffix WAL replay recovered: accepted and committed
  // entries the disk held are forgotten, so its commit point falls below
  // what it had made durable.
  bool bug_skip_wal_replay = false;
};

}  // namespace scatter::paxos

#endif  // SCATTER_SRC_PAXOS_CONFIG_H_
