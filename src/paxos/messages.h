// Wire messages of the replication protocol.
//
// The protocol is Multi-Paxos with chained log replication: log entries are
// tagged with the ballot that proposed them, appends carry a
// (prev_index, prev_ballot) consistency anchor, and elections grant ballots
// only to candidates with an up-to-date log. This is the shape production
// Multi-Paxos deployments converge on (and is equivalent to Raft with Paxos
// vocabulary); it avoids the prefix-divergence hazards of per-slot phase-1
// adoption while preserving identical message complexity.
//
// All traffic is one-way (acks are protocol messages, not RPC responses):
// requests and acknowledgements are matched by (ballot, index) at the
// protocol level.

#ifndef SCATTER_SRC_PAXOS_MESSAGES_H_
#define SCATTER_SRC_PAXOS_MESSAGES_H_

#include <cstdint>
#include <vector>

#include "src/common/types.h"
#include "src/paxos/command.h"
#include "src/paxos/log.h"
#include "src/sim/message.h"

namespace scatter::paxos {

// Base: every Paxos message is addressed to a replica of one group; a host
// node routes on `group`.
struct PaxosMessage : sim::Message {
  PaxosMessage(sim::MessageType t, GroupId g) : Message(t), group(g) {}
  GroupId group;
};

// Phase 1a (vote request). The candidate advertises its log position; a
// voter grants only to candidates whose log is at least as up to date.
struct PrepareMsg : PaxosMessage {
  explicit PrepareMsg(GroupId g = kInvalidGroup)
      : PaxosMessage(sim::MessageType::kPaxosPrepare, g) {}
  Ballot ballot;
  uint64_t last_log_index = 0;
  Ballot last_log_ballot;
  // Set on elections triggered by a leadership transfer: voters skip the
  // lease check (the lease holder sanctioned this election).
  bool bypass_lease = false;
};

// Phase 1b (vote).
struct PromiseMsg : PaxosMessage {
  explicit PromiseMsg(GroupId g = kInvalidGroup)
      : PaxosMessage(sim::MessageType::kPaxosPromise, g) {}
  Ballot ballot;  // the ballot being answered
  bool granted = false;
  Ballot promised;  // voter's current promise (useful on rejection)
  // Nonzero when rejected because the voter still honors a leader lease;
  // the candidate should retry after roughly this long.
  TimeMicros lease_wait = 0;
};

// Phase 2a (append). Carries zero or more consecutive entries starting at
// prev_index + 1; an empty entry list doubles as heartbeat and as a
// commit-index notification, and only the notification goes unacknowledged
// (want_ack false). Piggybacks the leader's commit index and send
// timestamp (for lease accounting). Under group-commit batching one Accept
// routinely carries many client proposals, and the leader streams several
// rounds back-to-back (pipelining) without waiting for acks; followers must
// therefore tolerate out-of-order and duplicate rounds, which the
// (prev_index, prev_ballot) anchor plus idempotent same-ballot appends
// already guarantee.
struct AcceptMsg : PaxosMessage {
  explicit AcceptMsg(GroupId g = kInvalidGroup)
      : PaxosMessage(sim::MessageType::kPaxosAccept, g) {}
  // Charges every carried entry (header + command payload) so the network
  // byte histograms stay honest under batching.
  size_t ByteSize() const override {
    size_t bytes = 96;
    for (const LogEntry& e : entries) {
      bytes += 24 + (e.command != nullptr ? e.command->ByteSize() : 0);
    }
    return bytes;
  }
  Ballot ballot;
  uint64_t prev_index = 0;
  Ballot prev_ballot;
  std::vector<LogEntry> entries;
  uint64_t commit_index = 0;
  TimeMicros sent_at = 0;
  // False only on a commit notification: an empty Accept whose one purpose
  // is to carry commit_index. The follower applies the commit but sends no
  // positive ack (nacks still go out), so the notification costs one
  // message and no fsync. Heartbeats and window probes keep it true: their
  // acks renew the leader's lease and feed its failure detector.
  bool want_ack = true;
};

// Phase 2b (append ack). The follower sends one as soon as it has handled
// an Accept that wants one: ok with its match index, or a nack naming the
// blocking promise or the index to resend from.
struct AcceptedMsg : PaxosMessage {
  explicit AcceptedMsg(GroupId g = kInvalidGroup)
      : PaxosMessage(sim::MessageType::kPaxosAccepted, g) {}
  size_t ByteSize() const override { return 96; }
  Ballot ballot;
  bool ok = false;
  Ballot promised;           // on ballot rejection: the blocking promise
  uint64_t match_index = 0;  // on success: highest index known replicated
  // On chain mismatch: resend from here (follower's last index + 1, or the
  // conflict point).
  uint64_t need_from = 0;
  uint64_t applied_index = 0;
  TimeMicros leader_sent_at = 0;  // echo of AcceptMsg::sent_at
  // Sender's self-measured centrality: mean RTT to its group peers
  // (0 = not yet measured). Input to latency-aware leader placement.
  TimeMicros centrality = 0;
};

// Full-state transfer for a replica whose next needed entry was truncated
// away (fresh joiners always take this path).
struct SnapshotMsg : PaxosMessage {
  explicit SnapshotMsg(GroupId g = kInvalidGroup)
      : PaxosMessage(sim::MessageType::kPaxosSnapshot, g) {}
  size_t ByteSize() const override {
    return 128 + 8 * config.size() + data.size();
  }
  Ballot ballot;
  uint64_t last_included_index = 0;
  Ballot last_included_ballot;
  std::vector<NodeId> config;  // membership as of the snapshot
  uint64_t config_index = 0;   // log index of that membership's entry
  // The state machine's state at last_included_index, as its EncodeState
  // wrote it: the bytes a checkpoint stores after its header.
  std::vector<uint8_t> data;
  TimeMicros sent_at = 0;
  // Receiver is a joiner that may not host a replica for this group yet;
  // its host should create one to install this snapshot into (the join
  // reply that normally triggers that races with the config-change commit
  // and can be lost).
  bool bootstrap = false;
};

// Leadership transfer: the current leader tells `to` to campaign
// immediately. The target's vote requests carry bypass_lease so voters do
// not stall the handover on their standing lease grants — safe because the
// lease holder itself initiated the transfer and surrendered its lease
// before sending this.
struct TimeoutNowMsg : PaxosMessage {
  explicit TimeoutNowMsg(GroupId g = kInvalidGroup)
      : PaxosMessage(sim::MessageType::kPaxosTimeoutNow, g) {}
  Ballot ballot;  // the transferring leader's ballot
};

// Lightweight peer probe: every replica occasionally pings its peers to
// estimate its own centrality (mean RTT to the group), which it reports to
// the leader via AcceptedMsg::centrality for leader-placement decisions.
struct PingMsg : PaxosMessage {
  explicit PingMsg(GroupId g = kInvalidGroup)
      : PaxosMessage(sim::MessageType::kPaxosPing, g) {}
  TimeMicros sent_at = 0;
};

struct PongMsg : PaxosMessage {
  explicit PongMsg(GroupId g = kInvalidGroup)
      : PaxosMessage(sim::MessageType::kPaxosPong, g) {}
  TimeMicros ping_sent_at = 0;
};

struct SnapshotAckMsg : PaxosMessage {
  explicit SnapshotAckMsg(GroupId g = kInvalidGroup)
      : PaxosMessage(sim::MessageType::kPaxosSnapshotAck, g) {}
  Ballot ballot;
  uint64_t last_included_index = 0;
  TimeMicros leader_sent_at = 0;
};

}  // namespace scatter::paxos

#endif  // SCATTER_SRC_PAXOS_MESSAGES_H_
