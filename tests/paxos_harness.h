// Test harness for exercising a single Paxos group: hosts replicas on
// simulated nodes, provides a recording state machine, and offers crash /
// partition / churn helpers used across the protocol test suites.

#ifndef SCATTER_TESTS_PAXOS_HARNESS_H_
#define SCATTER_TESTS_PAXOS_HARNESS_H_

#include <algorithm>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/logging.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/paxos/command.h"
#include "src/paxos/journal.h"
#include "src/paxos/messages.h"
#include "src/paxos/payload_codec.h"
#include "src/paxos/replica.h"
#include "src/paxos/state_machine.h"
#include "src/paxos/wire_codecs.h"
#include "src/rpc/rpc_node.h"
#include "src/rpc/wire_codecs.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "src/sim/transport.h"
#include "src/storage/sim_disk.h"
#include "src/wire/codec.h"
#include "src/wire/transport_factory.h"

namespace scatter::paxos::testing {

// Application command: append a value to a replicated sequence.
struct SeqCommand : AppCommand {
  explicit SeqCommand(uint64_t v = 0) : value(v) {}
  uint64_t value;
};

// Field list for the test-private command type, registered through the
// production template, so the whole Paxos suite also runs under
// SCATTER_TRANSPORT=serializing/audit. Tags from 256 up are reserved
// for tests (production modules own 1-255).
template <class IO>
void Fields(SeqCommand& c, IO& io) {
  io(static_cast<AppCommand&>(c), c.value);
}

inline void RegisterPaxosTestCodecs() {
  static const bool done = [] {
    RegisterCommand<SeqCommand>(256);
    return true;
  }();
  (void)done;
}

// State machine that records the applied sequence, with state transfer
// and client dedup. Its state bytes are the values, then the client seqs.
class RecordingStateMachine : public StateMachine {
 public:
  void Apply(uint64_t index, const Command& command) override {
    const auto& cmd = static_cast<const SeqCommand&>(command);
    if (cmd.client_id != 0) {
      auto it = client_seqs_.find(cmd.client_id);
      if (it != client_seqs_.end() && it->second >= cmd.client_seq) {
        return;  // duplicate
      }
      client_seqs_[cmd.client_id] = cmd.client_seq;
    }
    values_.push_back(cmd.value);
  }

  void EncodeState(wire::Buffer& out) const override {
    wire::Write(values_, out);
    wire::Write(client_seqs_, out);
  }

  bool Restore(const uint8_t* data, size_t size) override {
    wire::Reader in(data, size);
    std::vector<uint64_t> values;
    std::map<uint64_t, uint64_t> client_seqs;
    in(values, client_seqs);
    if (!in.ok() || !in.AtEnd()) {
      return false;
    }
    values_ = std::move(values);
    client_seqs_ = std::move(client_seqs);
    return true;
  }

  const std::vector<uint64_t>& values() const { return values_; }

 private:
  std::vector<uint64_t> values_;
  std::map<uint64_t, uint64_t> client_seqs_;
};

// A simulated node hosting exactly one replica of one group. With a disk,
// the replica journals to it.
class PaxosTestNode : public rpc::RpcNode, public ReplicaHost {
 public:
  PaxosTestNode(NodeId id, sim::Network* network, const PaxosConfig& config,
                GroupId group, std::vector<NodeId> members,
                storage::SimDisk* disk = nullptr)
      : RpcNode(id, network) {
    replica_ = std::make_unique<Replica>(simulator(), this, &sm_, config,
                                         group, id, std::move(members),
                                         MakeJournal(disk, group));
  }

  // Restarts from what crash recovery reads back from `disk`.
  PaxosTestNode(NodeId id, sim::Network* network, const PaxosConfig& config,
                GroupId group, storage::SimDisk* disk)
      : RpcNode(id, network) {
    RecoveredState recovered;
    const bool ok = GroupJournal::Recover(*disk, group, &sm_, &recovered);
    SCATTER_CHECK(ok);
    replica_ = std::make_unique<Replica>(simulator(), this, &sm_, config,
                                         group, id, MakeJournal(disk, group),
                                         recovered);
    replica_->ReplayRecovered();
  }

  // ReplicaHost:
  void SendPaxos(NodeId to, std::shared_ptr<PaxosMessage> m) override {
    SendOneWay(to, std::move(m));
  }
  void OnSelfRemoved(GroupId group) override { self_removed = true; }
  void OnMemberSuspected(GroupId group, NodeId member) override {
    suspected.push_back(member);
  }

  // RpcNode:
  void OnRequest(const sim::MessagePtr& m) override {
    if (m->type == sim::MessageType::kPaxosAccept) {
      accept_batch_sizes.push_back(
          static_cast<const AcceptMsg&>(*m).entries.size());
    }
    if (unhosted) {
      // Mimic a ScatterNode that does not host a replica for this group:
      // all traffic is dropped until a bootstrap-flagged snapshot arrives
      // (which is what makes the real host create one).
      if (m->type != sim::MessageType::kPaxosSnapshot ||
          !static_cast<const SnapshotMsg&>(*m).bootstrap) {
        return;
      }
      unhosted = false;
    }
    replica_->OnMessage(std::static_pointer_cast<PaxosMessage>(m));
  }

  Replica& replica() { return *replica_; }
  const RecordingStateMachine& sm() const { return sm_; }

  bool self_removed = false;
  // When true, drops every message except a bootstrap-flagged snapshot
  // (see OnRequest). Set on spawned joiners to model the window where the
  // node does not yet host a replica for the group.
  bool unhosted = false;
  std::vector<NodeId> suspected;
  // Entries carried by each AcceptMsg this node received, in arrival order.
  std::vector<size_t> accept_batch_sizes;

 private:
  std::unique_ptr<GroupJournal> MakeJournal(storage::SimDisk* disk,
                                            GroupId group) {
    if (disk == nullptr) {
      return nullptr;
    }
    return std::make_unique<GroupJournal>(disk, &simulator()->metrics(), id(),
                                          group);
  }

  RecordingStateMachine sm_;
  std::unique_ptr<Replica> replica_;
};

// A group of nodes plus the simulator and network hosting them. With
// `persist`, every founding node journals to its own SimDisk and can be
// crash-restarted from it.
class PaxosCluster {
 public:
  explicit PaxosCluster(int n, uint64_t seed = 1,
                        PaxosConfig config = PaxosConfig(),
                        sim::NetworkConfig net_config = LanDefaults(),
                        bool persist = false)
      : sim_(seed),
        net_(wire::MakeNetwork(&sim_, net_config)),
        config_(config),
        group_(1) {
    // The serializing/audit transports (selected via SCATTER_TRANSPORT) need
    // the production paxos + rpc codecs as well as the test-only ones.
    paxos::RegisterWireCodecs();
    rpc::RegisterWireCodecs();
    RegisterPaxosTestCodecs();
    std::vector<NodeId> members;
    for (int i = 1; i <= n; ++i) {
      members.push_back(static_cast<NodeId>(i));
    }
    for (NodeId id : members) {
      storage::SimDisk* disk = nullptr;
      if (persist) {
        disk = (disks_[id] = std::make_unique<storage::SimDisk>()).get();
      }
      nodes_[id] = std::make_unique<PaxosTestNode>(id, net_.get(), config_,
                                                   group_, members, disk);
    }
  }

  static sim::NetworkConfig LanDefaults() {
    sim::NetworkConfig cfg;
    cfg.latency = sim::LatencyModel::Lan();
    return cfg;
  }

  sim::Simulator& sim() { return sim_; }
  sim::Network& net() { return *net_; }

  PaxosTestNode* node(NodeId id) {
    auto it = nodes_.find(id);
    return it == nodes_.end() ? nullptr : it->second.get();
  }

  std::vector<PaxosTestNode*> live_nodes() {
    std::vector<PaxosTestNode*> out;
    for (auto& [id, n] : nodes_) {
      if (n != nullptr) {
        out.push_back(n.get());
      }
    }
    return out;
  }

  // The unique live leader, or nullptr if there is none (multiple leaders of
  // different ballots can coexist transiently; the highest ballot wins —
  // this returns the highest-ballot leader).
  PaxosTestNode* leader() {
    PaxosTestNode* best = nullptr;
    for (PaxosTestNode* n : live_nodes()) {
      if (n->replica().is_leader()) {
        if (best == nullptr ||
            n->replica().promised() > best->replica().promised()) {
          best = n;
        }
      }
    }
    return best;
  }

  // Runs the simulation until a leader exists (up to `limit`).
  PaxosTestNode* WaitForLeader(TimeMicros limit = Seconds(20)) {
    const TimeMicros deadline = sim_.now() + limit;
    while (sim_.now() < deadline) {
      if (PaxosTestNode* l = leader(); l != nullptr) {
        return l;
      }
      sim_.RunFor(Millis(10));
    }
    return nullptr;
  }

  // Proposes through the current leader, retrying on leadership changes,
  // until the command commits or `limit` elapses. Returns true on commit.
  bool ProposeAndWait(uint64_t value, TimeMicros limit = Seconds(30)) {
    const TimeMicros deadline = sim_.now() + limit;
    next_client_seq_++;
    const uint64_t seq = next_client_seq_;
    while (sim_.now() < deadline) {
      PaxosTestNode* l = WaitForLeader(deadline - sim_.now());
      if (l == nullptr) {
        return false;
      }
      bool done = false;
      bool failed = false;
      auto cmd = std::make_shared<SeqCommand>(value);
      cmd->client_id = 777;
      cmd->client_seq = seq;
      l->replica().Propose(cmd, [&](StatusOr<uint64_t> result) {
        if (result.ok()) {
          done = true;
        } else {
          failed = true;
        }
      });
      while (!done && !failed && sim_.now() < deadline) {
        sim_.RunFor(Millis(5));
      }
      if (done) {
        return true;
      }
      // Leadership churned; retry (dedup makes this exactly-once).
      sim_.RunFor(Millis(50));
    }
    return false;
  }

  void Crash(NodeId id) { nodes_[id] = nullptr; }

  // Crashes node `id` (its disk loses the unsynced tail) and restarts it
  // from what the disk recovers. Persistent clusters only.
  PaxosTestNode* Restart(NodeId id) {
    storage::SimDisk* disk = disks_.at(id).get();
    Crash(id);
    disk->Crash();
    nodes_[id] = std::make_unique<PaxosTestNode>(id, net_.get(), config_,
                                                 group_, disk);
    return nodes_[id].get();
  }

  // Starts a brand-new node as a joiner replica for the group (it must then
  // be added via config change on the leader).
  PaxosTestNode* Spawn(NodeId id) {
    SCATTER_CHECK(nodes_.count(id) == 0 || nodes_[id] == nullptr);
    nodes_[id] = std::make_unique<PaxosTestNode>(id, net_.get(), config_,
                                                 group_, std::vector<NodeId>{});
    return nodes_[id].get();
  }

  // Adds `id` to the group through the leader, waiting for commit.
  bool AddMemberAndWait(NodeId id, TimeMicros limit = Seconds(30)) {
    return ConfigChangeAndWait(ConfigCommand::Op::kAddMember, id, limit);
  }
  bool RemoveMemberAndWait(NodeId id, TimeMicros limit = Seconds(30)) {
    return ConfigChangeAndWait(ConfigCommand::Op::kRemoveMember, id, limit);
  }

  // True when every live started replica has applied identical sequences.
  // (Prefix consistency is asserted by ExpectPrefixConsistent.)
  bool AllApplied(const std::vector<uint64_t>& expected) {
    for (PaxosTestNode* n : live_nodes()) {
      if (!n->replica().has_started()) {
        continue;
      }
      if (n->sm().values() != expected) {
        return false;
      }
    }
    return true;
  }

  // Verifies that any two replicas' applied sequences are prefix-ordered —
  // the fundamental RSM safety property.
  ::testing::AssertionResult PrefixConsistent() {
    auto nodes = live_nodes();
    for (size_t i = 0; i < nodes.size(); ++i) {
      for (size_t j = i + 1; j < nodes.size(); ++j) {
        const auto& a = nodes[i]->sm().values();
        const auto& b = nodes[j]->sm().values();
        const size_t len = std::min(a.size(), b.size());
        for (size_t k = 0; k < len; ++k) {
          if (a[k] != b[k]) {
            return ::testing::AssertionFailure()
                   << "divergence at position " << k << ": node "
                   << nodes[i]->id() << " applied " << a[k] << ", node "
                   << nodes[j]->id() << " applied " << b[k];
          }
        }
      }
    }
    return ::testing::AssertionSuccess();
  }

 private:
  bool ConfigChangeAndWait(ConfigCommand::Op op, NodeId id, TimeMicros limit) {
    const TimeMicros deadline = sim_.now() + limit;
    while (sim_.now() < deadline) {
      PaxosTestNode* l = WaitForLeader(deadline - sim_.now());
      if (l == nullptr) {
        return false;
      }
      bool done = false;
      bool failed = false;
      l->replica().ProposeConfigChange(op, id,
                                       [&](StatusOr<uint64_t> result) {
                                         if (result.ok()) {
                                           done = true;
                                         } else {
                                           failed = true;
                                         }
                                       });
      while (!done && !failed && sim_.now() < deadline) {
        sim_.RunFor(Millis(5));
      }
      if (done) {
        return true;
      }
      sim_.RunFor(Millis(100));
      // A failed attempt may nevertheless have committed; check.
      PaxosTestNode* l2 = leader();
      if (l2 != nullptr) {
        const auto& members = l2->replica().members();
        const bool present =
            std::count(members.begin(), members.end(), id) > 0;
        if ((op == ConfigCommand::Op::kAddMember) == present) {
          return true;
        }
      }
    }
    return false;
  }

  sim::Simulator sim_;
  std::unique_ptr<sim::Network> net_;
  PaxosConfig config_;
  GroupId group_;
  // Declared before nodes_: the replicas journal into these.
  std::map<NodeId, std::unique_ptr<storage::SimDisk>> disks_;
  std::map<NodeId, std::unique_ptr<PaxosTestNode>> nodes_;
  uint64_t next_client_seq_ = 0;
};

}  // namespace scatter::paxos::testing

#endif  // SCATTER_TESTS_PAXOS_HARNESS_H_
