#include "src/analysis/invariant_auditor.h"

#include <algorithm>
#include <fstream>
#include <map>
#include <set>
#include <utility>

#include "src/common/logging.h"
#include "src/core/scatter_node.h"
#include "src/core/wire_codecs.h"
#include "src/obs/health.h"
#include "src/obs/trace.h"
#include "src/membership/group_state_machine.h"
#include "src/paxos/log.h"
#include "src/paxos/payload_codec.h"
#include "src/paxos/replica.h"
#include "src/txn/group_op_driver.h"
#include "src/wire/buffer.h"

namespace scatter::analysis {
namespace {

std::string GroupTag(GroupId group) { return "g" + std::to_string(group); }
std::string NodeTag(NodeId node) { return "n" + std::to_string(node); }

// Value equality for committed commands. On the in-process transport all
// replicas share one allocation, so pointer identity settles it; on the
// serializing transport every replica holds its own decoded copy, so fall
// back to comparing the canonical wire encodings (one value, one byte
// sequence — see src/wire/codec.h).
bool SameCommand(const paxos::CommandPtr& a, const paxos::CommandPtr& b) {
  if (a.get() == b.get()) {
    return true;
  }
  if (a == nullptr || b == nullptr) {
    return false;
  }
  wire::Buffer ea;
  wire::Buffer eb;
  paxos::EncodeCommand(a, ea);
  paxos::EncodeCommand(b, eb);
  return ea == eb;
}

// ---------------------------------------------------------------------------
// Paxos safety
// ---------------------------------------------------------------------------

class PaxosSafetyChecker : public Checker {
 public:
  const char* name() const override { return "paxos"; }

  void Check(core::Cluster& cluster,
             std::vector<std::string>* problems) override {
    std::map<GroupId, std::vector<std::pair<NodeId, const paxos::Replica*>>>
        groups;
    for (NodeId id : cluster.live_node_ids()) {
      core::ScatterNode* node = cluster.node(id);
      for (const auto* sm : node->ServingGroups()) {
        const paxos::Replica* replica = node->GroupReplica(sm->id());
        if (replica != nullptr) {
          groups[sm->id()].emplace_back(id, replica);
        }
      }
    }

    std::set<std::pair<GroupId, NodeId>> observed;
    for (const auto& [gid, replicas] : groups) {
      size_t lease_leaders = 0;
      uint64_t min_first = ~uint64_t{0};
      std::map<uint64_t, paxos::CommandPtr>& committed = committed_[gid];
      for (const auto& [nid, replica] : replicas) {
        observed.insert({gid, nid});
        CheckReplica(gid, nid, *replica, committed, problems);
        if (replica->is_leader() && replica->HasLease()) {
          lease_leaders++;
        }
        min_first = std::min(min_first, replica->log().first_index());
      }
      CheckLeaderCompleteness(gid, replicas, problems);
      if (lease_leaders > 1) {
        problems->push_back(GroupTag(gid) + ": " +
                            std::to_string(lease_leaders) +
                            " replicas hold a leader lease simultaneously");
      }
      // Slots below every replica's log are sealed in snapshots and can
      // never be re-observed; drop them to bound memory.
      committed.erase(committed.begin(), committed.lower_bound(min_first));
    }

    // Forget state for groups/replicas that disappeared (retired groups,
    // crashed nodes); node and group ids are never reused.
    std::erase_if(seen_, [&observed](const auto& kv) {
      return observed.count(kv.first) == 0;
    });
    std::erase_if(committed_, [&groups](const auto& kv) {
      return groups.count(kv.first) == 0;
    });
  }

 private:
  struct SeenReplica {
    Ballot promised;
    uint64_t commit_index = 0;
  };

  // Leader Completeness (the election variant of Raft's invariant): let L be
  // the live leader with the highest promised ballot. Any slot some replica
  // has committed with an entry ballot <= L's promise must be present in L's
  // log with the same value — the vote quorum that elected L intersects
  // every ack quorum, and LogUpToDate refuses candidates missing acked
  // entries. Entries committed at a ballot above L's promise are excluded:
  // L may itself be a stale minority leader that simply has not heard of
  // the newer ballot yet. Catching this at the moment of the stale commit
  // (rather than when the conflicting append lands) is what lets the model
  // checker flag a divergence before the replica's own internal checks
  // abort the process.
  void CheckLeaderCompleteness(
      GroupId gid,
      const std::vector<std::pair<NodeId, const paxos::Replica*>>& replicas,
      std::vector<std::string>* problems) {
    const paxos::Replica* leader = nullptr;
    NodeId leader_node = kInvalidNode;
    for (const auto& [nid, replica] : replicas) {
      if (replica->is_leader() &&
          (leader == nullptr || leader->promised() < replica->promised())) {
        leader = replica;
        leader_node = nid;
      }
    }
    if (leader == nullptr) {
      return;
    }
    const paxos::Log& llog = leader->log();
    for (const auto& [nid, replica] : replicas) {
      if (replica == leader) {
        continue;
      }
      const paxos::Log& log = replica->log();
      const uint64_t hi = std::min(replica->commit_index(), log.last_index());
      // Slots below the leader's log head are sealed in its snapshot and
      // were committed identically by construction.
      for (uint64_t slot = std::max(log.first_index(), llog.first_index());
           slot <= hi; ++slot) {
        const paxos::LogEntry* entry = log.At(slot);
        if (entry == nullptr || !entry->valid() ||
            leader->promised() < entry->ballot) {
          continue;
        }
        const paxos::LogEntry* lentry = llog.At(slot);
        const std::string tag = GroupTag(gid) + "/" + NodeTag(nid);
        if (slot > llog.last_index() || lentry == nullptr ||
            !lentry->valid()) {
          problems->push_back(
              tag + ": committed slot " + std::to_string(slot) +
              " is missing from the log of current leader " +
              NodeTag(leader_node));
        } else if (!SameCommand(entry->command, lentry->command)) {
          problems->push_back(
              tag + ": committed slot " + std::to_string(slot) +
              " differs from the log of current leader " +
              NodeTag(leader_node));
        }
      }
    }
  }

  void CheckReplica(GroupId gid, NodeId nid, const paxos::Replica& replica,
                    std::map<uint64_t, paxos::CommandPtr>& committed,
                    std::vector<std::string>* problems) {
    const std::string tag = GroupTag(gid) + "/" + NodeTag(nid);
    if (replica.applied_index() > replica.commit_index()) {
      problems->push_back(tag + ": applied index " +
                          std::to_string(replica.applied_index()) +
                          " ahead of commit index " +
                          std::to_string(replica.commit_index()));
    }
    if (replica.commit_index() > replica.last_log_index()) {
      problems->push_back(tag + ": commit index " +
                          std::to_string(replica.commit_index()) +
                          " beyond last log index " +
                          std::to_string(replica.last_log_index()));
    }

    SeenReplica& seen = seen_[{gid, nid}];
    if (replica.promised() < seen.promised) {
      problems->push_back(tag + ": promised ballot regressed from " +
                          seen.promised.ToString() + " to " +
                          replica.promised().ToString());
    }
    if (replica.commit_index() < seen.commit_index) {
      problems->push_back(tag + ": commit index regressed from " +
                          std::to_string(seen.commit_index) + " to " +
                          std::to_string(replica.commit_index()));
    }
    seen.promised = std::max(seen.promised, replica.promised());
    seen.commit_index = std::max(seen.commit_index, replica.commit_index());

    // Committed-slot agreement: all replicas of a group must hold the same
    // chosen command at every committed slot, compared by value
    // (SameCommand: pointer fast path, wire encoding otherwise).
    const paxos::Log& log = replica.log();
    const uint64_t hi = std::min(replica.commit_index(), log.last_index());
    for (uint64_t slot = log.first_index(); slot <= hi; ++slot) {
      const paxos::LogEntry* entry = log.At(slot);
      if (entry == nullptr || !entry->valid()) {
        continue;
      }
      auto [it, inserted] = committed.emplace(slot, entry->command);
      if (!inserted && !SameCommand(it->second, entry->command)) {
        problems->push_back(tag + ": committed slot " + std::to_string(slot) +
                            " diverges from the value another replica " +
                            "committed at that slot");
      }
    }
  }

  std::map<std::pair<GroupId, NodeId>, SeenReplica> seen_;
  // Per group: the first command observed committed at each slot.
  std::map<GroupId, std::map<uint64_t, paxos::CommandPtr>> committed_;
};

// ---------------------------------------------------------------------------
// Ring safety
// ---------------------------------------------------------------------------

class RingSafetyChecker : public Checker {
 public:
  const char* name() const override { return "ring"; }

  void Check(core::Cluster& cluster,
             std::vector<std::string>* problems) override {
    // Every group a node both serves and believes it leads, checked on
    // every audit tick rather than only when a test samples it, so an
    // overlap that heals mid-churn is still caught.
    struct Led {
      ring::GroupInfo info;
      NodeId node;
      const paxos::Replica* replica;
    };
    std::vector<Led> led;
    for (NodeId id : cluster.live_node_ids()) {
      core::ScatterNode* node = cluster.node(id);
      for (const ring::GroupInfo& info : node->ServingInfos()) {
        if (info.leader == id) {
          led.push_back({info, id, node->GroupReplica(info.id)});
        }
      }
    }
    for (size_t i = 0; i < led.size(); ++i) {
      for (size_t j = i + 1; j < led.size(); ++j) {
        const Led& a = led[i];
        const Led& b = led[j];
        if (a.info.id == b.info.id) {
          // Two claimants of the same group happen transiently while a
          // deposed leader catches up; split-brain requires both to hold a
          // serving lease over the same epoch of the range.
          if (a.info.epoch == b.info.epoch && a.replica != nullptr &&
              b.replica != nullptr && a.replica->HasLease() &&
              b.replica->HasLease()) {
            problems->push_back("two leaseholding leaders of " +
                                a.info.ToString() + ": " + NodeTag(a.node) +
                                " and " + NodeTag(b.node));
          }
          continue;
        }
        if (a.info.range.Overlaps(b.info.range)) {
          problems->push_back("leader-led overlap: " + a.info.ToString() +
                              " (" + NodeTag(a.node) + ") vs " +
                              b.info.ToString() + " (" + NodeTag(b.node) +
                              ")");
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Group-op (2PC) legality
// ---------------------------------------------------------------------------

class GroupOpChecker : public Checker {
 public:
  const char* name() const override { return "groupop"; }

  void Check(core::Cluster& cluster,
             std::vector<std::string>* problems) override {
    for (NodeId id : cluster.live_node_ids()) {
      core::ScatterNode* node = cluster.node(id);
      for (const auto* sm : node->ServingGroups()) {
        const std::string tag = GroupTag(sm->id()) + "/" + NodeTag(id);
        const txn::GroupOpDriver* driver = node->GroupDriver(sm->id());
        if (driver != nullptr &&
            driver->phase() != txn::GroupOpDriver::Phase::kIdle &&
            !driver->active_txn_id().has_value()) {
          problems->push_back(
              tag + ": 2PC driver in phase " +
              txn::GroupOpDriver::PhaseName(driver->phase()) +
              " with no active transaction");
        }
        if (sm->IsFrozen()) {
          const membership::ActiveTxn& active = *sm->state().active;
          const GroupId expected = active.is_coordinator
                                       ? active.txn.coord_group
                                       : active.txn.part_group;
          if (expected != sm->id()) {
            problems->push_back(
                tag + ": frozen by txn " + std::to_string(active.txn.id) +
                " whose " +
                (active.is_coordinator ? "coordinator" : "participant") +
                " is " + GroupTag(expected) + ", not this group");
          }
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Store containment
// ---------------------------------------------------------------------------

class StoreContainmentChecker : public Checker {
 public:
  const char* name() const override { return "store"; }

  void Check(core::Cluster& cluster,
             std::vector<std::string>* problems) override {
    for (NodeId id : cluster.live_node_ids()) {
      core::ScatterNode* node = cluster.node(id);
      for (const auto* sm : node->ServingGroups()) {
        const std::optional<Key> stray =
            sm->state().data.FirstKeyOutside(sm->range());
        if (stray.has_value()) {
          problems->push_back(GroupTag(sm->id()) + "/" + NodeTag(id) +
                              ": stored key " + std::to_string(*stray) +
                              " outside claimed range " +
                              sm->range().ToString());
        }
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Durability
// ---------------------------------------------------------------------------

// Recovered state is a floor, never a suggestion: a replica that restarted
// from its own WAL + snapshot may never regress its promised ballot or
// commit index below what it recovered, and every committed entry it
// restored must still read back with the recovered content for as long as
// the slot stays in the log (slots sealed into a later snapshot are
// excluded — they were checkpointed with the same content by construction).
// A violation here means either recovery rebuilt the wrong state or
// post-recovery protocol traffic rewrote history the disk had made durable.
class DurabilityChecker : public Checker {
 public:
  const char* name() const override { return "durability"; }

  void Check(core::Cluster& cluster,
             std::vector<std::string>* problems) override {
    for (NodeId id : cluster.live_node_ids()) {
      core::ScatterNode* node = cluster.node(id);
      for (const auto* sm : node->ServingGroups()) {
        const paxos::Replica* replica = node->GroupReplica(sm->id());
        if (replica == nullptr || !replica->recovery_floor().recovered) {
          continue;
        }
        CheckFloor(sm->id(), id, *replica, problems);
      }
    }
  }

 private:
  void CheckFloor(GroupId gid, NodeId nid, const paxos::Replica& replica,
                  std::vector<std::string>* problems) {
    const paxos::Replica::RecoveryFloor& floor = replica.recovery_floor();
    const std::string tag = GroupTag(gid) + "/" + NodeTag(nid);
    if (replica.promised() < floor.promised) {
      problems->push_back(tag + ": promised ballot " +
                          replica.promised().ToString() +
                          " below the recovered floor " +
                          floor.promised.ToString());
    }
    if (replica.commit_index() < floor.commit_index) {
      problems->push_back(
          tag + ": commit index " + std::to_string(replica.commit_index()) +
          " below the recovered floor " + std::to_string(floor.commit_index));
    }
    const paxos::Log& log = replica.log();
    for (const auto& [index, digest] : floor.entry_digests) {
      if (index < log.first_index()) {
        continue;  // Sealed into a post-recovery snapshot.
      }
      const paxos::LogEntry* entry = log.At(index);
      if (entry == nullptr || !entry->valid()) {
        problems->push_back(tag + ": recovered committed slot " +
                            std::to_string(index) +
                            " vanished from the log");
      } else if (paxos::DigestLogEntry(*entry) != digest) {
        problems->push_back(tag + ": recovered committed slot " +
                            std::to_string(index) +
                            " was rewritten after recovery");
      }
    }
  }
};

// ---------------------------------------------------------------------------
// Health quietness
// ---------------------------------------------------------------------------

// A clean run (no injected faults) must not trip any health detector: a
// raise during an audited healthy run means either the cluster misbehaved
// below the safety radar or a detector threshold is mis-tuned — both worth
// failing loudly. No-ops when the simulator has no HealthMonitor; chaos
// scenarios that expect raises narrow `properties` to exclude "health".
class HealthQuietChecker : public Checker {
 public:
  const char* name() const override { return "health"; }

  void Check(core::Cluster& cluster,
             std::vector<std::string>* problems) override {
    const obs::HealthMonitor* monitor = cluster.sim().health_monitor();
    if (monitor == nullptr) {
      return;
    }
    const uint64_t raises = monitor->raises_total();
    if (raises <= last_raises_) {
      return;
    }
    last_raises_ = raises;
    std::string active;
    for (const obs::HealthMonitor::ActiveCondition& condition :
         monitor->ActiveConditions()) {
      active += " " + condition.condition + "(" + NodeTag(condition.node) +
                (condition.group != 0 ? "/" + GroupTag(condition.group) : "") +
                ")";
    }
    problems->push_back("health detector raised (" + std::to_string(raises) +
                        " total); active:" + (active.empty() ? " none" : active));
  }

 private:
  uint64_t last_raises_ = 0;
};

}  // namespace

std::unique_ptr<Checker> MakePaxosSafetyChecker() {
  return std::make_unique<PaxosSafetyChecker>();
}
std::unique_ptr<Checker> MakeRingSafetyChecker() {
  return std::make_unique<RingSafetyChecker>();
}
std::unique_ptr<Checker> MakeGroupOpChecker() {
  return std::make_unique<GroupOpChecker>();
}
std::unique_ptr<Checker> MakeStoreContainmentChecker() {
  return std::make_unique<StoreContainmentChecker>();
}
std::unique_ptr<Checker> MakeDurabilityChecker() {
  return std::make_unique<DurabilityChecker>();
}
std::unique_ptr<Checker> MakeHealthQuietChecker() {
  return std::make_unique<HealthQuietChecker>();
}

std::vector<std::unique_ptr<Checker>> MakeStandardCheckers(
    const std::vector<std::string>& properties) {
  static const std::vector<std::string> kAll = {
      "paxos", "ring", "groupop", "store", "durability", "health"};
  std::vector<std::unique_ptr<Checker>> checkers;
  for (const std::string& name : properties.empty() ? kAll : properties) {
    if (name == "paxos") {
      checkers.push_back(MakePaxosSafetyChecker());
    } else if (name == "ring") {
      checkers.push_back(MakeRingSafetyChecker());
    } else if (name == "groupop") {
      checkers.push_back(MakeGroupOpChecker());
    } else if (name == "store") {
      checkers.push_back(MakeStoreContainmentChecker());
    } else if (name == "durability") {
      checkers.push_back(MakeDurabilityChecker());
    } else if (name == "health") {
      checkers.push_back(MakeHealthQuietChecker());
    } else {
      SCATTER_CHECK(false && "unknown auditor property");
    }
  }
  return checkers;
}

InvariantAuditor::InvariantAuditor(core::Cluster* cluster,
                                   AuditorOptions options)
    : cluster_(cluster), opts_(std::move(options)) {
  // The paxos checker value-compares commands via their wire encoding;
  // make sure the codecs exist even on the in-process transport (idempotent).
  core::RegisterScatterWireCodecs();
  for (auto& checker : MakeStandardCheckers(opts_.properties)) {
    RegisterChecker(std::move(checker));
  }
  // The artifact's [last_events] read the network's delivery ring, which
  // records every delivery whether or not an auditor is attached.
  cluster_->sim().SetAuditHook(opts_.every_n_events, [this]() { RunOnce(); });
}

InvariantAuditor::~InvariantAuditor() {
  cluster_->sim().ClearAuditHook();
}

void InvariantAuditor::RegisterChecker(std::unique_ptr<Checker> checker) {
  checkers_.push_back(std::move(checker));
}

void InvariantAuditor::RunOnce() {
  audits_run_++;
  sim::Simulator& sim = cluster_->sim();
  bool fresh = false;
  for (const auto& checker : checkers_) {
    std::vector<std::string> problems;
    checker->Check(*cluster_, &problems);
    for (std::string& problem : problems) {
      SCATTER_ERROR() << "invariant violation [" << checker->name() << "] "
                      << problem;
      violations_.push_back(Violation{checker->name(), std::move(problem),
                                      sim.now(), sim.events_processed()});
      fresh = true;
    }
  }
  if (fresh && opts_.abort_on_violation) {
    DumpArtifact();
    SCATTER_ERROR() << "audit trace artifact written to "
                    << opts_.artifact_path << "; aborting";
    SCATTER_CHECK(false && "invariant auditor detected a protocol violation");
  }
}

void InvariantAuditor::DumpArtifact() const {
  sim::Simulator& sim = cluster_->sim();
  // LINT-ALLOW(durability-io): the audit trace artifact is a post-mortem
  // debugging aid, not durable protocol state.
  std::ofstream out(opts_.artifact_path);
  if (!out) {
    SCATTER_ERROR() << "cannot write audit artifact to "
                    << opts_.artifact_path;
    return;
  }
  out << "# scatter invariant-audit trace\n";
  out << "# replay: the run is bit-for-bit deterministic from this seed\n";
  out << "seed " << sim.seed() << "\n";
  out << "virtual_time_us " << sim.now() << "\n";
  out << "events_processed " << sim.events_processed() << "\n";
  out << "\n[violations]\n";
  for (const Violation& v : violations_) {
    out << "t=" << v.at << " events=" << v.events_processed << " ["
        << v.checker << "] " << v.detail << "\n";
  }
  out << "\n[last_events]\n";
  for (const sim::Network::Delivery& d : cluster_->net().RecentDeliveries()) {
    out << "t=" << d.at << " seq=" << d.seq << " "
        << sim::MessageTypeName(d.type) << " " << d.from << "->" << d.to
        << "\n";
  }
  // When causal tracing is active, dump the span forest too: it shows
  // which logical operations were mid-flight when the invariant broke.
  if (obs::TraceRecorder* tracer = sim.tracer();
      tracer != nullptr && !opts_.trace_json_path.empty()) {
    // LINT-ALLOW(durability-io): same — Chrome trace JSON for humans.
    std::ofstream trace_out(opts_.trace_json_path);
    if (trace_out) {
      trace_out << tracer->ToChromeJson();
      out << "\n[causal_trace]\n" << opts_.trace_json_path << "\n";
    }
  }
}

}  // namespace scatter::analysis
