#include "src/mc/harness.h"

#include <algorithm>
#include <memory>

#include "src/common/logging.h"
#include "src/verify/linearizability.h"

namespace scatter::mc {

namespace {

// Thrown (via the installed CheckFailureHandler) when a SCATTER_CHECK fails
// inside the system under test while a harness is live. `where` is the
// basename:line identity that SameViolation keys on.
struct CheckFailedError {
  std::string where;
  std::string cond;
};

[[noreturn]] void ThrowCheckFailure(const char* file, int line,
                                    const char* cond) {
  const char* base = file;
  for (const char* p = file; *p != '\0'; ++p) {
    if (*p == '/') {
      base = p + 1;
    }
  }
  throw CheckFailedError{std::string(base) + ":" + std::to_string(line),
                         cond};
}

// Harnesses can nest (minimization replays inside an exploration); the
// handler stays installed while any harness is alive. Single-threaded, like
// the simulator itself.
int g_live_harnesses = 0;

// Length of the fair epilogue that runs after the controlled prefix.
constexpr TimeMicros kEpilogueRun = Seconds(3);

}  // namespace

McHarness::McHarness(const McScenario& scenario, uint64_t seed)
    : scenario_(scenario) {
  if (++g_live_harnesses == 1) {
    SetCheckFailureHandler(&ThrowCheckFailure);
  }
  core::ClusterConfig cfg = scenario_.cluster;
  cfg.seed = seed;
  cluster_ = std::make_unique<core::Cluster>(cfg);
  analysis::AuditorOptions opts;
  opts.abort_on_violation = false;
  // The hook only matters for the uncontrolled setup / epilogue phases;
  // during controlled execution AfterStep() audits every decision anyway.
  opts.every_n_events = 512;
  opts.properties = scenario_.properties;
  auditor_ = std::make_unique<analysis::InvariantAuditor>(cluster_.get(), opts);
}

McHarness::~McHarness() {
  if (--g_live_harnesses == 0) {
    SetCheckFailureHandler(nullptr);
  }
  if (cluster_ != nullptr) {
    cluster_->net().SetScheduler(nullptr);
  }
}

void McHarness::Start(bool controlled) {
  cluster_->RunFor(scenario_.setup_run);

  // Freeze the ring layout (KeyInGroup / GroupIdAt) and fault surface
  // before control starts, so decision alphabets are identical across
  // schedules. Scenario setup runs with policies disabled, so the layout
  // cannot shift under it.
  groups_ = cluster_->AuthoritativeRing();
  std::sort(groups_.begin(), groups_.end(),
            [](const ring::GroupInfo& a, const ring::GroupInfo& b) {
              return a.range.begin < b.range.begin;
            });
  client_ = cluster_->AddClient();
  client_->SeedRing(cluster_->AuthoritativeRing());
  if (scenario_.setup) {
    scenario_.setup(*this);
  }
  if (scenario_.crash_candidates) {
    crash_list_ = scenario_.crash_candidates(*this);
  }
  if (scenario_.partition_islands) {
    islands_ = scenario_.partition_islands(*this);
  }
  crashes_left_ = scenario_.crash_budget;
  spawns_left_ = scenario_.spawn_budget;
  restarts_left_ =
      cluster_->persistence_enabled() ? scenario_.restart_budget : 0;

  if (controlled) {
    cluster_->net().SetScheduler(this);
    capture_ = true;
  }
  if (scenario_.on_start) {
    scenario_.on_start(*this);
  }
  DrainTurn();
  AfterStep();
}

bool McHarness::OnSend(const sim::MessagePtr& message) {
  if (!capture_) {
    return false;
  }
  pending_.push_back(PendingMessage{next_capture_id_++, message});
  return true;
}

std::vector<Choice> McHarness::EnabledChoices() {
  std::vector<Choice> out;
  // Prune messages whose receiver is gone: they can never be delivered and
  // would otherwise bloat every decision list.
  for (auto it = pending_.begin(); it != pending_.end();) {
    if (!cluster_->net().IsAttached(it->msg->to)) {
      captured_dropped_++;
      it = pending_.erase(it);
    } else {
      ++it;
    }
  }
  for (const PendingMessage& p : pending_) {
    // A captured message crossing an active partition stays "in flight in
    // the netsplit": not enabled until the partition heals.
    if (!cluster_->net().AllowsLink(p.msg->from, p.msg->to)) {
      continue;
    }
    out.push_back(Choice{ChoiceKind::kDeliver, p.id, p.msg->to});
  }
  if (cluster_->sim().pending_events() > 0) {
    out.push_back(Choice{ChoiceKind::kAdvanceTime, 0, kInvalidNode});
  }
  if (crashes_left_ > 0) {
    for (NodeId id : crash_list_) {
      if (cluster_->node(id) != nullptr) {
        out.push_back(Choice{ChoiceKind::kCrash, id, kInvalidNode});
      }
    }
  }
  if (spawns_left_ > 0) {
    out.push_back(Choice{ChoiceKind::kSpawn, 0, kInvalidNode});
  }
  if (restarts_left_ > 0) {
    // Only nodes crashed during this schedule can be dead.
    for (NodeId id : crash_list_) {
      if (cluster_->node(id) == nullptr) {
        out.push_back(Choice{ChoiceKind::kRestart, id, kInvalidNode});
      }
    }
  }
  if (!islands_.empty() && !partition_active_) {
    out.push_back(Choice{ChoiceKind::kPartition, 0, kInvalidNode});
  }
  if (partition_active_) {
    out.push_back(Choice{ChoiceKind::kHeal, 0, kInvalidNode});
  }
  return out;
}

bool McHarness::Execute(const Choice& choice) {
  try {
    if (!ExecuteChoice(choice)) {
      return false;
    }
    DrainTurn();
  } catch (const CheckFailedError& e) {
    RecordCheckViolation(e.where, e.cond);
    executed_.push_back(choice);
    return true;
  }
  executed_.push_back(choice);
  try {
    AfterStep();
  } catch (const CheckFailedError& e) {
    RecordCheckViolation(e.where, e.cond);
  }
  return true;
}

bool McHarness::ExecuteChoice(const Choice& choice) {
  switch (choice.kind) {
    case ChoiceKind::kDeliver: {
      auto it = std::find_if(
          pending_.begin(), pending_.end(),
          [&](const PendingMessage& p) { return p.id == choice.arg; });
      if (it == pending_.end()) {
        return false;  // replay divergence: this capture never happened
      }
      sim::MessagePtr msg = it->msg;
      if (!cluster_->net().AllowsLink(msg->from, msg->to)) {
        return false;  // not enabled while the partition stands
      }
      pending_.erase(it);
      if (cluster_->net().IsAttached(msg->to)) {
        cluster_->net().InjectDelivery(msg);
      }
      // else: receiver crashed since capture; the message just vanishes.
      break;
    }
    case ChoiceKind::kAdvanceTime:
      cluster_->sim().Step();
      break;
    case ChoiceKind::kCrash:
      if (crashes_left_ == 0 || cluster_->node(choice.arg) == nullptr) {
        return false;
      }
      crashes_left_--;
      cluster_->CrashNode(choice.arg);
      cluster_->RefreshSeeds();
      break;
    case ChoiceKind::kSpawn:
      if (spawns_left_ == 0) {
        return false;
      }
      spawns_left_--;
      cluster_->SpawnNode();
      cluster_->RefreshSeeds();
      break;
    case ChoiceKind::kPartition:
      if (partition_active_ || islands_.empty()) {
        return false;
      }
      cluster_->net().Partition(islands_);
      partition_active_ = true;
      break;
    case ChoiceKind::kHeal:
      if (!partition_active_) {
        return false;
      }
      cluster_->net().HealPartition();
      partition_active_ = false;
      break;
    case ChoiceKind::kRestart:
      if (restarts_left_ == 0 || cluster_->node(choice.arg) != nullptr ||
          !cluster_->persistence_enabled()) {
        return false;
      }
      restarts_left_--;
      if (scenario_.restart_amnesiac) {
        cluster_->WipeDisk(choice.arg);
      }
      cluster_->RestartNode(choice.arg);
      cluster_->RefreshSeeds();
      break;
  }
  return true;
}

void McHarness::FinishSchedule() {
  if (finished_) {
    return;
  }
  finished_ = true;
  try {
    if (!violation_.has_value()) {
      // Fair epilogue: release scheduling control, heal, flush everything
      // still pending, and let the cluster run normally. Liveness failures
      // that survive this are genuine wedges, not adversarial starvation.
      capture_ = false;
      cluster_->net().SetScheduler(nullptr);
      if (partition_active_) {
        cluster_->net().HealPartition();
        partition_active_ = false;
      }
      std::deque<PendingMessage> flush;
      flush.swap(pending_);
      for (const PendingMessage& p : flush) {
        if (cluster_->net().IsAttached(p.msg->to)) {
          cluster_->net().InjectDelivery(p.msg);
        }
      }
      cluster_->RunFor(kEpilogueRun);
      AfterStep();
    }
    if (!violation_.has_value()) {
      IssueProbeReads();
      history_.Close(cluster_->sim().now());
      verify::LinearizabilityChecker checker;
      verify::CheckResult result =
          checker.CheckAll(history_.PerKeyHistories());
      if (!result.linearizable) {
        violation_ = McViolation{"linearizability", "", result.Summary()};
      }
    }
    if (!violation_.has_value() && scenario_.goal) {
      if (!scenario_.goal(*this)) {
        violation_ = McViolation{"liveness", "",
                                 "goal predicate failed after fair epilogue"};
      }
    }
  } catch (const CheckFailedError& e) {
    // A divergence staged during the controlled prefix can detonate a
    // replica's own internal check once the epilogue runs freely; that is
    // a finding like any other.
    RecordCheckViolation(e.where, e.cond);
  }
  cluster_->net().SetScheduler(nullptr);
  capture_ = false;
}

void McHarness::RunUncontrolled(TimeMicros d) {
  try {
    cluster_->RunFor(d);
    AfterStep();
  } catch (const CheckFailedError& e) {
    RecordCheckViolation(e.where, e.cond);
  }
}

void McHarness::RecordCheckViolation(const std::string& where,
                                     const std::string& cond) {
  if (!violation_.has_value()) {
    violation_ = McViolation{"check", where, "CHECK failed: " + cond};
  }
}

NodeId McHarness::client_id() const {
  return client_ != nullptr ? client_->id() : kInvalidNode;
}

void McHarness::ClientPut(Key key, const std::string& tag,
                          std::function<void()> then) {
  SCATTER_CHECK(client_ != nullptr);
  const Value value = "mc:" + tag + ":" + std::to_string(++put_seq_);
  const uint64_t op =
      history_.RecordInvoke(verify::OpType::kWrite, key, value,
                            cluster_->sim().now());
  written_keys_.push_back(key);
  client_->Put(key, value, [this, op, then = std::move(then)](Status s) {
    history_.RecordComplete(op,
                            s.ok() ? verify::Outcome::kOk
                                   : verify::Outcome::kIndeterminate,
                            "", cluster_->sim().now());
    if (then) {
      then();
    }
  });
}

void McHarness::ClientGet(core::Client* client, Key key) {
  const uint64_t op = history_.RecordInvoke(verify::OpType::kRead, key, "",
                                            cluster_->sim().now());
  client->Get(key, [this, op](StatusOr<Value> r) {
    if (r.ok()) {
      history_.RecordComplete(op, verify::Outcome::kOk, r.value(),
                              cluster_->sim().now());
    } else if (r.status().code() == StatusCode::kNotFound) {
      history_.RecordComplete(op, verify::Outcome::kNotFound, "",
                              cluster_->sim().now());
    } else {
      // Unanswered read: constrains nothing.
      history_.RecordComplete(op, verify::Outcome::kIndeterminate, "",
                              cluster_->sim().now());
    }
  });
}

core::Client* McHarness::AddClient(const std::vector<ring::GroupInfo>& ring) {
  core::Client* client = cluster_->AddClient();
  client->SeedRing(ring);
  return client;
}

NodeId McHarness::LeaderOf(GroupId group) {
  for (NodeId id : cluster_->live_node_ids()) {
    const paxos::Replica* replica = cluster_->node(id)->GroupReplica(group);
    if (replica != nullptr && replica->is_leader()) {
      return id;
    }
  }
  return kInvalidNode;
}

bool McHarness::RequestMerge(GroupId group) {
  const NodeId leader = LeaderOf(group);
  if (leader == kInvalidNode) {
    return false;
  }
  cluster_->node(leader)->RequestMerge(group, [](Status) {});
  return true;
}

bool McHarness::RequestSplit(GroupId group) {
  const NodeId leader = LeaderOf(group);
  if (leader == kInvalidNode) {
    return false;
  }
  cluster_->node(leader)->RequestSplit(group, [](Status) {});
  return true;
}

bool McHarness::ProbeWrite(Key key) {
  SCATTER_CHECK(client_ != nullptr);
  const Value value = "mc:probe:" + std::to_string(++put_seq_);
  const uint64_t op =
      history_.RecordInvoke(verify::OpType::kWrite, key, value,
                            cluster_->sim().now());
  written_keys_.push_back(key);
  auto state = std::make_shared<std::pair<bool, bool>>(false, false);
  client_->Put(key, value, [this, op, state](Status s) {
    state->first = true;
    state->second = s.ok();
    history_.RecordComplete(op,
                            s.ok() ? verify::Outcome::kOk
                                   : verify::Outcome::kIndeterminate,
                            "", cluster_->sim().now());
  });
  const TimeMicros deadline = cluster_->sim().now() + scenario_.probe_run;
  while (!state->first && cluster_->sim().now() < deadline &&
         cluster_->sim().pending_events() > 0) {
    cluster_->sim().Step();
  }
  return state->first && state->second;
}

Key McHarness::KeyInGroup(size_t group_index) const {
  SCATTER_CHECK(group_index < groups_.size());
  return groups_[group_index].range.Midpoint();
}

GroupId McHarness::GroupIdAt(size_t group_index) const {
  SCATTER_CHECK(group_index < groups_.size());
  return groups_[group_index].id;
}

void McHarness::DrainTurn() {
  // Fire every event due at the current instant (same-timestamp handler
  // cascades scheduled by the action just taken).
  cluster_->sim().RunUntil(cluster_->sim().now());
}

void McHarness::AfterStep() {
  auditor_->RunOnce();
  NoteAuditorViolations();
}

void McHarness::NoteAuditorViolations() {
  if (violation_.has_value() || auditor_->violations().empty()) {
    return;
  }
  const analysis::Violation& v = auditor_->violations().front();
  violation_ = McViolation{"auditor", v.checker, v.detail};
}

void McHarness::IssueProbeReads() {
  std::vector<Key> keys = written_keys_;
  std::sort(keys.begin(), keys.end());
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
  const size_t first = history_.total_ops();
  for (Key key : keys) {
    ClientGet(client_, key);
  }
  const auto probes_pending = [&] {
    return std::any_of(history_.ops().begin() + first, history_.ops().end(),
                       [](const verify::Operation& op) {
                         return op.outcome == verify::Outcome::kPending;
                       });
  };
  const TimeMicros deadline = cluster_->sim().now() + scenario_.probe_run;
  while (probes_pending() && cluster_->sim().now() < deadline &&
         cluster_->sim().pending_events() > 0) {
    cluster_->sim().Step();
  }
}

}  // namespace scatter::mc
