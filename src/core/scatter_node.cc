#include "src/core/scatter_node.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/common/pooled.h"
#include "src/membership/commands.h"
#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace scatter::core {

using membership::DeleteCommand;
using membership::FoundingGroup;
using membership::GroupState;
using membership::GroupStateMachine;
using membership::PutCommand;
using ring::GroupInfo;
using sim::MessagePtr;
using sim::MessageType;

namespace {

// Cap on ring-cache samples shipped in join replies.
constexpr size_t kSeedRingLimit = 32;

// Timeout of the node's own RPCs: join requests and neighbor-link lookups.
constexpr TimeMicros kRpcTimeout = Seconds(1);

// Minimum delay between repartitions initiated by one group (damping).
constexpr TimeMicros kRepartitionCooldown = Seconds(10);

// Latency-aware leader placement transfers when a member's centrality (its
// mean RTT to the group) is below this fraction of the leader's own.
constexpr double kLeaderTransferRatio = 0.8;

// Routing infos per gossip message: the node's serving groups first, then
// random cached arcs up to this many.
constexpr size_t kGossipSample = 8;

// Retired groups keep their replicas alive this long so laggards can
// learn the final entries before teardown.
constexpr TimeMicros kRetiredGrace = Seconds(15);

// Join retry backoff.
constexpr TimeMicros kJoinRetryMin = Millis(500);
constexpr TimeMicros kJoinRetryMax = Seconds(2);

// Sets result i of a reply: code, and for a Get that found its key, the
// value.
void SetResult(ClientReplyMsg& reply, size_t i, StatusCode code,
               std::optional<Value> value = std::nullopt) {
  StatusCode& c = i == 0 ? reply.code : reply.more_results[i - 1].code;
  bool& found = i == 0 ? reply.found : reply.more_results[i - 1].found;
  c = code;
  found = value.has_value();
  if (value.has_value()) {
    (i == 0 ? reply.value : reply.more_results[i - 1].value) =
        std::move(*value);
  }
}

}  // namespace

ScatterNode::ScatterNode(NodeId id, sim::Network* network,
                         const ScatterConfig& config,
                         std::vector<NodeId> seeds, storage::SimDisk* disk)
    : RpcNode(id, network),
      cfg_(config),
      seeds_(std::move(seeds)),
      disk_(disk) {
  last_hosted_at_ = now();
  ring_.BindMetrics(&simulator()->metrics(), id);
  // Stagger policy ticks across nodes.
  timers().Schedule(cfg_.policy.policy_interval + rng().Range(0, Millis(500)),
                    [this]() { PolicyTick(); });
  if (cfg_.policy.gossip_interval > 0) {
    timers().Schedule(cfg_.policy.gossip_interval + rng().Range(0, Seconds(1)),
                      [this]() { GossipTick(); });
  }
}

ScatterNode::~ScatterNode() {
  // A dying replica fails its pending proposals and reads, and their
  // callbacks look the group up again through FindHosted. Take the groups
  // out of hosted_ first, so those lookups miss instead of walking a map
  // that is halfway through its own destructor.
  std::map<GroupId, Hosted> doomed;
  doomed.swap(hosted_);
}

uint64_t ScatterNode::NewUniqueId() {
  uint64_t h = MixHash(id(), ++unique_counter_);
  return h == 0 ? 1 : h;
}

// ---------------------------------------------------------------------------
// Group hosting
// ---------------------------------------------------------------------------

std::unique_ptr<paxos::GroupJournal> ScatterNode::MakeJournal(GroupId group) {
  if (disk_ == nullptr) {
    return nullptr;
  }
  return std::make_unique<paxos::GroupJournal>(disk_, &simulator()->metrics(),
                                               id(), group);
}

ScatterNode::Hosted* ScatterNode::CreateHosted(
    GroupId group, GroupState initial, std::vector<NodeId> founding_members) {
  SCATTER_CHECK(hosted_.count(group) == 0);
  Hosted& h = hosted_[group];
  h.sm = std::make_unique<GroupStateMachine>(this, std::move(initial));
  h.replica = std::make_unique<paxos::Replica>(
      simulator(), this, h.sm.get(), cfg_.paxos, group, id(),
      std::move(founding_members), MakeJournal(group));
  return WireHosted(group);
}

ScatterNode::Hosted* ScatterNode::WireHosted(GroupId group) {
  Hosted& h = hosted_[group];
  h.sm->BindConfigProvider(
      [replica = h.replica.get()]() { return replica->AppliedConfig(); });
  h.driver = std::make_unique<txn::GroupOpDriver>(
      simulator(), this, h.replica.get(), h.sm.get(), cfg_.txn);
  obs::MetricsRegistry& metrics = simulator()->metrics();
  h.ops_accepted = &metrics.GetCounter("store.ops_accepted", id(), group);
  h.bytes_accepted = &metrics.GetCounter("store.bytes_accepted", id(), group);
  h.op_latency = &metrics.GetHistogram("store.op.latency_us", id(), group);
  last_hosted_at_ = now();
  simulator()->metrics().GetGauge("core.hosted_groups", id()).Add(1);
  return &h;
}

size_t ScatterNode::RecoverFromDisk() {
  if (disk_ == nullptr) {
    return 0;
  }
  // Recovery is visible to the health monitor: the gauge rises when groups
  // are rebuilt and returns to zero once their committed entries are
  // re-applied. A value stuck above zero means replay never finished.
  auto& active = simulator()->metrics().GetGauge("recovery.active", id());
  std::vector<GroupId> recovered_groups;
  for (GroupId gid : paxos::GroupsOnDisk(*disk_)) {
    if (hosted_.count(gid) > 0) {
      continue;
    }
    GroupState initial;
    initial.id = gid;  // Recover restores the real state.
    auto sm = std::make_unique<GroupStateMachine>(this, std::move(initial));
    paxos::RecoveredState recovered;
    if (!paxos::GroupJournal::Recover(*disk_, gid, sm.get(), &recovered)) {
      // No usable checkpoint (a joiner that crashed pre-install, or a
      // corrupt snapshot): this group rejoins amnesiac. Drop the remnants
      // so the next restart does not trip over them either.
      paxos::GroupJournal::RemoveFiles(disk_, gid);
      continue;
    }
    active.Add(1);
    simulator()->metrics().GetCounter("recovery.wal_records", id()) +=
        recovered.wal_records;
    Hosted& h = hosted_[gid];
    h.sm = std::move(sm);
    h.replica = std::make_unique<paxos::Replica>(simulator(), this,
                                                 h.sm.get(), cfg_.paxos, gid,
                                                 id(), MakeJournal(gid),
                                                 recovered);
    WireHosted(gid);
    recovered_groups.push_back(gid);
  }

  // Replay after every recovered replica exists: applying committed entries
  // fires the usual host callbacks (OnGroupsFounded, OnSelfRemoved, ...)
  // which may look up sibling groups.
  auto& replay_entries =
      simulator()->metrics().GetCounter("recovery.replay_entries", id());
  auto& duration =
      simulator()->metrics().GetHistogram("recovery.duration_us", id());
  for (GroupId gid : recovered_groups) {
    const TimeMicros started = now();
    Hosted* h = FindHosted(gid);
    SCATTER_CHECK(h != nullptr);
    replay_entries += h->replica->ReplayRecovered();
    duration.Record(static_cast<int64_t>(now() - started));
    active.Add(-1);
  }
  return recovered_groups.size();
}

void ScatterNode::HostFoundingGroup(const FoundingGroup& group) {
  GroupState initial;
  initial.id = group.info.id;
  initial.range = group.info.range;
  initial.epoch = group.info.epoch;
  initial.pred = group.pred;
  initial.succ = group.succ;
  initial.data = group.data;
  initial.dedup = group.dedup;
  initial.txn_outcomes = group.inherited_txns;
  CreateHosted(group.info.id, std::move(initial), group.info.members);
  AbsorbRingInfo(group.info);
}

void ScatterNode::ScheduleTeardown(GroupId group, TimeMicros delay) {
  auto it = hosted_.find(group);
  if (it == hosted_.end() || it->second.teardown_scheduled) {
    return;
  }
  it->second.teardown_scheduled = true;
  timers().Schedule(delay, [this, group]() {
    if (hosted_.erase(group) > 0) {
      simulator()->metrics().GetGauge("core.hosted_groups", id()).Add(-1);
      if (disk_ != nullptr) {
        // A torn-down group must not resurrect on restart.
        paxos::GroupJournal::RemoveFiles(disk_, group);
      }
    }
  });
}

ScatterNode::Hosted* ScatterNode::FindHosted(GroupId group) {
  auto it = hosted_.find(group);
  return it == hosted_.end() ? nullptr : &it->second;
}

ScatterNode::Hosted* ScatterNode::FindServingGroup(Key key) {
  for (auto& [gid, h] : hosted_) {
    if (h.replica->has_started() && !h.sm->IsRetired() &&
        h.sm->range().Contains(key)) {
      return &h;
    }
  }
  return nullptr;
}

GroupInfo ScatterNode::SelfInfo(const Hosted& hosted) const {
  GroupInfo info;
  info.id = hosted.sm->id();
  info.range = hosted.sm->range();
  info.epoch = hosted.sm->epoch();
  info.members = hosted.replica->members();
  info.leader = hosted.replica->is_leader() ? id()
                                            : hosted.replica->leader_hint();
  info.key_count = hosted.sm->state().data.size();
  info.has_key_count = true;
  if (hosted.replica->is_leader()) {
    info.op_rate = hosted.op_rate;
    info.has_op_rate = true;
  }
  return info;
}

void ScatterNode::AbsorbRingInfo(const GroupInfo& info) {
  if (!info.valid()) {
    return;
  }
  // We are authoritative for groups we actively serve; ignore outside gossip
  // about them.
  auto it = hosted_.find(info.id);
  if (it != hosted_.end() && !it->second.sm->IsRetired()) {
    return;
  }
  ring_.Upsert(info);
}

void ScatterNode::AddRoutingHints(Key key, std::vector<GroupInfo>* out) {
  for (auto& [gid, h] : hosted_) {
    if (h.sm->IsRetired()) {
      for (const GroupInfo& fwd : h.sm->state().forward) {
        if (fwd.range.Contains(key)) {
          out->push_back(fwd);
        }
      }
      continue;
    }
    if (!h.replica->has_started()) {
      continue;
    }
    if (h.sm->range().Contains(key)) {
      out->push_back(SelfInfo(h));
    }
    // Ring-neighbor links: the freshest information anyone has right after
    // a boundary moved (repartition) — without this, clients whose caches
    // predate the move could never repair themselves.
    const GroupInfo& pred = h.sm->state().pred;
    if (pred.valid() && pred.id != gid && pred.range.Contains(key)) {
      out->push_back(pred);
    }
    const GroupInfo& succ = h.sm->state().succ;
    if (succ.valid() && succ.id != gid && succ.range.Contains(key)) {
      out->push_back(succ);
    }
  }
  if (const GroupInfo* cached = ring_.Lookup(key); cached != nullptr) {
    out->push_back(*cached);
  }
  if (!out->empty()) {
    return;
  }
  // Nothing we know covers the key: hand back a ring-walk step — the
  // closest preceding arc among our groups, their neighbor links, and the
  // cache. The next hop knows its successor, so the walk converges.
  const GroupInfo* best = nullptr;
  auto consider = [&](const GroupInfo& info) {
    if (!info.valid() || info.members.empty()) {
      return;
    }
    if (best == nullptr ||
        key - info.range.begin < key - best->range.begin) {
      best = &info;
    }
  };
  std::vector<GroupInfo> own;
  for (auto& [gid, h] : hosted_) {
    if (!h.replica->has_started() || h.sm->IsRetired()) {
      continue;
    }
    own.push_back(SelfInfo(h));
    own.push_back(h.sm->state().pred);
    own.push_back(h.sm->state().succ);
  }
  for (const GroupInfo& info : own) {
    consider(info);
  }
  if (const GroupInfo* walk = ring_.ClosestPreceding(key); walk != nullptr) {
    consider(*walk);
  }
  if (best != nullptr) {
    out->push_back(*best);
  }
}

// ---------------------------------------------------------------------------
// ReplicaHost
// ---------------------------------------------------------------------------

void ScatterNode::SendPaxos(NodeId to,
                            std::shared_ptr<paxos::PaxosMessage> message) {
  SendOneWay(to, std::move(message));
}

void ScatterNode::OnRoleChanged(GroupId group, bool is_leader) {
  if (Hosted* h = FindHosted(group); h != nullptr) {
    h->leadership_since = is_leader ? now() : 0;
    if (h->driver != nullptr) {
      h->driver->Poke();
    }
  }
}

void ScatterNode::OnSelfRemoved(GroupId group) {
  // Deferred: we are inside this replica's apply path.
  ScheduleTeardown(group, 0);
}

void ScatterNode::OnMemberSuspected(GroupId group, NodeId member) {
  Hosted* h = FindHosted(group);
  if (h == nullptr || member == id() || !h->replica->is_leader()) {
    return;
  }
  h->replica->ProposeConfigChange(
      paxos::ConfigCommand::Op::kRemoveMember, member,
      [this](StatusOr<uint64_t> result) {
        if (result.ok()) {
          stats_.members_removed++;
        }
        // Failures retried from the policy tick via SuspectedMembers().
      });
}

// ---------------------------------------------------------------------------
// GroupListener
// ---------------------------------------------------------------------------

void ScatterNode::OnGroupsFounded(GroupId retired,
                                  const std::vector<FoundingGroup>& groups) {
  for (const FoundingGroup& fg : groups) {
    const bool is_member =
        std::count(fg.info.members.begin(), fg.info.members.end(), id()) > 0;
    // During post-crash replay this callback re-fires for splits that
    // already happened: the child group then has its own journal on disk
    // and is recovered (or already was) by RecoverFromDisk. Founding it
    // afresh here would overwrite that durable state with an empty group.
    const bool recoverable =
        disk_ != nullptr && paxos::GroupJournal::HasState(*disk_, fg.info.id);
    if (is_member && hosted_.count(fg.info.id) == 0 && !recoverable) {
      HostFoundingGroup(fg);
    } else {
      AbsorbRingInfo(fg.info);
    }
  }
  // Keep the retired replica around for a grace period so laggards can
  // still learn the final log entries, then drop it.
  ScheduleTeardown(retired, kRetiredGrace);
}

void ScatterNode::OnStructuralChange(GroupId group) {
  if (Hosted* h = FindHosted(group); h != nullptr) {
    if (h->driver != nullptr) {
      h->driver->Poke();
    }
  }
}

// ---------------------------------------------------------------------------
// DriverHost
// ---------------------------------------------------------------------------

void ScatterNode::SendToNode(NodeId to, MessagePtr message) {
  SendOneWay(to, std::move(message));
}

// ---------------------------------------------------------------------------
// Request dispatch
// ---------------------------------------------------------------------------

void ScatterNode::OnRequest(const MessagePtr& message) {
  switch (message->type) {
    case MessageType::kPaxosPrepare:
    case MessageType::kPaxosPromise:
    case MessageType::kPaxosAccept:
    case MessageType::kPaxosAccepted:
    case MessageType::kPaxosSnapshot:
    case MessageType::kPaxosSnapshotAck:
    case MessageType::kPaxosTimeoutNow:
    case MessageType::kPaxosPing:
    case MessageType::kPaxosPong: {
      auto pm = std::static_pointer_cast<paxos::PaxosMessage>(message);
      Hosted* h = FindHosted(pm->group);
      if (h == nullptr && message->type == MessageType::kPaxosSnapshot &&
          sim::As<paxos::SnapshotMsg>(message).bootstrap) {
        // The leader added us to this group but the join reply that would
        // have created our replica raced with the config-change commit (or
        // was lost); host a joiner replica for the snapshot to land in.
        GroupState initial;
        initial.id = pm->group;
        CreateHosted(pm->group, std::move(initial), /*founding_members=*/{});
        h = FindHosted(pm->group);
      }
      if (h != nullptr) {
        h->replica->OnMessage(pm);
      }
      return;
    }
    case MessageType::kTxnPrepare:
    case MessageType::kTxnPrepareReply:
    case MessageType::kTxnDecision:
    case MessageType::kTxnDecisionAck:
    case MessageType::kTxnStatusQuery:
    case MessageType::kTxnStatusReply:
      HandleTxnMessage(message);
      return;
    case MessageType::kClientRequest:
      HandleClientRequest(message);
      return;
    case MessageType::kLookupRequest:
      HandleLookup(message);
      return;
    case MessageType::kJoinRequest:
      HandleJoinRequest(message);
      return;
    case MessageType::kGroupInfoRequest:
      HandleGroupInfoRequest(message);
      return;
    case MessageType::kMigrateRequest:
      HandleMigrateRequest(sim::As<MigrateRequestMsg>(message));
      return;
    case MessageType::kMigrateDirective:
      HandleMigrateDirective(sim::As<MigrateDirectiveMsg>(message));
      return;
    case MessageType::kLeaveRequest:
      HandleLeaveRequest(sim::As<LeaveRequestMsg>(message));
      return;
    case MessageType::kRingGossip: {
      for (const GroupInfo& info : sim::As<RingGossipMsg>(message).infos) {
        AbsorbRingInfo(info);
      }
      return;
    }
    default:
      SCATTER_WARN() << "node " << id() << " dropping unexpected message type "
                     << sim::MessageTypeName(message->type);
  }
}

// ---------------------------------------------------------------------------
// Storage path
// ---------------------------------------------------------------------------

void ScatterNode::HandleClientRequest(const MessagePtr& message) {
  const auto& req = sim::As<ClientRequestMsg>(message);
  auto p = MakePooled<PendingRequest>();
  p->request = message;
  p->reply = MakePooled<ClientReplyMsg>();
  p->reply->more_results.resize(req.more_keys.size());
  p->keys_left = req.key_count();
  for (size_t i = 0; i < req.key_count(); ++i) {
    ServeKey(p, i);
  }
}

void ScatterNode::FinishKey(const std::shared_ptr<PendingRequest>& p) {
  if (--p->keys_left > 0) {
    return;
  }
  obs::TraceRecorder* tr = simulator()->tracer();
  obs::ScopedContext reply_scope(tr,
                                 p->span.valid() ? p->span : obs::Ambient(tr));
  Reply(*p->request, std::move(p->reply));
}

void ScatterNode::ServeKey(const std::shared_ptr<PendingRequest>& p,
                           size_t i) {
  const auto& req = sim::As<ClientRequestMsg>(p->request);
  ClientReplyMsg& reply = *p->reply;
  const Key key = req.key_at(i);
  Hosted* h = FindServingGroup(key);
  if (h == nullptr) {
    SetResult(reply, i, StatusCode::kWrongGroup);
    AddRoutingHints(key, &reply.ring_updates);
    stats_.client_ops_redirected++;
    FinishKey(p);
    return;
  }
  if (i > 0 && cfg_.bug_batch_checks_first_key_only) {
    SetResult(reply, i, StatusCode::kOk, h->sm->state().data.Get(key));
    stats_.client_ops_served++;
    FinishKey(p);
    return;
  }
  if (!h->replica->is_leader()) {
    SetResult(reply, i, StatusCode::kNotLeader);
    reply.ring_updates.push_back(SelfInfo(*h));
    stats_.client_ops_redirected++;
    FinishKey(p);
    return;
  }

  const GroupId gid = h->sm->id();
  h->window_ops++;
  const TimeMicros accepted_at = now();
  ++*h->ops_accepted;
  *h->bytes_accepted += req.key_bytes(i);
  // Node-side span: child of the client op's span (restored from the
  // delivered request), parent of the paxos spans the read/write produces.
  obs::TraceRecorder* tr = simulator()->tracer();
  const obs::TraceContext node_span =
      obs::StartSpan(tr,
                     req.op == ClientOp::kGet   ? "node.get"
                     : req.op == ClientOp::kPut ? "node.put"
                                                : "node.delete",
                     id(), gid);
  if (!p->span.valid()) {
    p->span = node_span;
  }
  obs::ScopedContext trace_scope(tr, node_span);
  if (req.op == ClientOp::kGet) {
    h->replica->LinearizableRead([this, p, i, gid, node_span, accepted_at,
                                  key](Status status) {
      ClientReplyMsg& out = *p->reply;
      Hosted* cur = FindHosted(gid);
      if (cur != nullptr) {
        cur->op_latency->Record(now() - accepted_at);
      }
      if (cur == nullptr || cur->sm->IsRetired() ||
          !cur->sm->range().Contains(key)) {
        SetResult(out, i, StatusCode::kWrongGroup);
        AddRoutingHints(key, &out.ring_updates);
      } else if (!status.ok()) {
        SetResult(out, i, status.code());
        out.ring_updates.push_back(SelfInfo(*cur));
      } else {
        SetResult(out, i, StatusCode::kOk, cur->sm->state().data.Get(key));
        stats_.client_ops_served++;
      }
      FinishKey(p);
      obs::EndSpan(simulator()->tracer(), node_span);
    });
    return;
  }

  // Writes (always the request's only key). Frozen groups reject
  // immediately; the client backs off.
  if (h->sm->IsFrozen()) {
    reply.code = StatusCode::kConflict;
    reply.ring_updates.push_back(SelfInfo(*h));
    stats_.client_ops_rejected++;
    FinishKey(p);
    obs::EndSpan(tr, node_span);
    return;
  }
  std::shared_ptr<membership::GroupCommand> cmd;
  if (req.op == ClientOp::kPut) {
    cmd = MakePooled<PutCommand>(req.key, req.value);
  } else {
    cmd = MakePooled<DeleteCommand>(req.key);
  }
  cmd->client_id = req.client_id;
  cmd->client_seq = req.client_seq;
  h->replica->Propose(
      cmd, [this, p, gid, node_span, accepted_at, client = req.client_id,
            seq = req.client_seq](StatusOr<uint64_t> result) {
        ClientReplyMsg& out = *p->reply;
        Hosted* cur = FindHosted(gid);
        if (cur != nullptr) {
          cur->op_latency->Record(now() - accepted_at);
        }
        if (!result.ok()) {
          out.code = result.status().code();
        } else if (cur == nullptr) {
          out.code = StatusCode::kUnavailable;
        } else {
          out.code =
              cur->sm->ResultFor(client, seq).value_or(StatusCode::kInternal);
          stats_.client_ops_served++;
        }
        if (cur != nullptr) {
          if (cur->sm->IsRetired()) {
            for (const GroupInfo& fwd : cur->sm->state().forward) {
              out.ring_updates.push_back(fwd);
            }
          } else {
            out.ring_updates.push_back(SelfInfo(*cur));
          }
        }
        FinishKey(p);
        obs::EndSpan(simulator()->tracer(), node_span);
      });
}

// ---------------------------------------------------------------------------
// Directory / control plane
// ---------------------------------------------------------------------------

void ScatterNode::HandleLookup(const MessagePtr& message) {
  const auto& req = sim::As<LookupRequestMsg>(message);
  auto reply = MakePooled<LookupReplyMsg>();
  if (Hosted* h = FindServingGroup(req.key); h != nullptr) {
    reply->known = true;
    reply->authoritative = true;
    reply->info = SelfInfo(*h);
  } else {
    std::vector<GroupInfo> hints;
    AddRoutingHints(req.key, &hints);
    if (!hints.empty()) {
      reply->known = true;
      reply->info = hints.front();
    }
  }
  Reply(*message, std::move(reply));
}

void ScatterNode::HandleGroupInfoRequest(const MessagePtr& message) {
  const auto& req = sim::As<GroupInfoRequestMsg>(message);
  auto reply = MakePooled<GroupInfoReplyMsg>();
  if (Hosted* h = FindHosted(req.group); h != nullptr) {
    if (!h->sm->IsRetired()) {
      reply->known = true;
      reply->authoritative = true;
      reply->info = SelfInfo(*h);
    } else if (!h->sm->state().forward.empty()) {
      reply->known = true;
      reply->info = h->sm->state().forward.front();
    }
  } else if (const GroupInfo* cached = ring_.Get(req.group);
             cached != nullptr) {
    reply->known = true;
    reply->info = *cached;
  }
  Reply(*message, std::move(reply));
}

void ScatterNode::HandleJoinRequest(const MessagePtr& message) {
  const NodeId joiner = message->from;
  auto reply = MakePooled<JoinReplyMsg>();

  // Choose the group that needs members most: the smallest among what we
  // host and what we know about.
  const Hosted* best_hosted = nullptr;
  size_t best_hosted_size = SIZE_MAX;
  for (auto& [gid, h] : hosted_) {
    if (!h.replica->has_started() || h.sm->IsRetired() || h.sm->IsFrozen()) {
      continue;
    }
    const size_t n = h.replica->members().size();
    if (n < best_hosted_size) {
      best_hosted_size = n;
      best_hosted = &h;
    }
  }
  const GroupInfo* best_cached = nullptr;
  for (const GroupInfo& info : ring_.All()) {
    if (hosted_.count(info.id) > 0 || info.members.empty()) {
      continue;
    }
    if (best_cached == nullptr ||
        info.members.size() < best_cached->members.size()) {
      best_cached = ring_.Get(info.id);
    }
  }

  const auto& req = sim::As<JoinRequestMsg>(message);
  if (best_cached != nullptr && !req.no_redirect &&
      (best_hosted == nullptr ||
       best_cached->members.size() + 1 < best_hosted_size)) {
    // Redirect the joiner toward a (believed) needier group elsewhere.
    reply->code = StatusCode::kWrongGroup;
    reply->group = *best_cached;
    Reply(*message, std::move(reply));
    return;
  }
  if (best_hosted == nullptr) {
    reply->code = StatusCode::kUnavailable;
    Reply(*message, std::move(reply));
    return;
  }
  if (!best_hosted->replica->is_leader()) {
    reply->code = StatusCode::kNotLeader;
    reply->group = SelfInfo(*best_hosted);
    Reply(*message, std::move(reply));
    return;
  }
  if (std::count(best_hosted->replica->members().begin(),
                 best_hosted->replica->members().end(), joiner) > 0) {
    // Already a member (duplicate join retry).
    reply->code = StatusCode::kOk;
    reply->group = SelfInfo(*best_hosted);
    Reply(*message, std::move(reply));
    return;
  }

  const GroupId gid = best_hosted->sm->id();
  best_hosted->replica->ProposeConfigChange(
      paxos::ConfigCommand::Op::kAddMember, joiner,
      [this, message, gid](StatusOr<uint64_t> result) {
        auto join_reply = MakePooled<JoinReplyMsg>();
        Hosted* cur = FindHosted(gid);
        if (!result.ok() || cur == nullptr) {
          join_reply->code = result.ok() ? StatusCode::kUnavailable
                                         : result.status().code();
        } else {
          join_reply->code = StatusCode::kOk;
          join_reply->group = SelfInfo(*cur);
          for (const GroupInfo& info : ring_.All()) {
            if (join_reply->seed_ring.size() >= kSeedRingLimit) {
              break;
            }
            join_reply->seed_ring.push_back(info);
          }
        }
        Reply(*message, std::move(join_reply));
      });
}

// ---------------------------------------------------------------------------
// Transactions (routing + recovery answers)
// ---------------------------------------------------------------------------

void ScatterNode::HandleTxnMessage(const MessagePtr& message) {
  switch (message->type) {
    case MessageType::kTxnPrepare: {
      const auto& m = sim::As<txn::TxnPrepareMsg>(message);
      Hosted* h = FindHosted(m.txn.part_group);
      if (h == nullptr) {
        return;  // Coordinator retries against other members.
      }
      if (!h->replica->is_leader()) {
        const NodeId hint = h->replica->leader_hint();
        if (hint != kInvalidNode && hint != id() && hint != message->from) {
          Forward(hint, message);  // Toward the leader, sender preserved.
        }
        return;
      }
      h->driver->OnPrepare(m);
      return;
    }
    case MessageType::kTxnDecision: {
      const auto& m = sim::As<txn::TxnDecisionMsg>(message);
      // If any hosted group (e.g. the participant's successor) already
      // recorded the outcome, ack straight away.
      for (auto& [gid, h] : hosted_) {
        if (h.sm->OutcomeOf(m.txn_id).has_value()) {
          auto ack = MakePooled<txn::TxnDecisionAckMsg>();
          ack->txn_id = m.txn_id;
          SendOneWay(message->from, std::move(ack));
          return;
        }
      }
      Hosted* h = FindHosted(m.participant_group);
      if (h == nullptr) {
        return;
      }
      if (!h->replica->is_leader()) {
        const NodeId hint = h->replica->leader_hint();
        if (hint != kInvalidNode && hint != id() && hint != message->from) {
          Forward(hint, message);
        }
        return;
      }
      h->driver->OnDecision(m);
      return;
    }
    case MessageType::kTxnStatusQuery: {
      const auto& m = sim::As<txn::TxnStatusQueryMsg>(message);
      auto reply = MakePooled<txn::TxnStatusReplyMsg>();
      reply->txn_id = m.txn_id;
      for (auto& [gid, h] : hosted_) {
        if (auto outcome = h.sm->OutcomeOf(m.txn_id); outcome.has_value()) {
          reply->known = true;
          reply->committed = *outcome;
          break;
        }
      }
      SendOneWay(message->from, std::move(reply));
      return;
    }
    case MessageType::kTxnPrepareReply: {
      const auto& m = sim::As<txn::TxnPrepareReplyMsg>(message);
      for (auto& [gid, h] : hosted_) {
        h.driver->OnPrepareReply(m);  // Drivers guard on txn id.
      }
      return;
    }
    case MessageType::kTxnDecisionAck: {
      const auto& m = sim::As<txn::TxnDecisionAckMsg>(message);
      for (auto& [gid, h] : hosted_) {
        h.driver->OnDecisionAck(m);
      }
      return;
    }
    case MessageType::kTxnStatusReply: {
      const auto& m = sim::As<txn::TxnStatusReplyMsg>(message);
      for (auto& [gid, h] : hosted_) {
        h.driver->OnStatusReply(m);
      }
      return;
    }
    default:
      SCATTER_CHECK(false);
  }
}

// ---------------------------------------------------------------------------
// Migration
// ---------------------------------------------------------------------------

void ScatterNode::HandleMigrateRequest(const MigrateRequestMsg& m) {
  if (!m.beneficiary.valid()) {
    return;
  }
  for (auto& [gid, h] : hosted_) {
    if (gid == m.beneficiary.id || !h.replica->is_leader() ||
        h.sm->IsRetired() || h.sm->IsFrozen() || !h.replica->has_started()) {
      continue;
    }
    const auto& members = h.replica->members();
    if (members.size() <= cfg_.policy.target_group_size) {
      continue;
    }
    // Donate a random non-leader member.
    std::vector<NodeId> candidates;
    for (NodeId n : members) {
      if (n != id()) {
        candidates.push_back(n);
      }
    }
    if (candidates.empty()) {
      continue;
    }
    auto directive = MakePooled<MigrateDirectiveMsg>();
    directive->target_group = m.beneficiary;
    SendOneWay(candidates[rng().Index(candidates.size())],
               std::move(directive));
    stats_.migrations_directed++;
    return;
  }
}

void ScatterNode::HandleMigrateDirective(const MigrateDirectiveMsg& m) {
  if (migrating_ || joining_ || !m.target_group.valid() ||
      hosted_.count(m.target_group.id) > 0) {
    return;
  }
  migrating_ = true;
  JoinTarget(m.target_group, 0, /*fresh_target=*/true);
}

void ScatterNode::HandleLeaveRequest(const LeaveRequestMsg& m) {
  Hosted* h = FindHosted(m.group);
  if (h == nullptr || !h->replica->is_leader()) {
    return;
  }
  h->replica->ProposeConfigChange(paxos::ConfigCommand::Op::kRemoveMember,
                                  m.from, [](StatusOr<uint64_t>) {});
}

// ---------------------------------------------------------------------------
// Join protocol
// ---------------------------------------------------------------------------

void ScatterNode::StartJoin() {
  if (joining_) {
    return;
  }
  joining_ = true;
  stats_.joins_attempted++;
  AttemptJoin(0);
}

void ScatterNode::AttemptJoin(size_t attempt) {
  if (attempt >= 12) {
    joining_ = false;  // Give up for now; the orphan check re-triggers.
    return;
  }
  if (seeds_.empty()) {
    joining_ = false;
    return;
  }
  const NodeId contact = seeds_[rng().Index(seeds_.size())];
  auto req = MakePooled<JoinRequestMsg>();
  req->no_redirect = attempt >= 6;
  Call(contact, std::move(req), kRpcTimeout,
       [this, attempt](StatusOr<MessagePtr> result) {
         if (!result.ok()) {
           RetryJoin(attempt + 1);
           return;
         }
         HandleJoinReplyMessage(*result, attempt);
       });
}

void ScatterNode::JoinTarget(const GroupInfo& target, size_t attempt,
                             bool fresh_target) {
  if (attempt >= 12 || target.members.empty()) {
    joining_ = false;
    migrating_ = false;
    return;
  }
  // Contact the advertised leader first; fall back to random members.
  const NodeId contact =
      target.leader != kInvalidNode && fresh_target
          ? target.leader
          : target.members[rng().Index(target.members.size())];
  auto req = MakePooled<JoinRequestMsg>();
  req->no_redirect = attempt >= 6;
  Call(contact, std::move(req), kRpcTimeout,
       [this, attempt](StatusOr<MessagePtr> result) {
         if (!result.ok()) {
           RetryJoin(attempt + 1);
           return;
         }
         HandleJoinReplyMessage(*result, attempt);
       });
}

void ScatterNode::HandleJoinReplyMessage(const MessagePtr& message,
                                         size_t attempt) {
  const auto& reply = sim::As<JoinReplyMsg>(message);
  for (const GroupInfo& info : reply.seed_ring) {
    AbsorbRingInfo(info);
  }
  switch (reply.code) {
    case StatusCode::kOk: {
      // We are (or are becoming) a member; host a joiner replica that will
      // receive the state snapshot.
      const GroupId gid = reply.group.id;
      AbsorbRingInfo(reply.group);
      if (gid != kInvalidGroup && hosted_.count(gid) == 0) {
        GroupState initial;
        initial.id = gid;
        CreateHosted(gid, std::move(initial), /*founding_members=*/{});
      }
      stats_.joins_succeeded++;
      joining_ = false;
      if (migrating_) {
        migrating_ = false;
        // Leave the old group(s): every serving group other than the new
        // one.
        for (auto& [old_gid, h] : hosted_) {
          if (old_gid == gid || h.sm->IsRetired() ||
              !h.replica->has_started()) {
            continue;
          }
          auto leave = MakePooled<LeaveRequestMsg>();
          leave->group = old_gid;
          const NodeId leader = h.replica->is_leader()
                                    ? kInvalidNode
                                    : h.replica->leader_hint();
          if (leader != kInvalidNode) {
            SendOneWay(leader, std::move(leave));
          }
          // If we lead the old group ourselves the policy layer will
          // notice over-size and rebalance; leaders do not self-remove.
        }
      }
      return;
    }
    case StatusCode::kWrongGroup:
    case StatusCode::kNotLeader:
      if (reply.group.valid()) {
        // kNotLeader carries a fresh leader hint for the same group;
        // kWrongGroup points at a different group we have not tried.
        JoinTarget(reply.group, attempt + 1,
                   /*fresh_target=*/reply.code == StatusCode::kNotLeader ||
                       reply.group.leader != kInvalidNode);
      } else {
        RetryJoin(attempt + 1);
      }
      return;
    default:
      RetryJoin(attempt + 1);
  }
}

void ScatterNode::RetryJoin(size_t attempt) {
  timers().Schedule(rng().Range(kJoinRetryMin, kJoinRetryMax),
                    [this, attempt]() { AttemptJoin(attempt); });
}

// ---------------------------------------------------------------------------
// Explicit structural operations
// ---------------------------------------------------------------------------

void ScatterNode::RequestSplit(GroupId group, OpCallback done) {
  Hosted* h = FindHosted(group);
  if (h == nullptr || !h->replica->is_leader() || h->sm->IsRetired()) {
    done(NotLeaderError("not leading that group"));
    return;
  }
  std::vector<NodeId> members = h->replica->members();
  if (members.size() < 2) {
    done(InvalidArgumentError("cannot split a single-member group"));
    return;
  }
  InitiateSplit(*h, std::move(members), std::move(done));
}

void ScatterNode::RequestMerge(GroupId group, OpCallback done) {
  Hosted* h = FindHosted(group);
  if (h == nullptr || !h->replica->is_leader() || h->sm->IsRetired()) {
    done(NotLeaderError("not leading that group"));
    return;
  }
  const GroupInfo& succ = h->sm->state().succ;
  if (!succ.valid() || succ.id == group) {
    done(InvalidArgumentError("no distinct successor to merge with"));
    return;
  }
  stats_.merges_initiated++;
  h->driver->StartMerge(succ, NewUniqueId(), NewUniqueId(), std::move(done));
}

void ScatterNode::RequestRepartition(GroupId group, Key new_boundary,
                                     OpCallback done) {
  Hosted* h = FindHosted(group);
  if (h == nullptr || !h->replica->is_leader() || h->sm->IsRetired()) {
    done(NotLeaderError("not leading that group"));
    return;
  }
  const GroupInfo& succ = h->sm->state().succ;
  if (!succ.valid() || succ.id == group) {
    done(InvalidArgumentError("no distinct successor"));
    return;
  }
  stats_.repartitions_initiated++;
  h->driver->StartRepartition(succ, new_boundary, NewUniqueId(),
                              std::move(done));
}

// ---------------------------------------------------------------------------
// Policy engine
// ---------------------------------------------------------------------------

void ScatterNode::PolicyTick() {
  std::vector<GroupId> ids;
  ids.reserve(hosted_.size());
  for (auto& [gid, h] : hosted_) {
    ids.push_back(gid);
  }
  for (GroupId gid : ids) {
    if (Hosted* h = FindHosted(gid); h != nullptr) {
      RunGroupPolicy(gid, *h);
    }
  }
  MaybeRejoin();
  timers().Schedule(cfg_.policy.policy_interval + rng().Range(0, Millis(300)),
                    [this]() { PolicyTick(); });
}

void ScatterNode::GossipTick() {
  timers().Schedule(cfg_.policy.gossip_interval + rng().Range(0, Millis(500)),
                    [this]() { GossipTick(); });
  // Sample: our serving groups first (authoritative), then random cached
  // arcs up to the sample budget.
  auto gossip = MakePooled<RingGossipMsg>();
  gossip->infos = ServingInfos();
  std::vector<GroupInfo> cached = ring_.All();
  while (gossip->infos.size() < kGossipSample && !cached.empty()) {
    const size_t pick = rng().Index(cached.size());
    gossip->infos.push_back(cached[pick]);
    cached.erase(cached.begin() + static_cast<long>(pick));
  }
  if (gossip->infos.empty()) {
    return;
  }
  // Targets: random members of known groups (cache + our own groups'
  // member lists), falling back to seeds.
  std::vector<NodeId> candidates;
  for (const GroupInfo& info : gossip->infos) {
    for (NodeId member : info.members) {
      if (member != id()) {
        candidates.push_back(member);
      }
    }
  }
  if (candidates.empty()) {
    candidates = seeds_;
  }
  if (candidates.empty()) {
    return;
  }
  const NodeId target = candidates[rng().Index(candidates.size())];
  if (target != id()) {
    SendOneWay(target, std::move(gossip));
  }
}

void ScatterNode::MaybeRejoin() {
  if (HostsAnyGroup()) {
    last_hosted_at_ = now();
    return;
  }
  if (!joining_ && !seeds_.empty() &&
      now() - last_hosted_at_ > cfg_.policy.orphan_rejoin_delay) {
    StartJoin();
  }
}

void ScatterNode::RunGroupPolicy(GroupId group, Hosted& hosted) {
  // Fold the window's served ops into the smoothed rate estimate.
  const TimeMicros window_start =
      hosted.last_rate_update == 0 ? now() - cfg_.policy.policy_interval
                                   : hosted.last_rate_update;
  const double window_s =
      static_cast<double>(now() - window_start) /
      static_cast<double>(Seconds(1));
  if (window_s > 0) {
    const double instant =
        static_cast<double>(hosted.window_ops) / window_s;
    hosted.op_rate = 0.5 * hosted.op_rate + 0.5 * instant;
  }
  hosted.window_ops = 0;
  hosted.last_rate_update = now();

  if (!hosted.replica->has_started() || hosted.sm->IsRetired() ||
      !hosted.replica->is_leader()) {
    return;
  }
  RemoveSuspects(group, hosted);
  RefreshNeighbors(group, hosted);
  MaybeTransferLeadership(group, hosted);
  if (!hosted.replica->is_leader()) {
    return;  // We just handed leadership away.
  }
  if (hosted.sm->IsFrozen()) {
    return;  // Structural op in flight.
  }
  MaybeSplit(group, hosted);
  if (Hosted* h = FindHosted(group);
      h == nullptr || h->sm->IsRetired() || h->sm->IsFrozen()) {
    return;  // The split above may have fired synchronously.
  }
  MaybeMergeOrMigrate(group, hosted);
  if (Hosted* h = FindHosted(group);
      h == nullptr || h->sm->IsRetired() || h->sm->IsFrozen()) {
    return;
  }
  MaybeRepartition(group, hosted);
}

void ScatterNode::RemoveSuspects(GroupId group, Hosted& hosted) {
  for (NodeId suspect : hosted.replica->SuspectedMembers()) {
    if (suspect == id()) {
      continue;
    }
    hosted.replica->ProposeConfigChange(
        paxos::ConfigCommand::Op::kRemoveMember, suspect,
        [this](StatusOr<uint64_t> result) {
          if (result.ok()) {
            stats_.members_removed++;
          }
        });
    return;  // One change at a time.
  }
}

void ScatterNode::MaybeTransferLeadership(GroupId group, Hosted& hosted) {
  if (!cfg_.policy.latency_aware_leader) {
    return;
  }
  if (now() - hosted.leadership_since < cfg_.policy.leader_transfer_cooldown) {
    return;
  }
  // Compare self-reported centralities (mean RTT to the group, measured by
  // each member itself): a well-placed member beats a poorly-placed leader.
  const auto centralities = hosted.replica->MemberCentralities();
  TimeMicros own = 0;
  NodeId best = kInvalidNode;
  TimeMicros best_c = 0;
  for (const auto& [member, c] : centralities) {
    if (c == 0) {
      return;  // Incomplete data; decide on a later tick.
    }
    if (member == id()) {
      own = c;
    } else if (best == kInvalidNode || c < best_c) {
      best = member;
      best_c = c;
    }
  }
  if (own == 0 || best == kInvalidNode) {
    return;
  }
  if (static_cast<double>(best_c) >=
      kLeaderTransferRatio * static_cast<double>(own)) {
    return;  // No clearly better-placed member; stay (stable fixed point).
  }
  if (hosted.replica->TransferLeadership(best)) {
    hosted.leadership_since = now();  // Cooldown even if the attempt fails.
  }
}

Key ScatterNode::PickSplitKey(const Hosted& hosted) const {
  const ring::KeyRange& range = hosted.sm->range();
  if (cfg_.policy.load_aware_split) {
    // Median stored key: equalizes data, not key-space.
    const auto& data = hosted.sm->state().data;
    std::vector<Key> keys;
    keys.reserve(data.size());
    // Walk clockwise from range.begin so the median respects wraparound.
    const store::KvStore in_range = data.ExtractRange(range);
    in_range.ForEach([&keys, &range](Key k, const Value&) {
      keys.push_back(k - range.begin);  // normalize to arc offset
    });
    if (keys.size() >= 2) {
      std::sort(keys.begin(), keys.end());
      const Key offset = keys[keys.size() / 2];
      if (offset != 0) {
        return range.begin + offset;
      }
    }
  }
  return range.Midpoint();
}

void ScatterNode::MaybeSplit(GroupId group, Hosted& hosted) {
  if (!cfg_.policy.enable_split) {
    return;
  }
  std::vector<NodeId> members = hosted.replica->members();
  if (members.size() <= cfg_.policy.max_group_size) {
    return;
  }
  InitiateSplit(hosted, std::move(members), [](Status) {});
}

void ScatterNode::InitiateSplit(Hosted& hosted, std::vector<NodeId> members,
                                OpCallback done) {
  const Key split_key = PickSplitKey(hosted);
  if (split_key == hosted.sm->range().begin) {
    done(InvalidArgumentError("degenerate split point"));
    return;
  }
  std::sort(members.begin(), members.end());
  const auto mid = members.begin() + members.size() / 2;
  std::vector<NodeId> left(members.begin(), mid);
  std::vector<NodeId> right(mid, members.end());
  stats_.splits_initiated++;
  hosted.driver->StartSplit(split_key, std::move(left), std::move(right),
                            NewUniqueId(), NewUniqueId(), std::move(done));
}

void ScatterNode::MaybeMergeOrMigrate(GroupId group, Hosted& hosted) {
  const size_t n = hosted.replica->members().size();
  if (n >= cfg_.policy.min_group_size) {
    return;
  }
  const GroupInfo& succ = hosted.sm->state().succ;
  const GroupInfo& pred = hosted.sm->state().pred;

  // First choice: attract a member from a larger neighbor (cheap).
  if (cfg_.policy.enable_migration) {
    const GroupInfo* donor = nullptr;
    if (succ.valid() && succ.id != group &&
        succ.members.size() > cfg_.policy.target_group_size) {
      donor = &succ;
    } else if (pred.valid() && pred.id != group &&
               pred.members.size() > cfg_.policy.target_group_size) {
      donor = &pred;
    }
    if (donor != nullptr && !donor->members.empty()) {
      auto req = MakePooled<MigrateRequestMsg>();
      req->beneficiary = SelfInfo(hosted);
      const NodeId to = donor->leader != kInvalidNode
                            ? donor->leader
                            : donor->members[rng().Index(donor->members.size())];
      SendOneWay(to, std::move(req));
      // Fall through: if migration does not materialize, merge on a later
      // tick once the group is critically small.
      if (n + 1 >= cfg_.policy.min_group_size) {
        return;
      }
    }
  }

  // Merge with the clockwise successor (we coordinate).
  if (!cfg_.policy.enable_merge || !succ.valid() || succ.id == group) {
    return;
  }
  if (n + succ.members.size() > cfg_.policy.max_group_size + 1) {
    return;  // Would immediately re-split; prefer migration.
  }
  stats_.merges_initiated++;
  hosted.driver->StartMerge(succ, NewUniqueId(), NewUniqueId(),
                            [](Status) {});
}

void ScatterNode::MaybeRepartition(GroupId group, Hosted& hosted) {
  if (!cfg_.policy.enable_repartition) {
    return;
  }
  if (now() - hosted.last_repartition < kRepartitionCooldown) {
    return;  // Damping: let the previous move take effect first.
  }
  const auto& data = hosted.sm->state().data;
  const size_t self_keys = data.size();
  if (self_keys < cfg_.policy.repartition_min_keys) {
    return;
  }
  const GroupInfo& succ = hosted.sm->state().succ;
  if (!succ.valid() || succ.id == group || !succ.has_key_count) {
    return;  // Successor load unknown (stale link); wait for a refresh.
  }

  // Balance served-operation rate when traffic is meaningful (hot ranges);
  // otherwise balance stored keys (placement skew). Both shed a key-count
  // fraction toward the successor — under rate balancing the fraction
  // assumes heat roughly tracks keys within our arc, so hot arcs diffuse
  // over a few rounds.
  const double my_rate = hosted.op_rate;
  const bool use_rate = succ.has_op_rate &&
                        my_rate >= cfg_.policy.repartition_min_rate;
  double mine;
  double theirs;
  if (use_rate) {
    mine = my_rate;
    theirs = succ.op_rate;
  } else {
    mine = static_cast<double>(self_keys);
    theirs = static_cast<double>(succ.key_count);
  }
  if (mine < cfg_.policy.repartition_imbalance * std::max(theirs, 1.0)) {
    return;
  }
  // Keep the fraction of keys that would bring our share to the mean.
  const double keep_fraction = (mine + theirs) / (2.0 * mine);
  const uint64_t keep =
      static_cast<uint64_t>(keep_fraction * static_cast<double>(self_keys));

  const ring::KeyRange& range = hosted.sm->range();
  std::vector<Key> offsets;
  offsets.reserve(self_keys);
  const store::KvStore in_range = data.ExtractRange(range);
  in_range.ForEach([&offsets, &range](Key k, const Value&) {
    offsets.push_back(k - range.begin);
  });
  std::sort(offsets.begin(), offsets.end());
  if (keep >= offsets.size() || keep == 0) {
    return;
  }
  const Key boundary = range.begin + offsets[keep];
  if (boundary == range.begin || !range.Contains(boundary)) {
    return;
  }
  stats_.repartitions_initiated++;
  hosted.last_repartition = now();
  hosted.driver->StartRepartition(succ, boundary, NewUniqueId(),
                                  [](Status) {});
}

void ScatterNode::RefreshNeighbors(GroupId group, Hosted& hosted) {
  if (now() - hosted.last_neighbor_refresh <
      cfg_.policy.neighbor_refresh_interval) {
    return;
  }
  hosted.last_neighbor_refresh = now();
  const ring::KeyRange& range = hosted.sm->range();
  if (range.IsFull()) {
    return;  // We are our own neighbor.
  }
  struct Probe {
    Key key;
    bool is_successor;
    GroupInfo cached;
  };
  const Probe probes[] = {
      {range.end, true, hosted.sm->state().succ},
      {static_cast<Key>(range.begin - 1), false, hosted.sm->state().pred},
  };
  for (const Probe& probe : probes) {
    if (probe.cached.members.empty()) {
      continue;
    }
    const NodeId to =
        probe.cached.members[rng().Index(probe.cached.members.size())];
    auto req = MakePooled<LookupRequestMsg>();
    req->key = probe.key;
    Call(to, std::move(req), kRpcTimeout,
         [this, group, is_succ = probe.is_successor,
          cached = probe.cached](StatusOr<MessagePtr> result) {
           if (!result.ok()) {
             return;
           }
           const auto& reply = sim::As<LookupReplyMsg>(*result);
           if (!reply.known || !reply.info.valid()) {
             return;
           }
           AbsorbRingInfo(reply.info);
           Hosted* h = FindHosted(group);
           if (h == nullptr || !h->replica->is_leader() ||
               h->sm->IsRetired()) {
             return;
           }
           const GroupInfo& current =
               is_succ ? h->sm->state().succ : h->sm->state().pred;
           if (reply.info.id == current.id &&
               reply.info.epoch <= current.epoch) {
             // Structurally unchanged; still refresh if the load estimate
             // drifted (repartitioning feeds on it).
             if (current.has_key_count == reply.info.has_key_count &&
                 current.has_op_rate == reply.info.has_op_rate) {
               const uint64_t a = current.key_count;
               const uint64_t b = reply.info.key_count;
               const uint64_t kdiff = a > b ? a - b : b - a;
               const double rdiff =
                   std::abs(current.op_rate - reply.info.op_rate);
               if (kdiff * 4 <= std::max<uint64_t>(a, 1) &&
                   rdiff * 4 <= std::max(current.op_rate, 8.0)) {
                 return;  // Load within 25%; not worth a log entry.
               }
             }
           }
           auto cmd = std::make_shared<membership::UpdateNeighborCommand>();
           cmd->is_successor = is_succ;
           cmd->info = reply.info;
           h->replica->Propose(cmd, [](StatusOr<uint64_t>) {});
         });
  }
}

// ---------------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------------

std::vector<const GroupStateMachine*> ScatterNode::ServingGroups() const {
  std::vector<const GroupStateMachine*> out;
  for (const auto& [gid, h] : hosted_) {
    if (h.replica->has_started() && !h.sm->IsRetired()) {
      out.push_back(h.sm.get());
    }
  }
  return out;
}

std::vector<GroupInfo> ScatterNode::ServingInfos() const {
  std::vector<GroupInfo> out;
  for (const auto& [gid, h] : hosted_) {
    if (h.replica->has_started() && !h.sm->IsRetired()) {
      out.push_back(SelfInfo(h));
    }
  }
  return out;
}

const GroupStateMachine* ScatterNode::GroupSm(GroupId id) const {
  auto it = hosted_.find(id);
  return it == hosted_.end() ? nullptr : it->second.sm.get();
}

const paxos::Replica* ScatterNode::GroupReplica(GroupId id) const {
  auto it = hosted_.find(id);
  return it == hosted_.end() ? nullptr : it->second.replica.get();
}

const txn::GroupOpDriver* ScatterNode::GroupDriver(GroupId id) const {
  auto it = hosted_.find(id);
  return it == hosted_.end() ? nullptr : it->second.driver.get();
}

paxos::Replica* ScatterNode::MutableGroupReplicaForTest(GroupId id) {
  Hosted* hosted = FindHosted(id);
  return hosted == nullptr ? nullptr : hosted->replica.get();
}

membership::GroupStateMachine* ScatterNode::MutableGroupSmForTest(GroupId id) {
  Hosted* hosted = FindHosted(id);
  return hosted == nullptr ? nullptr : hosted->sm.get();
}

txn::GroupOpDriver* ScatterNode::MutableGroupDriverForTest(GroupId id) {
  Hosted* hosted = FindHosted(id);
  return hosted == nullptr ? nullptr : hosted->driver.get();
}

bool ScatterNode::HostsAnyGroup() const {
  for (const auto& [gid, h] : hosted_) {
    if (!h.sm->IsRetired()) {
      return true;
    }
  }
  return false;
}

}  // namespace scatter::core
