#include "src/core/client.h"

#include <algorithm>
#include <string_view>
#include <utility>

#include "src/common/logging.h"
#include "src/common/pooled.h"

namespace scatter::core {
namespace {

// Consecutive instant redirects tolerated before backing off. Bounds the
// damage when routing hints are transiently contradictory (e.g. right
// after a boundary moved but before neighbor links refreshed).
constexpr size_t kRedirectStreakLimit = 4;

}  // namespace

Client::Client(NodeId id, sim::Network* network, std::vector<NodeId> seeds,
               const ClientConfig& config)
    : RpcNode(id, network), cfg_(config), seeds_(std::move(seeds)) {}

void Client::OnRequest(const sim::MessagePtr& message) {
  // Clients never serve requests.
}

void Client::SeedRing(const std::vector<ring::GroupInfo>& infos) {
  for (const ring::GroupInfo& info : infos) {
    ring_.Upsert(info);
  }
}

void Client::Get(Key key, GetCallback callback) {
  auto op = MakePooled<Op>();
  op->op = ClientOp::kGet;
  op->key = key;
  op->get_cb = std::move(callback);
  StartOp(std::move(op));
}

void Client::Put(Key key, Value value, WriteCallback callback) {
  auto op = MakePooled<Op>();
  op->op = ClientOp::kPut;
  op->key = key;
  op->value = std::move(value);
  op->seq = ++next_seq_;
  op->write_cb = std::move(callback);
  StartOp(std::move(op));
}

void Client::Delete(Key key, WriteCallback callback) {
  auto op = MakePooled<Op>();
  op->op = ClientOp::kDelete;
  op->key = key;
  op->seq = ++next_seq_;
  op->write_cb = std::move(callback);
  StartOp(std::move(op));
}

void Client::StartOp(std::shared_ptr<Op> op) {
  op->deadline = now() + cfg_.op_deadline;
  obs::TraceRecorder* tr = simulator()->tracer();
  op->span = obs::StartSpan(tr,
                            op->op == ClientOp::kGet   ? "client.get"
                            : op->op == ClientOp::kPut ? "client.put"
                                                       : "client.delete",
                            id(), 0);
  obs::Annotate(tr, op->span, "key", op->key);
  Attempt(std::move(op));
}

NodeId Client::PickTarget(const Op& op) {
  const ring::GroupInfo* info = ring_.Lookup(op.key);
  if (info == nullptr) {
    // No covering arc cached: ring-walk via the closest preceding arc —
    // its nodes know their clockwise successor, so each hop makes strict
    // progress toward the owner even when many boundaries moved.
    info = ring_.ClosestPreceding(op.key);
  }
  if (info != nullptr && !info->members.empty()) {
    // First try the leader hint, then spread over members.
    if (info->leader != kInvalidNode && op.attempts % 3 != 2) {
      return info->leader;
    }
    return info->members[rng().Index(info->members.size())];
  }
  if (!seeds_.empty()) {
    return seeds_[rng().Index(seeds_.size())];
  }
  return kInvalidNode;
}

void Client::Attempt(std::shared_ptr<Op> op) {
  if (now() >= op->deadline || op->attempts >= cfg_.max_attempts) {
    FinishOp(op, TimeoutError("operation deadline exceeded"), nullptr);
    return;
  }
  const NodeId target = PickTarget(*op);
  if (target == kInvalidNode) {
    FinishOp(op, UnavailableError("no route to any node"), nullptr);
    return;
  }
  op->attempts++;
  stats_.attempts++;

  auto req = MakePooled<ClientRequestMsg>();
  req->op = op->op;
  req->key = op->key;
  req->value = op->value;
  if (op->op != ClientOp::kGet) {
    req->client_id = id();
    req->client_seq = op->seq;
  }
  const TimeMicros timeout =
      std::min(cfg_.rpc_timeout, std::max<TimeMicros>(op->deadline - now(), 1));
  // Retries fire from backoff timers, outside any ambient context; stamp
  // each attempt with the op's span explicitly.
  obs::ScopedContext trace_scope(simulator()->tracer(), op->span);
  Call(target, std::move(req), timeout,
       [this, op](StatusOr<sim::MessagePtr> result) mutable {
         if (!result.ok()) {
           // Timeout or explicit error envelope: rotate targets.
           AttemptLater(std::move(op));
           return;
         }
         const auto& reply = sim::As<ClientReplyMsg>(*result);
         for (const ring::GroupInfo& info : reply.ring_updates) {
           ring_.Upsert(info);
         }
         switch (reply.code) {
           case StatusCode::kOk:
             op->redirect_streak = 0;
             FinishOp(op, Status::Ok(), &reply);
             return;
           case StatusCode::kNotLeader:
           case StatusCode::kWrongGroup:
             stats_.redirects++;
             if (++op->redirect_streak > kRedirectStreakLimit) {
               // Routing information is churning (a boundary just moved);
               // back off and let the hints converge instead of burning
               // the attempt budget on a redirect loop.
               op->redirect_streak = 0;
               AttemptLater(std::move(op));
             } else {
               Attempt(std::move(op));  // Cache repaired; retry now.
             }
             return;
           default:
             op->redirect_streak = 0;
             AttemptLater(std::move(op));  // Busy/frozen/unavailable.
             return;
         }
       });
}

void Client::AttemptLater(std::shared_ptr<Op> op) {
  const TimeMicros backoff = rng().Range(kClientBackoffMin, kClientBackoffMax);
  timers().Schedule(backoff,
                    [this, op = std::move(op)]() mutable { Attempt(op); });
}

void Client::FinishOp(const std::shared_ptr<Op>& op, Status status,
                      const ClientReplyMsg* reply) {
  stats_.attempts_per_op.Record(static_cast<int64_t>(op->attempts));
  obs::TraceRecorder* tr = simulator()->tracer();
  obs::Annotate(tr, op->span, "status",
                status.ok() ? std::string_view("ok") : status.message());
  obs::Annotate(tr, op->span, "attempts", op->attempts);
  obs::EndSpan(tr, op->span);
  if (op->op == ClientOp::kGet) {
    GetCallback cb = std::move(op->get_cb);
    if (!status.ok()) {
      stats_.ops_failed++;
      cb(std::move(status));
    } else if (!reply->found) {
      stats_.ops_not_found++;
      cb(NotFoundError("no value"));
    } else {
      stats_.ops_ok++;
      cb(reply->value);
    }
    return;
  }
  WriteCallback cb = std::move(op->write_cb);
  if (status.ok()) {
    stats_.ops_ok++;
  } else {
    stats_.ops_failed++;
  }
  cb(std::move(status));
}

}  // namespace scatter::core
