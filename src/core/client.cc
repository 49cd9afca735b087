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
  const TimeMicros timeout =
      std::min(cfg_.rpc_timeout, std::max<TimeMicros>(op->deadline - now(), 1));
  if (op->op != ClientOp::kGet) {
    SendRequest(target, std::move(op), 1, timeout);
    return;
  }
  auto box = std::find_if(outboxes_.begin(), outboxes_.end(),
                          [target](const Outbox& b) {
                            return b.target == target;
                          });
  if (box == outboxes_.end()) {
    if (outboxes_.empty()) {
      timers().Defer([this] { FlushOutboxes(); });
    }
    box = outboxes_.insert(outboxes_.end(), Outbox());
    box->target = target;
    box->timeout = timeout;
  }
  Op* const tail = op.get();
  if (box->tail == nullptr) {
    box->head = std::move(op);
  } else {
    box->tail->batch_next = std::move(op);
  }
  box->tail = tail;
  box->count++;
  box->timeout = std::min(box->timeout, timeout);
}

void Client::FlushOutboxes() {
  for (Outbox& box : outboxes_) {
    SendRequest(box.target, std::move(box.head), box.count, box.timeout);
  }
  outboxes_.clear();
}

void Client::SendRequest(NodeId target, std::shared_ptr<Op> head,
                         size_t count, TimeMicros timeout) {
  auto req = MakePooled<ClientRequestMsg>();
  req->op = head->op;
  req->key = head->key;
  req->value = head->value;
  if (head->op != ClientOp::kGet) {
    req->client_id = id();
    req->client_seq = head->seq;
  }
  req->more_keys.reserve(count - 1);
  for (const Op* op = head->batch_next.get(); op != nullptr;
       op = op->batch_next.get()) {
    req->more_keys.push_back(op->key);
  }
  // Retries fire from backoff timers and flushes after the event, outside
  // any ambient context; stamp the request with its first op's span.
  obs::ScopedContext trace_scope(simulator()->tracer(), head->span);
  Call(target, std::move(req), timeout,
       [this, head = std::move(head)](
           StatusOr<sim::MessagePtr> result) mutable {
         OnReply(std::move(head), std::move(result));
       });
}

void Client::OnReply(std::shared_ptr<Op> head,
                     StatusOr<sim::MessagePtr> result) {
  if (!result.ok()) {
    // Timeout or explicit error envelope: every op rotates targets.
    while (head != nullptr) {
      std::shared_ptr<Op> next = std::move(head->batch_next);
      AttemptLater(std::move(head));
      head = std::move(next);
    }
    return;
  }
  const auto& reply = sim::As<ClientReplyMsg>(*result);
  for (const ring::GroupInfo& info : reply.ring_updates) {
    ring_.Upsert(info);
  }
  for (size_t i = 0; head != nullptr; ++i) {
    std::shared_ptr<Op> op = std::move(head);
    head = std::move(op->batch_next);
    // Result i; a reply short of results leaves the rest to back off.
    const KeyResult* r =
        i > 0 && i <= reply.more_results.size() ? &reply.more_results[i - 1]
                                                : nullptr;
    const StatusCode code =
        i == 0 ? reply.code : r != nullptr ? r->code : StatusCode::kInternal;
    switch (code) {
      case StatusCode::kOk: {
        op->redirect_streak = 0;
        const bool found = i == 0 ? reply.found : r->found;
        const Value* value = i == 0 ? &reply.value : &r->value;
        FinishOp(op, Status::Ok(), found ? value : nullptr);
        break;
      }
      case StatusCode::kNotLeader:
      case StatusCode::kWrongGroup:
        stats_.redirects++;
        if (++op->redirect_streak > kRedirectStreakLimit) {
          // Routing information is churning (a boundary just moved); back
          // off and let the hints converge instead of burning the attempt
          // budget on a redirect loop.
          op->redirect_streak = 0;
          AttemptLater(std::move(op));
        } else {
          Attempt(std::move(op));  // Cache repaired; retry now.
        }
        break;
      default:
        op->redirect_streak = 0;
        AttemptLater(std::move(op));  // Busy/frozen/unavailable.
        break;
    }
  }
}

void Client::AttemptLater(std::shared_ptr<Op> op) {
  const TimeMicros backoff = rng().Range(kClientBackoffMin, kClientBackoffMax);
  timers().Schedule(backoff,
                    [this, op = std::move(op)]() mutable { Attempt(op); });
}

void Client::FinishOp(const std::shared_ptr<Op>& op, Status status,
                      const Value* value) {
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
    } else if (value == nullptr) {
      stats_.ops_not_found++;
      cb(NotFoundError("no value"));
    } else {
      stats_.ops_ok++;
      cb(*value);
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
