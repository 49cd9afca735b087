#include "src/baseline/chord_client.h"

#include <memory>
#include <utility>

#include "src/baseline/chord_node.h"
#include "src/common/logging.h"
#include "src/common/pooled.h"
#include "src/sim/simulator.h"

namespace scatter::baseline {
namespace {

constexpr TimeMicros kOpDeadline = Seconds(8);
constexpr TimeMicros kRpcTimeout = Millis(500);
constexpr TimeMicros kBackoffMin = Millis(20);
constexpr TimeMicros kBackoffMax = Millis(200);
constexpr size_t kMaxAttempts = 16;

}  // namespace

ChordClient::Stats::Stats(obs::MetricsRegistry& registry, NodeId node)
    : ops_ok(registry.GetCounter("chord.ops_ok", node)),
      ops_failed(registry.GetCounter("chord.ops_failed", node)),
      lookups(registry.GetCounter("chord.lookups", node)),
      lookup_failures(registry.GetCounter("chord.lookup_failures", node)),
      lookup_hops(registry.GetHistogram("chord.lookup_hops", node)) {}

ChordClient::ChordClient(NodeId id, sim::Network* network,
                         std::vector<NodeId> seeds)
    : RpcNode(id, network),
      seeds_(std::move(seeds)),
      stats_(network->simulator()->metrics(), id) {}

void ChordClient::OnRequest(const sim::MessagePtr& message) {}

void ChordClient::Get(Key key, GetCallback callback) {
  auto op = std::make_shared<Op>();
  op->is_write = false;
  op->key = key;
  op->deadline = now() + kOpDeadline;
  op->get_cb = std::move(callback);
  Attempt(std::move(op));
}

void ChordClient::Put(Key key, Value value, PutCallback callback) {
  auto op = std::make_shared<Op>();
  op->is_write = true;
  op->key = key;
  op->value = std::move(value);
  op->deadline = now() + kOpDeadline;
  op->put_cb = std::move(callback);
  Attempt(std::move(op));
}

void ChordClient::Attempt(std::shared_ptr<Op> op) {
  if (now() >= op->deadline || op->attempts >= kMaxAttempts) {
    if (op->is_write) {
      FinishPut(op, TimeoutError("deadline exceeded"));
    } else {
      FinishGet(op, TimeoutError("deadline exceeded"));
    }
    return;
  }
  if (seeds_.empty()) {
    if (op->is_write) {
      FinishPut(op, UnavailableError("no gateway"));
    } else {
      FinishGet(op, UnavailableError("no gateway"));
    }
    return;
  }
  op->attempts++;
  stats_.lookups++;
  const NodeId gateway = seeds_[rng().Index(seeds_.size())];
  LookupOwner(op->key, 0, NodeRef{gateway, 0},
              [this, op](StatusOr<NodeRef> owner) mutable {
                if (!owner.ok()) {
                  stats_.lookup_failures++;
                  AttemptLater(std::move(op));
                  return;
                }
                if (op->is_write) {
                  auto store = MakePooled<ChordStoreMsg>();
                  store->key = op->key;
                  store->value = op->value;
                  store->replicate = 3;
                  Call(owner->id, std::move(store), kRpcTimeout,
                       [this, op](StatusOr<sim::MessagePtr> result) mutable {
                         if (!result.ok()) {
                           AttemptLater(std::move(op));
                           return;
                         }
                         FinishPut(op, Status::Ok());
                       });
                  return;
                }
                auto fetch = MakePooled<ChordFetchMsg>();
                fetch->key = op->key;
                Call(owner->id, std::move(fetch), kRpcTimeout,
                     [this, op](StatusOr<sim::MessagePtr> result) mutable {
                       if (!result.ok()) {
                         AttemptLater(std::move(op));
                         return;
                       }
                       const auto& reply =
                           sim::As<ChordFetchReplyMsg>(*result);
                       if (reply.found) {
                         FinishGet(op, reply.value);
                       } else {
                         FinishGet(op, NotFoundError("no value"));
                       }
                     });
              });
}

void ChordClient::AttemptLater(std::shared_ptr<Op> op) {
  timers().Schedule(rng().Range(kBackoffMin, kBackoffMax),
                    [this, op = std::move(op)]() mutable { Attempt(op); });
}

void ChordClient::LookupOwner(
    Key key, size_t hops, NodeRef at,
    std::function<void(StatusOr<NodeRef>)> callback) {
  if (hops >= kMaxLookupHops) {
    callback(UnavailableError("hop limit"));
    return;
  }
  auto req = MakePooled<ChordFindSuccessorMsg>();
  req->target = key;
  Call(at.id, std::move(req), kRpcTimeout,
       [this, key, hops, callback = std::move(callback)](
           StatusOr<sim::MessagePtr> result) mutable {
         if (!result.ok()) {
           callback(result.status());
           return;
         }
         const auto& reply = sim::As<ChordFindSuccessorReplyMsg>(*result);
         if (reply.done) {
           stats_.lookup_hops.Record(static_cast<int64_t>(hops) + 1);
           callback(reply.result);
           return;
         }
         if (!reply.next_hop.valid()) {
           callback(UnavailableError("dead-end route"));
           return;
         }
         LookupOwner(key, hops + 1, reply.next_hop, std::move(callback));
       });
}

void ChordClient::FinishGet(const std::shared_ptr<Op>& op,
                            StatusOr<Value> result) {
  if (result.ok() || result.status().code() == StatusCode::kNotFound) {
    stats_.ops_ok++;
  } else {
    stats_.ops_failed++;
  }
  GetCallback cb = std::move(op->get_cb);
  cb(std::move(result));
}

void ChordClient::FinishPut(const std::shared_ptr<Op>& op, Status status) {
  if (status.ok()) {
    stats_.ops_ok++;
  } else {
    stats_.ops_failed++;
  }
  PutCallback cb = std::move(op->put_cb);
  cb(std::move(status));
}

}  // namespace scatter::baseline
