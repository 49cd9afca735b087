// Scatter client library: routes get/put/delete operations to the owning
// group's leader, repairing its ring cache from redirects, with bounded
// retries and an overall per-operation deadline.
//
// Writes carry a (client_id, sequence) pair so server-side dedup makes
// retries exactly-once; reads are idempotent.

#ifndef SCATTER_SRC_CORE_CLIENT_H_
#define SCATTER_SRC_CORE_CLIENT_H_

#include <memory>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/inline_fn.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/obs/trace.h"
#include "src/core/messages.h"
#include "src/ring/ring_map.h"
#include "src/rpc/rpc_node.h"
#include "src/common/kv_client.h"

namespace scatter::core {

// Backoff between attempts after busy/unavailable errors.
inline constexpr TimeMicros kClientBackoffMin = Millis(20);
inline constexpr TimeMicros kClientBackoffMax = Millis(200);

struct ClientConfig {
  // Overall budget for one logical operation, across all retries. An
  // operation that cannot complete within it fails with TIMEOUT (the
  // availability metric in the churn experiments).
  TimeMicros op_deadline = Seconds(8);
  // Per-attempt RPC timeout.
  TimeMicros rpc_timeout = Millis(800);
  size_t max_attempts = 64;
};

class Client : public rpc::RpcNode, public KvClient {
 public:
  Client(NodeId id, sim::Network* network, std::vector<NodeId> seeds,
         const ClientConfig& config);

  // Get: OK + value, NOT_FOUND, or TIMEOUT/UNAVAILABLE after the deadline.
  using GetCallback = InlineFn<void(StatusOr<Value>)>;
  void Get(Key key, GetCallback callback);

  // Put/Delete: OK once the write is durably applied.
  using WriteCallback = InlineFn<void(Status)>;
  void Put(Key key, Value value, WriteCallback callback);
  void Delete(Key key, WriteCallback callback);

  // KvClient:
  void KvGet(Key key, KvClient::GetCallback callback) override {
    Get(key, std::move(callback));
  }
  void KvPut(Key key, Value value,
             KvClient::PutCallback callback) override {
    Put(key, std::move(value), std::move(callback));
  }
  void KvDelete(Key key, KvClient::PutCallback callback) override {
    Delete(key, std::move(callback));
  }
  uint64_t KvClientId() const override { return id(); }

  // Pre-populates the routing cache (bootstrap convenience; everything
  // also self-repairs through redirects).
  void SeedRing(const std::vector<ring::GroupInfo>& infos);

  // Replaces the seed node list (e.g. after churn kills the old seeds).
  void SetSeeds(std::vector<NodeId> seeds) { seeds_ = std::move(seeds); }

  struct ClientStats {
    uint64_t ops_ok = 0;
    uint64_t ops_not_found = 0;
    uint64_t ops_failed = 0;  // deadline exceeded / unroutable
    uint64_t attempts = 0;
    uint64_t redirects = 0;
    Histogram attempts_per_op;
  };
  const ClientStats& stats() const { return stats_; }
  const ring::RingMap& ring_cache() const { return ring_; }

 protected:
  void OnRequest(const sim::MessagePtr& message) override;

 private:
  struct Op {
    ClientOp op;
    Key key;
    Value value;
    uint64_t seq = 0;  // writes only
    TimeMicros deadline;
    size_t attempts = 0;
    size_t redirect_streak = 0;
    GetCallback get_cb;
    WriteCallback write_cb;
    // Span covering the whole logical operation (all attempts); every
    // request the op sends is stamped with it.
    obs::TraceContext span;
  };

  void StartOp(std::shared_ptr<Op> op);
  void Attempt(std::shared_ptr<Op> op);
  void AttemptLater(std::shared_ptr<Op> op);
  void FinishOp(const std::shared_ptr<Op>& op, Status status,
                const ClientReplyMsg* reply);
  NodeId PickTarget(const Op& op);

  ClientConfig cfg_;
  std::vector<NodeId> seeds_;
  ring::RingMap ring_;
  uint64_t next_seq_ = 0;
  ClientStats stats_;
};

}  // namespace scatter::core

#endif  // SCATTER_SRC_CORE_CLIENT_H_
