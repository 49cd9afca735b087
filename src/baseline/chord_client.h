// Client for the Chord baseline: overlay lookup to find the owner, then a
// direct store/fetch. No quorums, no leases — an acknowledged write means
// "one node stored it", which is the consistency gap the experiments
// measure.

#ifndef SCATTER_SRC_BASELINE_CHORD_CLIENT_H_
#define SCATTER_SRC_BASELINE_CHORD_CLIENT_H_

#include <functional>
#include <vector>

#include "src/baseline/chord_messages.h"
#include "src/common/histogram.h"
#include "src/common/status.h"
#include "src/common/types.h"
#include "src/obs/metrics.h"
#include "src/rpc/rpc_node.h"
#include "src/common/kv_client.h"

namespace scatter::baseline {

class ChordClient : public rpc::RpcNode, public KvClient {
 public:
  ChordClient(NodeId id, sim::Network* network, std::vector<NodeId> seeds);

  using GetCallback = std::function<void(StatusOr<Value>)>;
  using PutCallback = std::function<void(Status)>;
  void Get(Key key, GetCallback callback);
  void Put(Key key, Value value, PutCallback callback);

  // KvClient:
  void KvGet(Key key, KvClient::GetCallback callback) override {
    Get(key, std::move(callback));
  }
  void KvPut(Key key, Value value,
             KvClient::PutCallback callback) override {
    Put(key, std::move(value), std::move(callback));
  }
  uint64_t KvClientId() const override { return id(); }

  void SetSeeds(std::vector<NodeId> seeds) { seeds_ = std::move(seeds); }

  // Thin view over registry-backed cells ("chord.*", keyed by client id).
  struct Stats {
    Stats(obs::MetricsRegistry& registry, NodeId node);
    Stats(const Stats&) = delete;  // a copy would alias the live cells
    Stats& operator=(const Stats&) = delete;
    Counter& ops_ok;
    Counter& ops_failed;
    Counter& lookups;
    Counter& lookup_failures;
    // Overlay hops per successful lookup (gateway query counts as hop 1).
    Histogram& lookup_hops;
  };
  const Stats& stats() const { return stats_; }

 protected:
  void OnRequest(const sim::MessagePtr& message) override;

 private:
  struct Op {
    bool is_write;
    Key key;
    Value value;
    TimeMicros deadline;
    size_t attempts = 0;
    GetCallback get_cb;
    PutCallback put_cb;
  };

  void Attempt(std::shared_ptr<Op> op);
  void AttemptLater(std::shared_ptr<Op> op);
  void LookupOwner(Key key, size_t hops, NodeRef at,
                   std::function<void(StatusOr<NodeRef>)> callback);
  void FinishGet(const std::shared_ptr<Op>& op, StatusOr<Value> result);
  void FinishPut(const std::shared_ptr<Op>& op, Status status);

  std::vector<NodeId> seeds_;
  Stats stats_;
};

}  // namespace scatter::baseline

#endif  // SCATTER_SRC_BASELINE_CHORD_CLIENT_H_
