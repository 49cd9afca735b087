// System-agnostic key-value client interface. Both the Scatter client and
// the baseline DHT client implement it, so one workload driver (and one
// history recorder / checker pipeline) measures both systems identically —
// the methodological core of the churn comparison experiments.
//
// Lives in common/ (not workload/) because it is shared vocabulary: the
// client implementations in core/ and baseline/ sit *below* the workload
// driver in the layer DAG (scripts/layers.json), so the interface they
// implement must live below both.

#ifndef SCATTER_SRC_COMMON_KV_CLIENT_H_
#define SCATTER_SRC_COMMON_KV_CLIENT_H_

#include <functional>

#include "src/common/status.h"
#include "src/common/types.h"

namespace scatter {

class KvClient {
 public:
  virtual ~KvClient() = default;

  using GetCallback = std::function<void(StatusOr<Value>)>;
  using PutCallback = std::function<void(Status)>;

  virtual void KvGet(Key key, GetCallback callback) = 0;
  virtual void KvPut(Key key, Value value, PutCallback callback) = 0;
  // Default: emulate delete as an unsupported no-op failure; stores with a
  // real delete path override.
  virtual void KvDelete(Key key, PutCallback callback) {
    callback(InvalidArgumentError("delete not supported"));
  }

  // Stable identity used to build globally-unique written values.
  virtual uint64_t KvClientId() const = 0;
};

}  // namespace scatter

#endif  // SCATTER_SRC_COMMON_KV_CLIENT_H_
