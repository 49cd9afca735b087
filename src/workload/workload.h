// Closed-loop workload driver over the Scatter client library.
//
// Each simulated client issues one operation at a time (optionally with
// think time), drawing keys from a uniform or Zipf distribution over a
// fixed string-key population, and records every operation in a
// HistoryRecorder with the unique-value encoding the linearizability
// checker relies on.

#ifndef SCATTER_SRC_WORKLOAD_WORKLOAD_H_
#define SCATTER_SRC_WORKLOAD_WORKLOAD_H_

#include <memory>
#include <string>
#include <vector>

#include "src/common/histogram.h"
#include "src/common/random.h"
#include "src/common/types.h"
#include "src/sim/simulator.h"
#include "src/verify/history.h"
#include "src/common/kv_client.h"

namespace scatter::workload {

struct WorkloadConfig {
  size_t num_clients = 8;
  double write_fraction = 0.5;
  // Fraction of WRITE operations that are deletes (tombstones). Deletes are
  // verified like writes of "no value".
  double delete_fraction = 0.0;
  // Distinct keys; key i is the string "key<i>" hashed onto the ring.
  uint64_t key_space = 2000;
  // Zipf skew over key ranks; 0 = uniform.
  double zipf_s = 0.0;
  // When true, keys occupy consecutive ring positions inside one narrow arc
  // instead of hashing uniformly — the range-clustered insert pattern
  // (sequential ids, time-ordered keys) that storage-balance policies must
  // handle. When false (default), keys are hashed strings.
  bool clustered_keys = false;
  // Idle time between an operation completing and the next being issued.
  TimeMicros think_time = 0;
  // Record invocations/completions for the linearizability checker. Turn
  // off for long throughput runs to save memory.
  bool record_history = true;
};

struct WorkloadStats {
  uint64_t reads_ok = 0;
  uint64_t writes_ok = 0;
  uint64_t reads_failed = 0;   // deadline exceeded => "unavailable"
  uint64_t writes_failed = 0;
  Histogram read_latency;   // microseconds
  Histogram write_latency;

  uint64_t ops_ok() const { return reads_ok + writes_ok; }
  uint64_t ops_failed() const { return reads_failed + writes_failed; }
  double availability() const {
    const uint64_t total = ops_ok() + ops_failed();
    return total == 0 ? 1.0
                      : static_cast<double>(ops_ok()) /
                            static_cast<double>(total);
  }
};

class WorkloadDriver {
 public:
  // `clients` must outlive the driver; one closed loop runs per client.
  // (num_clients in the config is ignored in this form — the client list
  // determines the parallelism.)
  WorkloadDriver(sim::Simulator* sim, std::vector<KvClient*> clients,
                 const WorkloadConfig& config);

  // Starts the per-client loops.
  void Start();
  // Stops issuing new operations (in-flight ones drain on their own).
  void Stop();

  const WorkloadStats& stats() const { return stats_; }
  verify::HistoryRecorder& history() { return history_; }

  // The ring key for rank `i` of the workload's key population.
  Key KeyForRank(uint64_t rank) const;

 private:
  void IssueOne(size_t client_index);

  sim::Simulator* sim_;
  WorkloadConfig cfg_;
  std::vector<KvClient*> clients_;
  std::vector<uint64_t> client_op_counter_;
  Rng rng_;
  ZipfSampler zipf_;
  bool running_ = false;
  WorkloadStats stats_;
  verify::HistoryRecorder history_;
};

}  // namespace scatter::workload

#endif  // SCATTER_SRC_WORKLOAD_WORKLOAD_H_
