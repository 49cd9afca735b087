// Load generators for the host-cost benchmark.
//
// One driver serves all workloads: a closed loop (each client issues its
// next operation a think time after the previous one completed) or an open
// loop (Poisson arrivals at a fixed rate in simulated time, each handed to
// an idle client or queued until one is free, and timed from the moment it
// was due). Each client has at most one operation in flight: the servers'
// write dedup keeps a window of kDedupWindow sequence numbers per client,
// and a client that runs ahead of a stalled group by more than that has its
// older writes acknowledged as duplicates without being applied.
//
// Keys, op types and values come from the benchmark's own generator seeded
// with the workload seed, so the program receives only generated inputs.
// Latencies are kept as exact samples.

#ifndef PERFBENCH_DRIVERS_H_
#define PERFBENCH_DRIVERS_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/core/client.h"
#include "src/core/cluster.h"
#include "src/verify/history.h"

namespace perfbench {

using scatter::Key;
using scatter::TimeMicros;

struct LoadConfig {
  // kKv: single-key reads and writes. kChirp: ChirpChat posts (a write to
  // the poster's wall) and timeline reads (a fan-in of wall reads that
  // completes when the slowest returns).
  enum class Mix { kKv, kChirp };
  Mix mix = Mix::kKv;
  // Ops/s of the open loop; 0 selects the closed loop.
  double open_rate = 0;
  TimeMicros think = 0;  // closed loop only
  double write_fraction = 0.5;
  uint64_t keys = 1000;
  double zipf_s = 0;  // 0 = uniform
  size_t fanin = 8;   // kChirp timeline width
  bool record_history = false;
};

class LoadDriver {
 public:
  LoadDriver(scatter::core::Cluster* cluster,
             std::vector<scatter::core::Client*> clients,
             const LoadConfig& config, uint64_t seed);

  LoadDriver(const LoadDriver&) = delete;
  LoadDriver& operator=(const LoadDriver&) = delete;

  // Writes every key of the population once, running the simulator until
  // all writes are acknowledged or `budget` of simulated time passes.
  // Returns false if any preload write failed or did not finish.
  bool Preload(TimeMicros budget);

  // Starts and stops issuing operations. Operations issued while started
  // are counted as attempted; their outcome counts when they complete.
  void Start();
  void Stop();

  struct Stats {
    uint64_t attempted = 0;
    uint64_t completed = 0;  // every completion, for per-op host cost
    uint64_t reads = 0;      // successful reads (chirpchat: timelines)
    uint64_t writes = 0;     // successful writes
    std::vector<int64_t> read_us;
    std::vector<int64_t> write_us;
    size_t backlog_peak = 0;  // open loop: arrivals waiting for a client
  };
  const Stats& stats() const { return stats_; }
  scatter::verify::HistoryRecorder& history() { return history_; }

  // Called for every successful single-key operation issued after Start.
  std::function<void(Key key, TimeMicros invoked, TimeMicros completed)>
      on_success;

 private:
  Key KeyFor(uint64_t rank) const;
  void PreloadNext(size_t client);
  void IssueClosed(size_t client);
  void Arrive();
  void Dispatch();
  // Latency runs from `due`; the history records the actual invocation.
  void Issue(size_t client, TimeMicros due, std::function<void()> done);
  void IssueKv(size_t client, TimeMicros due, std::function<void()> done);
  void IssueChirp(size_t client, TimeMicros due, std::function<void()> done);
  void Finish(bool is_write, bool ok, TimeMicros due);
  uint64_t SampleRank();
  TimeMicros now() const;

  scatter::core::Cluster* cluster_;
  std::vector<scatter::core::Client*> clients_;
  LoadConfig cfg_;
  scatter::Rng rng_;
  scatter::ZipfSampler zipf_;
  std::vector<uint64_t> write_seq_;
  uint64_t preload_next_ = 0;
  uint64_t preload_acked_ = 0;
  bool preload_failed_ = false;
  std::vector<size_t> idle_;         // open loop: clients with no op
  std::deque<TimeMicros> backlog_;  // open loop: due times not yet issued
  bool running_ = false;
  Stats stats_;
  scatter::verify::HistoryRecorder history_;
};

}  // namespace perfbench

#endif  // PERFBENCH_DRIVERS_H_
