// Churn driver: gives every node a finite session lifetime drawn from a
// configurable distribution and spawns a replacement for every departure,
// holding the population stationary — the regime the paper's churn
// experiments sweep by median session lifetime.

#ifndef SCATTER_SRC_CHURN_CHURN_H_
#define SCATTER_SRC_CHURN_CHURN_H_

#include <cstdint>

#include <functional>
#include <vector>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/sim/simulator.h"

namespace scatter::churn {

struct ChurnConfig {
  enum class Lifetime { kExponential, kPareto, kWeibull };

  Lifetime distribution = Lifetime::kExponential;
  // Median session length; the sweep parameter of the churn experiments.
  TimeMicros median_lifetime = Seconds(300);
  // Pareto shape (heavier tail as it approaches 1) / Weibull shape.
  double shape = 1.5;
};

// How the driver manipulates the system under test. Both the Scatter
// cluster and the baseline DHT cluster provide these.
struct ChurnHooks {
  std::function<std::vector<NodeId>()> live_nodes;
  std::function<void(NodeId)> crash;
  std::function<NodeId()> spawn;          // returns the new node's id
  std::function<void()> refresh_seeds;    // optional (may be null)
};

class ChurnDriver {
 public:
  ChurnDriver(sim::Simulator* sim, ChurnHooks hooks,
              const ChurnConfig& config);

  // Assigns lifetimes to all currently-live nodes and begins the cycle.
  void Start();
  // Stops future deaths and spawns (already-scheduled deaths are revoked).
  void Stop();

  struct ChurnStats {
    uint64_t deaths = 0;
    uint64_t spawns = 0;
  };
  const ChurnStats& stats() const { return stats_; }

  TimeMicros SampleLifetime();

 private:
  void ScheduleDeath(NodeId id);
  void OnDeath(NodeId id);
  void SeedRefreshLoop();

  sim::Simulator* sim_;
  ChurnHooks hooks_;
  ChurnConfig cfg_;
  Rng rng_;
  // All scheduling goes through the owner so driver destruction cancels
  // every pending churn event.
  sim::TimerOwner timers_;
  bool running_ = false;
  uint64_t generation_ = 0;  // invalidates scheduled events after Stop()
  ChurnStats stats_;
};

}  // namespace scatter::churn

#endif  // SCATTER_SRC_CHURN_CHURN_H_
