#include "src/churn/churn.h"

#include <cmath>
#include <utility>

#include "src/common/logging.h"

namespace scatter::churn {
namespace {

// Delay between a departure and its replacement arriving.
constexpr TimeMicros kRespawnDelayMin = Millis(200);
constexpr TimeMicros kRespawnDelayMax = Seconds(2);
// Refresh client/joiner seed lists every so often (live nodes change).
constexpr TimeMicros kSeedRefreshInterval = Seconds(10);

}  // namespace

ChurnDriver::ChurnDriver(sim::Simulator* sim, ChurnHooks hooks,
                         const ChurnConfig& config)
    : sim_(sim),
      hooks_(std::move(hooks)),
      cfg_(config),
      rng_(sim->rng().Fork()),
      timers_(sim) {
  SCATTER_CHECK(hooks_.live_nodes != nullptr);
  SCATTER_CHECK(hooks_.crash != nullptr);
  SCATTER_CHECK(hooks_.spawn != nullptr);
}

TimeMicros ChurnDriver::SampleLifetime() {
  const double median = static_cast<double>(cfg_.median_lifetime);
  double sample = median;
  switch (cfg_.distribution) {
    case ChurnConfig::Lifetime::kExponential:
      // median = mean * ln 2.
      sample = rng_.Exponential(median / std::log(2.0));
      break;
    case ChurnConfig::Lifetime::kPareto: {
      // median = x_min * 2^(1/shape).
      const double x_min = median / std::pow(2.0, 1.0 / cfg_.shape);
      sample = rng_.Pareto(cfg_.shape, x_min);
      break;
    }
    case ChurnConfig::Lifetime::kWeibull: {
      // median = lambda * (ln 2)^(1/k).
      const double lambda =
          median / std::pow(std::log(2.0), 1.0 / cfg_.shape);
      sample = rng_.Weibull(cfg_.shape, lambda);
      break;
    }
  }
  return std::max<TimeMicros>(static_cast<TimeMicros>(sample), Millis(100));
}

void ChurnDriver::Start() {
  SCATTER_CHECK(!running_);
  running_ = true;
  generation_++;
  for (NodeId id : hooks_.live_nodes()) {
    ScheduleDeath(id);
  }
  SeedRefreshLoop();
}

void ChurnDriver::Stop() {
  running_ = false;
  generation_++;
}

void ChurnDriver::ScheduleDeath(NodeId id) {
  const TimeMicros lifetime = SampleLifetime();
  timers_.Schedule(lifetime, [this, id, gen = generation_]() {
    if (running_ && gen == generation_) {
      OnDeath(id);
    }
  });
}

void ChurnDriver::OnDeath(NodeId id) {
  hooks_.crash(id);
  stats_.deaths++;
  const TimeMicros delay = rng_.Range(kRespawnDelayMin, kRespawnDelayMax);
  timers_.Schedule(delay, [this, gen = generation_]() {
    if (!running_ || gen != generation_) {
      return;
    }
    const NodeId fresh = hooks_.spawn();
    stats_.spawns++;
    ScheduleDeath(fresh);
  });
}

void ChurnDriver::SeedRefreshLoop() {
  if (!running_ || hooks_.refresh_seeds == nullptr) {
    return;
  }
  hooks_.refresh_seeds();
  timers_.Schedule(kSeedRefreshInterval, [this, gen = generation_]() {
    if (gen == generation_) {
      SeedRefreshLoop();
    }
  });
}

}  // namespace scatter::churn
