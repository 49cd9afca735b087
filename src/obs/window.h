// Windowed load accounting over the simulated clock.
//
// A SlidingWindow is a ring of fixed-width time buckets plus an EWMA of the
// per-bucket totals. Bucket boundaries are multiples of bucket_width_us in
// ABSOLUTE simulated time (epoch k covers [k*width, (k+1)*width)), so two
// windows fed on different nodes of the same simulation bucket identical
// samples identically — which is what makes MetricsRegistry::Merge sum
// per-node windows into a correct cluster-wide window instead of smearing
// misaligned buckets together.
//
// Recording is O(1) and allocation-free (epoch index math plus one add);
// queries walk the fixed-size ring. No wall clock anywhere: callers pass
// simulated time explicitly, so windows are exactly as deterministic as the
// event schedule that feeds them (scatter-lint's determinism-ambient rule
// keeps it that way).

#ifndef SCATTER_SRC_OBS_WINDOW_H_
#define SCATTER_SRC_OBS_WINDOW_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace scatter::obs {

class SlidingWindow {
 public:
  struct Params {
    // Width of one bucket in simulated microseconds.
    int64_t bucket_width_us = 100'000;
    // Buckets retained; the window spans bucket_width_us * num_buckets.
    size_t num_buckets = 10;
    // Smoothing for the per-bucket EWMA (weight of the newest closed
    // bucket).
    double ewma_alpha = 0.3;

    friend bool operator==(const Params& a, const Params& b) = default;
  };

  SlidingWindow() : SlidingWindow(Params{}) {}
  explicit SlidingWindow(const Params& params);

  // Adds `weight` events at simulated time `now_us` (monotone per cell; a
  // stale timestamp lands in the newest bucket rather than rewriting
  // history).
  void Record(int64_t now_us, uint64_t weight = 1);

  // Sum of the buckets still inside the window at `now_us` (including the
  // current partial bucket).
  uint64_t TotalInWindow(int64_t now_us) const;

  // TotalInWindow scaled to events per second over the full window span.
  double RatePerSec(int64_t now_us) const;

  // Cumulative total since construction (never windowed out).
  uint64_t total() const { return total_; }

  const Params& params() const { return params_; }

  // Epoch-aligned merge: buckets with equal epochs sum; a newer bucket from
  // `other` replaces an older one in the same ring slot. Both windows must
  // share identical Params. EWMAs add (the merged window represents the
  // combined stream's rate).
  void Merge(const SlidingWindow& other);

  // Stable-schema JSON:
  //   {"bucket_width_us":W,"num_buckets":N,"total":T,"ewma":E,
  //    "buckets":[{"epoch":K,"sum":S},...]}
  // Buckets are emitted in ascending epoch order (empty ring => []), so
  // equal windows serialize byte-identically.
  std::string ToJson() const;

 private:
  struct Bucket {
    int64_t epoch = -1;  // -1 = never used
    uint64_t sum = 0;
  };

  int64_t EpochFor(int64_t now_us) const { return now_us / params_.bucket_width_us; }
  // Folds every closed bucket up to (excluding) `epoch` into the EWMA.
  void RollTo(int64_t epoch);

  Params params_;
  std::vector<Bucket> ring_;
  int64_t last_epoch_ = -1;  // newest epoch that received a sample
  double ewma_ = 0.0;        // smoothed events per closed bucket
  uint64_t total_ = 0;
};

}  // namespace scatter::obs

#endif  // SCATTER_SRC_OBS_WINDOW_H_
