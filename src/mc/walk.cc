#include "src/mc/walk.h"

#include <optional>

#include "src/common/hash.h"

namespace scatter::mc {

namespace {

// Relative pick weights (deliver weight applies per pending message,
// advance to the single advance_time choice).
constexpr double kDeliverWeight = 1.0;
constexpr double kAdvanceWeight = 1.5;
// Probability that a schedule uses each available fault (sampled per
// schedule; the step it fires at is uniform in the depth).
constexpr double kFaultProbability = 0.75;
// Mixed into the schedule's seed for the restart step's stream.
constexpr uint64_t kRestartStream = 0x7265737461727421;  // "restart!"

double Weight(const Choice& c) {
  switch (c.kind) {
    case ChoiceKind::kDeliver:
      return kDeliverWeight;
    case ChoiceKind::kAdvanceTime:
      return kAdvanceWeight;
    default:
      return 0;  // faults fire only through the plan
  }
}

}  // namespace

RandomWalk::RandomWalk(size_t max_depth, uint64_t walk_seed)
    : max_depth_(max_depth), walk_seed_(walk_seed), rng_(walk_seed) {}

void RandomWalk::BeginSchedule(uint64_t schedule_index) {
  rng_.Seed(MixHash(walk_seed_, schedule_index));
  plan_.clear();
  if (max_depth_ == 0) {
    return;
  }
  if (rng_.Bernoulli(kFaultProbability)) {
    const size_t at = rng_.Index(max_depth_);
    plan_.emplace(at, ChoiceKind::kPartition);
    plan_.emplace(at + 1 + rng_.Index(max_depth_), ChoiceKind::kHeal);
  }
  std::optional<size_t> crash_at;
  if (rng_.Bernoulli(kFaultProbability)) {
    crash_at = rng_.Index(max_depth_);
    plan_.emplace(*crash_at, ChoiceKind::kCrash);
  }
  if (rng_.Bernoulli(kFaultProbability)) {
    plan_.emplace(rng_.Index(max_depth_), ChoiceKind::kSpawn);
  }
  if (crash_at.has_value()) {
    // The restart of the crashed node, some step after the crash. Its own
    // stream and its place last in the plan leave every other draw and
    // planned fault as they were, so a scenario that never enables restarts
    // walks exactly the schedules it walked before restarts were planned.
    Rng restart_rng(
        MixHash(MixHash(walk_seed_, schedule_index), kRestartStream));
    plan_.emplace(*crash_at + 1 + restart_rng.Index(max_depth_),
                  ChoiceKind::kRestart);
  }
}

size_t RandomWalk::Pick(const std::vector<Choice>& enabled, size_t depth) {
  if (depth >= max_depth_) {
    return kCut;
  }
  auto planned = plan_.find(depth);
  if (planned != plan_.end()) {
    std::vector<size_t> candidates;
    for (size_t i = 0; i < enabled.size(); ++i) {
      if (enabled[i].kind == planned->second) {
        candidates.push_back(i);
      }
    }
    plan_.erase(planned);
    if (!candidates.empty()) {
      return candidates[rng_.Index(candidates.size())];
    }
    // The planned fault is not currently enabled (e.g. heal before the
    // partition step hit a depth where the schedule already cut): fall
    // through to a normal pick.
  }
  double total = 0;
  for (const Choice& c : enabled) {
    total += Weight(c);
  }
  if (total <= 0) {
    return kCut;
  }
  double r = rng_.NextDouble() * total;
  for (size_t i = 0; i < enabled.size(); ++i) {
    r -= Weight(enabled[i]);
    if (r <= 0) {
      return i;
    }
  }
  return enabled.size() - 1;
}

}  // namespace scatter::mc
