// Exploration strategies: how the explorer chooses, at each decision
// point, which enabled choice to execute, and how it enumerates schedules.
//
// All strategies are replay-based: each schedule is a fresh deterministic
// run, and the systematic strategies (DFS) steer the prefix back along the
// previous path before deviating at the deepest unexplored sibling. Three
// strategies:
//
//   kExhaustive   — bounded-depth DFS over the full decision tree, pruned
//                   by sleep sets (deliveries to different nodes commute,
//                   so only one interleaving per commuting pair is kept).
//   kDelayBounded — DFS over schedules whose total "delay" (sum of picked
//                   indices; index 0 — the oldest enabled action — is
//                   free) stays within a budget. Most protocol bugs need
//                   only a few deviations from the natural order, so small
//                   budgets reach deep bugs at a fraction of the cost
//                   (Emmi et al., delay-bounded scheduling).
//   kRandomWalk   — guided random schedules: per-schedule seeded fault
//                   points plus weighted random picks. No systematic
//                   guarantee, but explores far from the DFS frontier.

#ifndef SCATTER_SRC_MC_STRATEGY_H_
#define SCATTER_SRC_MC_STRATEGY_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/common/random.h"
#include "src/mc/decision.h"

namespace scatter::mc {

enum class StrategyKind : uint8_t { kExhaustive, kDelayBounded, kRandomWalk };

struct StrategyOptions {
  // Decisions per schedule before the epilogue takes over.
  size_t max_depth = 40;
  // kDelayBounded: total deviation budget per schedule.
  size_t delay_budget = 6;
  // kRandomWalk: base seed; schedule i uses MixHash(walk_seed, i).
  uint64_t walk_seed = 1;
};

class Strategy {
 public:
  // Pick() return meaning "stop extending this schedule".
  static constexpr size_t kCut = ~size_t{0};

  virtual ~Strategy() = default;
  virtual const char* name() const = 0;

  // Prepares schedule number `schedule_index` (0-based, consecutive).
  // Returns false when the search space is exhausted.
  virtual bool BeginSchedule(uint64_t schedule_index) = 0;

  // Chooses the index into `enabled` to execute at `depth`, or kCut.
  // Called with strictly increasing depth within one schedule; `enabled`
  // is never empty.
  virtual size_t Pick(const std::vector<Choice>& enabled, size_t depth) = 0;

  // Strategy-specific reduction statistics (sleep-set cuts, replays).
  virtual uint64_t reduction_cuts() const { return 0; }

  // Depth up to which the schedule just begun replays the previous one
  // verbatim (the explorer skips state-dedup inside the replayed prefix —
  // those states were inserted by the schedule that first took the path).
  virtual size_t replay_depth() const { return 0; }
};

std::unique_ptr<Strategy> MakeStrategy(StrategyKind kind,
                                       const StrategyOptions& options);

}  // namespace scatter::mc

#endif  // SCATTER_SRC_MC_STRATEGY_H_
