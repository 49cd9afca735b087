// The explorer's schedule generator: a guided random walk.
//
// Each schedule reseeds from MixHash(walk_seed, schedule_index), samples a
// per-schedule fault plan (which step each available fault fires at; a
// planned crash brings a planned restart some step later, which fires
// where the scenario allows restarts), and otherwise takes weighted random
// picks among deliveries and timer advancement. Faults never fire from the weighted pick — only from the
// plan — so the walk's interleaving randomness and its fault-timing
// randomness are independently seeded. The walk gives no exhaustiveness
// guarantee; the seeded-mutation hunts (tests/mc_mutation_test.cc) are the
// evidence that it reaches the orderings that matter.

#ifndef SCATTER_SRC_MC_WALK_H_
#define SCATTER_SRC_MC_WALK_H_

#include <cstdint>
#include <map>
#include <vector>

#include "src/common/random.h"
#include "src/mc/decision.h"

namespace scatter::mc {

class RandomWalk {
 public:
  // Pick() return meaning "stop extending this schedule".
  static constexpr size_t kCut = ~size_t{0};
  // Recorded as the strategy of every counterexample the walk finds.
  static constexpr const char* kName = "random_walk";

  // `max_depth`: decisions per schedule before the epilogue takes over.
  // Schedule i uses MixHash(walk_seed, i).
  RandomWalk(size_t max_depth, uint64_t walk_seed);

  // Prepares schedule number `schedule_index` (0-based, consecutive).
  void BeginSchedule(uint64_t schedule_index);

  // Chooses the index into `enabled` to execute at `depth`, or kCut.
  // Called with strictly increasing depth within one schedule; `enabled`
  // is never empty.
  size_t Pick(const std::vector<Choice>& enabled, size_t depth);

 private:
  const size_t max_depth_;
  const uint64_t walk_seed_;
  Rng rng_;
  std::multimap<size_t, ChoiceKind> plan_;
};

}  // namespace scatter::mc

#endif  // SCATTER_SRC_MC_WALK_H_
