#include "src/mc/strategy.h"

#include <map>

#include "src/common/hash.h"
#include "src/common/logging.h"

namespace scatter::mc {

namespace {

// kRandomWalk: relative pick weights (deliver weight applies per pending
// message, advance to the single advance_time choice).
constexpr double kDeliverWeight = 1.0;
constexpr double kAdvanceWeight = 1.5;
// kRandomWalk: probability that a schedule uses each available fault
// (sampled per schedule; the step it fires at is uniform in the depth).
constexpr double kFaultProbability = 0.75;

// Replay-based DFS over the decision tree. The path holds one node per
// depth of the current schedule; BeginSchedule backtracks to the deepest
// node with an unexplored sibling, and Pick replays stored picks up to
// that node before deviating. With `use_sleep_sets` (exhaustive mode),
// Godefroid-style sleep sets prune commuting interleavings: after a
// choice's subtree is explored the choice goes to sleep for its siblings,
// and a child inherits the sleeping choices that commute with the one just
// taken. With `bound_delay` (delay-bounded mode), a schedule's total
// deviation from the natural order — the sum of picked indices, index 0
// free — must stay within the budget.
class DfsStrategy : public Strategy {
 public:
  DfsStrategy(const StrategyOptions& opts, bool use_sleep_sets,
              bool bound_delay)
      : opts_(opts),
        use_sleep_sets_(use_sleep_sets),
        bound_delay_(bound_delay) {}

  const char* name() const override {
    return bound_delay_ ? "delay_bounded" : "exhaustive";
  }

  bool BeginSchedule(uint64_t) override {
    if (exhausted_) {
      return false;
    }
    if (first_) {
      first_ = false;
      return true;
    }
    while (!path_.empty()) {
      Node& n = path_.back();
      n.explored.push_back(n.enabled[n.picked]);
      const size_t next =
          NextSibling(n, n.picked + 1, PrefixCost(path_.size() - 1));
      if (next != kCut) {
        n.picked = next;
        return true;
      }
      path_.pop_back();
    }
    exhausted_ = true;
    return false;
  }

  size_t Pick(const std::vector<Choice>& enabled, size_t depth) override {
    if (depth < path_.size()) {
      // Replaying the prefix of the previous schedule. Determinism makes
      // the recomputed enabled set identical to the recorded one.
      Node& n = path_[depth];
      SCATTER_CHECK(n.picked < enabled.size());
      SCATTER_CHECK(SameChoice(enabled[n.picked], n.enabled[n.picked]));
      return n.picked;
    }
    if (depth >= opts_.max_depth) {
      return kCut;
    }
    Node n;
    n.enabled = enabled;
    if (use_sleep_sets_ && !path_.empty()) {
      const Node& parent = path_.back();
      const Choice& taken = parent.enabled[parent.picked];
      for (const Choice& s : parent.sleep_entry) {
        if (Commutes(s, taken)) {
          n.sleep_entry.push_back(s);
        }
      }
      for (const Choice& s : parent.explored) {
        if (Commutes(s, taken)) {
          n.sleep_entry.push_back(s);
        }
      }
    }
    const size_t pick = NextSibling(n, 0, PrefixCost(depth));
    if (pick == kCut) {
      return kCut;
    }
    n.picked = pick;
    path_.push_back(std::move(n));
    return pick;
  }

  uint64_t reduction_cuts() const override { return sleep_cuts_; }

  size_t replay_depth() const override {
    return path_.empty() ? 0 : path_.size() - 1;
  }

 private:
  struct Node {
    std::vector<Choice> enabled;
    std::vector<Choice> sleep_entry;  // asleep when the node was entered
    std::vector<Choice> explored;     // siblings already fully explored
    size_t picked = 0;
  };

  size_t PrefixCost(size_t depth) const {
    size_t cost = 0;
    for (size_t i = 0; i < depth && i < path_.size(); ++i) {
      cost += path_[i].picked;
    }
    return cost;
  }

  bool Sleeping(const Node& n, const Choice& c) const {
    for (const Choice& s : n.sleep_entry) {
      if (SameChoice(s, c)) {
        return true;
      }
    }
    return false;
  }

  size_t NextSibling(const Node& n, size_t from, size_t prefix_cost) {
    for (size_t idx = from; idx < n.enabled.size(); ++idx) {
      if (bound_delay_ && prefix_cost + idx > opts_.delay_budget) {
        break;  // indices only grow; nothing further is affordable
      }
      if (use_sleep_sets_ && Sleeping(n, n.enabled[idx])) {
        sleep_cuts_++;
        continue;
      }
      return idx;
    }
    return kCut;
  }

  const StrategyOptions opts_;
  const bool use_sleep_sets_;
  const bool bound_delay_;
  std::vector<Node> path_;
  bool first_ = true;
  bool exhausted_ = false;
  uint64_t sleep_cuts_ = 0;
};

// Guided random walk. Each schedule reseeds from MixHash(walk_seed,
// schedule_index), samples a per-schedule fault plan (which step each
// available fault fires at), and otherwise takes weighted random picks
// among deliveries and timer advancement. Faults never fire from the
// weighted pick — only from the plan — so the walk's interleaving
// randomness and its fault-timing randomness are independently seeded.
class RandomWalkStrategy : public Strategy {
 public:
  explicit RandomWalkStrategy(const StrategyOptions& opts)
      : opts_(opts), rng_(opts.walk_seed) {}

  const char* name() const override { return "random_walk"; }

  bool BeginSchedule(uint64_t schedule_index) override {
    rng_.Seed(MixHash(opts_.walk_seed, schedule_index));
    plan_.clear();
    if (opts_.max_depth == 0) {
      return true;
    }
    if (rng_.Bernoulli(kFaultProbability)) {
      const size_t at = rng_.Index(opts_.max_depth);
      plan_.emplace(at, ChoiceKind::kPartition);
      plan_.emplace(at + 1 + rng_.Index(opts_.max_depth), ChoiceKind::kHeal);
    }
    if (rng_.Bernoulli(kFaultProbability)) {
      plan_.emplace(rng_.Index(opts_.max_depth), ChoiceKind::kCrash);
    }
    if (rng_.Bernoulli(kFaultProbability)) {
      plan_.emplace(rng_.Index(opts_.max_depth), ChoiceKind::kSpawn);
    }
    return true;  // never exhausted; the explorer's budget bounds the walk
  }

  size_t Pick(const std::vector<Choice>& enabled, size_t depth) override {
    if (depth >= opts_.max_depth) {
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

 private:
  double Weight(const Choice& c) const {
    switch (c.kind) {
      case ChoiceKind::kDeliver:
        return kDeliverWeight;
      case ChoiceKind::kAdvanceTime:
        return kAdvanceWeight;
      default:
        return 0;  // faults fire only through the plan
    }
  }

  const StrategyOptions opts_;
  Rng rng_;
  std::multimap<size_t, ChoiceKind> plan_;
};

}  // namespace

std::unique_ptr<Strategy> MakeStrategy(StrategyKind kind,
                                       const StrategyOptions& options) {
  switch (kind) {
    case StrategyKind::kExhaustive:
      return std::make_unique<DfsStrategy>(options, /*use_sleep_sets=*/true,
                                           /*bound_delay=*/false);
    case StrategyKind::kDelayBounded:
      return std::make_unique<DfsStrategy>(options, /*use_sleep_sets=*/false,
                                           /*bound_delay=*/true);
    case StrategyKind::kRandomWalk:
      return std::make_unique<RandomWalkStrategy>(options);
  }
  SCATTER_CHECK(false && "unknown strategy kind");
  return nullptr;
}

}  // namespace scatter::mc
