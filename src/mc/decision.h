// The model checker's decision alphabet and its replayable serialization.
//
// A schedule is a sequence of choices taken at decision points. Each choice
// is identified by (kind, arg); for deliveries the arg is the capture id
// the harness assigned when the message entered the pending set. Capture
// ids are deterministic functions of the executed prefix, which is what
// makes a recorded schedule replayable: re-executing the same choices from
// the same seed re-creates the same pending set with the same ids.
//
// A counterexample bundles a schedule with everything needed to re-execute
// it (`scenario`, `seed`) and what it demonstrated (`violation`), as the
// JSON artifact scatter_mc_counterexample.json consumed by tools/mc_replay.

#ifndef SCATTER_SRC_MC_DECISION_H_
#define SCATTER_SRC_MC_DECISION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace scatter::mc {

enum class ChoiceKind : uint8_t {
  kDeliver,      // arg = capture id of the pending message
  kAdvanceTime,  // fire the earliest pending simulator event (timer)
  kCrash,        // arg = node id (fail-stop)
  kSpawn,        // start a fresh node that joins through live seeds
  kPartition,    // install the scenario's partition
  kHeal,         // heal the partition
  kRestart,      // arg = node id (revive a crashed node from its disk)
};

const char* ChoiceKindName(ChoiceKind kind);

struct Choice {
  ChoiceKind kind = ChoiceKind::kAdvanceTime;
  uint64_t arg = 0;
  // Delivery destination, carried for readable counterexamples. Not part
  // of the choice's identity.
  NodeId dest = kInvalidNode;

  // Identity: two choices are the same decision iff (kind, arg) match.
  friend bool SameChoice(const Choice& a, const Choice& b) {
    return a.kind == b.kind && a.arg == b.arg;
  }
  std::string ToString() const;
};

// What an explored schedule violated.
struct McViolation {
  std::string source;   // "auditor" | "linearizability" | "liveness"
  std::string checker;  // auditor checker name, or "" for the others
  std::string detail;

  // Equivalence used by minimization and replay verification: the same
  // property failed, ignoring state-dependent detail text.
  friend bool SameViolation(const McViolation& a, const McViolation& b) {
    return a.source == b.source && a.checker == b.checker;
  }
};

struct Counterexample {
  int version = 1;
  std::string scenario;
  uint64_t seed = 0;
  std::string strategy;
  std::vector<Choice> schedule;
  McViolation violation;

  std::string ToJson() const;
  // Strict parser for the ToJson format; returns false and fills *error on
  // malformed input.
  static bool FromJson(const std::string& text, Counterexample* out,
                       std::string* error);

  bool WriteFile(const std::string& path, std::string* error) const;
  static bool ReadFile(const std::string& path, Counterexample* out,
                       std::string* error);
};

}  // namespace scatter::mc

#endif  // SCATTER_SRC_MC_DECISION_H_
