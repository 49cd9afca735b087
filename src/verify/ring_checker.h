// God's-eye structural invariant checks over a running cluster.
//
// The core invariant — group ranges tile the full ring disjointly — holds
// of the *committed* state at all times, but an observer sampling replicas
// mid-handover sees transients (a merged group whose laggard parent replica
// has not yet retired). The checks here therefore run at quiescence: with
// structural operations drained, the authoritative ring must be an exact
// disjoint cover. The continuous check (no two leader-led groups serve
// overlapping ranges) is analysis::MakeRingSafetyChecker().

#ifndef SCATTER_SRC_VERIFY_RING_CHECKER_H_
#define SCATTER_SRC_VERIFY_RING_CHECKER_H_

#include <string>
#include <vector>

#include "src/core/cluster.h"

namespace scatter::verify {

struct RingCheckOutcome {
  bool ok = true;
  std::vector<std::string> problems;
};

// The groups tile the key space exactly once: no gap, no overlap. The list
// is checked as given, so of two overlapping groups neither hides the other.
RingCheckOutcome CheckCover(std::vector<ring::GroupInfo> groups);

// Quiescent invariant: the authoritative ring exactly tiles the key space.
RingCheckOutcome CheckQuiescentCover(const core::Cluster& cluster);

// Quiescent invariant: all replicas of each group that have applied the
// same log prefix hold identical stores and ranges. Compares every member
// pair at the minimum applied index... in practice, at quiescence all
// members have applied everything, so stores must match exactly (after
// drained traffic and a settle period).
RingCheckOutcome CheckReplicaAgreement(core::Cluster& cluster);

}  // namespace scatter::verify

#endif  // SCATTER_SRC_VERIFY_RING_CHECKER_H_
