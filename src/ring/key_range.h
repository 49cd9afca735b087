// Circular key-space interval arithmetic.
//
// The key space is the full uint64 range arranged on a ring. A KeyRange is
// the half-open arc [begin, end) walking clockwise (increasing keys, with
// wraparound). begin == end denotes the FULL ring, not an empty range — an
// empty range is never a valid group responsibility, so the representation
// trades it away for the full ring, which is (the bootstrap single group).

#ifndef SCATTER_SRC_RING_KEY_RANGE_H_
#define SCATTER_SRC_RING_KEY_RANGE_H_

#include <string>
#include <utility>

#include "src/common/types.h"

namespace scatter::ring {

struct KeyRange {
  Key begin = 0;
  Key end = 0;  // exclusive

  static KeyRange Full() { return KeyRange{0, 0}; }

  bool IsFull() const { return begin == end; }

  bool Contains(Key k) const {
    if (IsFull()) {
      return true;
    }
    if (begin < end) {
      return begin <= k && k < end;
    }
    return k >= begin || k < end;  // wraps past 0
  }

  // Arc length walking clockwise from begin to end; the full ring reports
  // 2^64 - 1 (saturated — one short, but only used for load comparisons).
  uint64_t Size() const {
    if (IsFull()) {
      return ~uint64_t{0};
    }
    return end - begin;  // well-defined modular arithmetic
  }

  // The key exactly halfway along the arc (for size-balanced splits).
  Key Midpoint() const { return begin + Size() / 2; }

  // True when `other` starts exactly where this range ends (is our
  // clockwise successor arc).
  bool AdjacentBefore(const KeyRange& other) const {
    return !IsFull() && !other.IsFull() && end == other.begin;
  }

  // Whether the two arcs share any key.
  bool Overlaps(const KeyRange& other) const {
    if (IsFull() || other.IsFull()) {
      return true;
    }
    return Contains(other.begin) || other.Contains(begin);
  }

  // Splits at `mid` (which must lie strictly inside the arc) into
  // [begin, mid) and [mid, end).
  std::pair<KeyRange, KeyRange> SplitAt(Key mid) const {
    return {KeyRange{begin, mid}, KeyRange{mid, end}};
  }

  // Joins this arc with its clockwise successor arc.
  KeyRange JoinWith(const KeyRange& next) const {
    return KeyRange{begin, next.end};
  }

  friend bool operator==(const KeyRange& a, const KeyRange& b) = default;

  std::string ToString() const {
    return "[" + std::to_string(begin) + ", " + std::to_string(end) + ")";
  }
};

// Wire field list (src/wire/fields.h).
template <class IO>
void Fields(KeyRange& r, IO& io) {
  io(r.begin, r.end);
}

}  // namespace scatter::ring

#endif  // SCATTER_SRC_RING_KEY_RANGE_H_
