// Unit tests for the discrete-event simulator and network model.

#include <array>
#include <cstdint>
#include <iterator>
#include <map>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/random.h"
#include "src/common/types.h"
#include "src/sim/message.h"
#include "src/sim/network.h"
#include "src/sim/simulator.h"
#include "tests/alloc_counter.h"

namespace scatter::sim {
namespace {

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.Schedule(Millis(30), [&] { order.push_back(3); });
  sim.Schedule(Millis(10), [&] { order.push_back(1); });
  sim.Schedule(Millis(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now(), Millis(30));
}

TEST(SimulatorTest, TiesBreakByInsertionOrder) {
  Simulator sim(1);
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.Schedule(Millis(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(SimulatorTest, CancelPreventsFiring) {
  Simulator sim(1);
  bool fired = false;
  TimerId id = sim.Schedule(Millis(10), [&] { fired = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, CancelAfterFireIsHarmless) {
  Simulator sim(1);
  int fires = 0;
  TimerId id = sim.Schedule(Millis(1), [&] { fires++; });
  sim.Run();
  sim.Cancel(id);
  EXPECT_EQ(fires, 1);
}

TEST(SimulatorTest, RunUntilAdvancesClockExactly) {
  Simulator sim(1);
  int fires = 0;
  sim.Schedule(Millis(10), [&] { fires++; });
  sim.Schedule(Millis(100), [&] { fires++; });
  sim.RunUntil(Millis(50));
  EXPECT_EQ(fires, 1);
  EXPECT_EQ(sim.now(), Millis(50));
  sim.Run();
  EXPECT_EQ(fires, 2);
}

TEST(SimulatorTest, EventsCanScheduleEvents) {
  Simulator sim(1);
  int depth = 0;
  std::function<void()> recurse = [&]() {
    depth++;
    if (depth < 100) {
      sim.Schedule(Millis(1), recurse);
    }
  };
  sim.Schedule(0, recurse);
  sim.Run();
  EXPECT_EQ(depth, 100);
  EXPECT_EQ(sim.now(), Millis(99));
}

// The slot/generation event store recycles slots aggressively; a stale
// TimerId whose slot was reused must never cancel the new occupant.
TEST(SimulatorTest, StaleCancelAfterSlotReuseIsHarmless) {
  Simulator sim(1);
  int fires = 0;
  TimerId old_id = sim.Schedule(Millis(1), [&] { fires++; });
  sim.Step();  // fires and frees the slot
  EXPECT_EQ(fires, 1);
  // The freed slot is recycled with a bumped generation.
  TimerId new_id = sim.Schedule(Millis(1), [&] { fires += 10; });
  EXPECT_NE(old_id, new_id);
  sim.Cancel(old_id);  // stale id: must not touch the new event
  sim.Run();
  EXPECT_EQ(fires, 11);
}

TEST(SimulatorTest, DoubleCancelIsHarmless) {
  Simulator sim(1);
  int fires = 0;
  TimerId id = sim.Schedule(Millis(1), [&] { fires++; });
  TimerId other = sim.Schedule(Millis(2), [&] { fires += 10; });
  sim.Cancel(id);
  sim.Cancel(id);  // second cancel hits a freed (possibly reused) slot
  sim.Run();
  EXPECT_EQ(fires, 10);
  (void)other;
}

// EventFn is move-only: callbacks may own resources (no copyable
// std::function requirement).
TEST(SimulatorTest, MoveOnlyCallbacksSupported) {
  Simulator sim(1);
  int observed = 0;
  auto payload = std::make_unique<int>(42);
  sim.Schedule(Millis(1), [&observed, p = std::move(payload)]() {
    observed = *p;
  });
  sim.Run();
  EXPECT_EQ(observed, 42);
}

// Callbacks larger than the inline buffer take the heap path transparently.
TEST(SimulatorTest, LargeCallbacksSupported) {
  Simulator sim(1);
  struct Big {
    char pad[256] = {};
  };
  Big big;
  big.pad[200] = 7;
  int observed = 0;
  sim.Schedule(Millis(1), [&observed, big]() { observed = big.pad[200]; });
  sim.Run();
  EXPECT_EQ(observed, 7);
}

// Cancel removes the event from the queue at once, so pending_events()
// counts exactly the events that will still fire.
TEST(SimulatorTest, PendingEventsTracksCancellations) {
  Simulator sim(1);
  EXPECT_EQ(sim.pending_events(), 0u);
  std::vector<TimerId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.Schedule(Millis(i + 1), [] {}));
  }
  EXPECT_EQ(sim.pending_events(), 100u);
  for (int i = 0; i < 100; i += 2) {
    sim.Cancel(ids[i]);
  }
  EXPECT_EQ(sim.pending_events(), 50u);
  sim.Step();
  EXPECT_EQ(sim.pending_events(), 49u);
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Stress slot reuse: interleaved schedule/cancel/fire with recycled slots
// must fire exactly the never-cancelled callbacks, each exactly once.
TEST(SimulatorTest, SlotReuseStress) {
  enum : int { kPending = 0, kFired = 1, kCancelled = 2 };
  Simulator sim(7);
  std::vector<int> status;
  std::vector<std::pair<size_t, TimerId>> live;
  uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return state;
  };
  for (int round = 0; round < 2000; ++round) {
    const uint64_t r = next();
    if (r % 4 != 0 || live.empty()) {
      const size_t idx = status.size();
      status.push_back(kPending);
      TimerId id = sim.Schedule(1 + r % 50, [&status, idx] {
        EXPECT_EQ(status[idx], kPending) << "double fire or fired after "
                                            "cancel at " << idx;
        status[idx] = kFired;
      });
      live.push_back({idx, id});
    } else if (r % 8 == 0) {
      const size_t pick = next() % live.size();
      auto [idx, id] = live[pick];
      sim.Cancel(id);  // harmless if it already fired
      if (status[idx] == kPending) {
        status[idx] = kCancelled;
      }
      live.erase(live.begin() + pick);
    } else {
      sim.Step();  // fire a few along the way so slots get recycled
    }
  }
  sim.Run();
  for (size_t i = 0; i < status.size(); ++i) {
    EXPECT_NE(status[i], kPending) << "timer " << i << " never resolved";
  }
  EXPECT_EQ(sim.pending_events(), 0u);
}

// Differential test of the event queue — the near-time wheel and the
// indexed heap behind it — against a reference model: an ordered set of
// (fire time, schedule order). Random schedules mix wheel delays (below the
// 4096 µs span, with many same-instant ties), delays of 4095, 4096 and
// 4097 µs that straddle the span, 800 ms timeouts, and events placed at the
// exact fire time of a pending event, which ties a heap event with a wheel
// event scheduled later. Cancels hit the heap root, the last heap element,
// anything pending in either queue and stale ids, also from inside
// callbacks. Step and RunUntil — with targets inside and beyond the span —
// must fire exactly the model's events in the model's order, and
// pending_events() must equal the model's size after every step.
class QueueModelHarness {
 public:
  explicit QueueModelHarness(uint64_t seed) : sim_(seed), rng_(seed) {}

  void Run(int steps) {
    for (int i = 0; i < steps && !::testing::Test::HasFailure(); ++i) {
      RandomStep();
      ASSERT_EQ(sim_.pending_events(), model_.size()) << "step " << i;
    }
    sim_.Run();
    EXPECT_TRUE(model_.empty());
    EXPECT_EQ(sim_.pending_events(), 0u);
  }

 private:
  using Key = std::pair<TimeMicros, uint64_t>;  // (fire time, order)

  void ScheduleOne(TimeMicros delay, bool cancels_another) {
    const uint64_t order = next_order_++;
    const TimerId id =
        sim_.Schedule(delay, [this, order, cancels_another] {
          Fire(order, cancels_another);
        });
    model_.emplace(Key{sim_.now() + delay, order}, id);
    issued_.push_back(id);
  }

  void Fire(uint64_t order, bool cancels_another) {
    ASSERT_FALSE(model_.empty()) << "fired " << order << " on an empty model";
    ASSERT_EQ(model_.begin()->first.second, order) << "out-of-order fire";
    ASSERT_EQ(model_.begin()->first.first, sim_.now());
    model_.erase(model_.begin());
    if (cancels_another && !model_.empty()) {
      CancelAt(rng_.Below(model_.size()));
    }
  }

  void CancelAt(uint64_t index) {
    auto it = std::next(model_.begin(), static_cast<std::ptrdiff_t>(index));
    sim_.Cancel(it->second);
    model_.erase(it);
  }

  TimeMicros RandomDelay() {
    switch (rng_.Below(8)) {
      case 0:
        return 4095 + rng_.Range(0, 2);  // straddles the wheel span
      case 1:
        return Millis(800);  // an RPC timeout: always the heap
      case 2:
        if (!model_.empty()) {
          // The fire time of a pending event, which may sit in the other
          // queue: a same-instant tie across the wheel and the heap.
          auto it = std::next(model_.begin(), static_cast<std::ptrdiff_t>(
                                                  rng_.Below(model_.size())));
          return it->first.first - sim_.now();
        }
        return 0;
      case 3:
        return rng_.Range(0, 10000);
      default:
        // Few distinct delays, so same-instant ties are common.
        return Millis(rng_.Range(0, 4));
    }
  }

  TimeMicros RandomRunTarget() {
    switch (rng_.Below(4)) {
      case 0:
        return sim_.now() + 4095 + rng_.Range(0, 2);
      case 1:
        return sim_.now() + Millis(rng_.Range(5, 900));  // beyond the span
      default:
        return sim_.now() + Millis(rng_.Range(0, 3));
    }
  }

  void RandomStep() {
    const uint64_t r = rng_.Below(100);
    if (r < 40) {
      ScheduleOne(RandomDelay(), rng_.Below(8) == 0);
    } else if (r < 45 && !model_.empty()) {
      CancelAt(0);  // the next event, in whichever queue
    } else if (r < 50) {
      // Later than everything pending: the last event of either queue.
      const TimeMicros horizon =
          model_.empty() ? 0 : model_.rbegin()->first.first - sim_.now();
      ScheduleOne(horizon + Millis(1), false);
      CancelAt(model_.size() - 1);
    } else if (r < 60 && !model_.empty()) {
      CancelAt(rng_.Below(model_.size()));  // anywhere, in either queue
    } else if (r < 63 && !issued_.empty()) {
      // Possibly fired or cancelled already: must be a no-op then.
      const TimerId id = issued_[rng_.Below(issued_.size())];
      for (auto it = model_.begin(); it != model_.end(); ++it) {
        if (it->second == id) {
          model_.erase(it);
          break;
        }
      }
      sim_.Cancel(id);
    } else if (r < 90) {
      const bool had_event = !model_.empty();
      EXPECT_EQ(sim_.Step(), had_event);
    } else {
      const TimeMicros until = RandomRunTarget();
      sim_.RunUntil(until);
      EXPECT_EQ(sim_.now(), until);
      EXPECT_TRUE(model_.empty() || model_.begin()->first.first > until);
    }
  }

  Simulator sim_;
  Rng rng_;
  std::map<Key, TimerId> model_;
  std::vector<TimerId> issued_;
  uint64_t next_order_ = 0;
};

TEST(SimulatorTest, IndexedHeapMatchesReferenceModel) {
  for (uint64_t seed = 1; seed <= 25; ++seed) {
    SCOPED_TRACE(seed);
    QueueModelHarness(seed).Run(2000);
    if (HasFailure()) {
      return;
    }
  }
}

// An event queued in the heap (scheduled 5000 µs ahead) and one queued in
// the wheel later for the same instant fire in schedule order, and events
// 4095, 4096 and 4097 µs ahead — the last wheel delay and the first two
// heap delays — fire in time order around them.
TEST(SimulatorTest, WheelAndHeapTiesFireInScheduleOrder) {
  Simulator sim(1);
  std::vector<int> order;
  sim.Schedule(5000, [&] { order.push_back(1); });  // heap
  sim.Schedule(4097, [&] { order.push_back(2); });  // heap
  sim.Schedule(4096, [&] { order.push_back(3); });  // heap
  sim.Schedule(4095, [&] { order.push_back(4); });  // wheel
  sim.RunUntil(1000);
  sim.Schedule(4000, [&] { order.push_back(5); });  // wheel, ties with 1
  sim.Schedule(3097, [&] { order.push_back(6); });  // wheel, ties with 2
  EXPECT_EQ(sim.pending_events(), 6u);
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{4, 3, 2, 6, 1, 5}));
  EXPECT_EQ(sim.now(), 5000);
}

// A steady schedule/cancel/fire loop through a TimerOwner, with a typical
// `[this, a, b]` capture, must not allocate once the slot and heap vectors
// have grown to their working size.
TEST(SimulatorTest, SteadyTimerLoopIsAllocationFree) {
  struct Client {
    explicit Client(Simulator* sim) : timers(sim) {}
    void Arm(uint64_t a, uint64_t b) {
      timers.Schedule(Millis(1), [this, a, b] { sum += a + b; });
      const TimerId next =
          timers.Schedule(Millis(800), [this, a, b] { sum -= a * b; });
      timers.Cancel(timeout);
      timeout = next;
    }
    uint64_t sum = 0;
    TimerId timeout = kInvalidTimer;
    TimerOwner timers;
  };
  Simulator sim(1);
  Client client(&sim);
  for (uint64_t i = 0; i < 1000; ++i) {
    client.Arm(i, i + 1);
    sim.Step();
  }
  const uint64_t before = alloc_counter::AllocationCount();
  for (uint64_t i = 0; i < 10000; ++i) {
    client.Arm(i, i + 1);
    sim.Step();
  }
  EXPECT_EQ(alloc_counter::AllocationCount() - before, 0u);
  EXPECT_EQ(sim.pending_events(), 1u);  // just the last timeout
}

TEST(TimerOwnerTest, DestructionCancelsPending) {
  Simulator sim(1);
  bool fired = false;
  {
    TimerOwner owner(&sim);
    owner.Schedule(Millis(10), [&] { fired = true; });
  }
  sim.Run();
  EXPECT_FALSE(fired);
}

TEST(TimerOwnerTest, FiredTimersLeaveTheSet) {
  Simulator sim(1);
  TimerOwner owner(&sim);
  int fires = 0;
  for (int i = 0; i < 5; ++i) {
    owner.Schedule(Millis(i + 1), [&] { fires++; });
  }
  sim.Run();
  EXPECT_EQ(fires, 5);
  owner.CancelAll();  // Nothing pending; must not crash.
}

TEST(TimerOwnerTest, CancelIgnoresOtherOwnersTimers) {
  Simulator sim(1);
  TimerOwner a(&sim);
  TimerOwner b(&sim);
  int fires = 0;
  const TimerId owned_by_a = a.Schedule(Millis(1), [&] { fires++; });
  const TimerId unowned = sim.Schedule(Millis(2), [&] { fires += 10; });
  b.Cancel(owned_by_a);
  b.Cancel(unowned);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.Run();
  EXPECT_EQ(fires, 11);
}

TEST(TimerOwnerTest, CancelOfFiredIdIgnoresReusedSlot) {
  Simulator sim(1);
  TimerOwner owner(&sim);
  int fires = 0;
  const TimerId fired = owner.Schedule(Millis(1), [&] { fires++; });
  sim.Step();
  const TimerId reused = owner.Schedule(Millis(1), [&] { fires += 10; });
  // Same slot, fresh generation.
  ASSERT_EQ(fired & 0xffffffffu, reused & 0xffffffffu);
  ASSERT_NE(fired, reused);
  owner.Cancel(fired);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fires, 11);
}

TEST(TimerOwnerTest, CancelAllAfterFiresAndCancels) {
  Simulator sim(1);
  TimerOwner owner(&sim);
  TimerOwner other(&sim);
  std::vector<TimerId> ids;
  int fires = 0;
  for (int i = 0; i < 20; ++i) {
    ids.push_back(owner.Schedule(Millis(i + 1), [&] { fires++; }));
  }
  other.Schedule(Millis(100), [&] { fires += 100; });
  for (int i = 0; i < 5; ++i) {
    sim.Step();  // fires the owner's first five
  }
  for (int i = 5; i < 20; i += 3) {
    owner.Cancel(ids[i]);
  }
  owner.Cancel(ids[0]);  // already fired
  EXPECT_EQ(sim.pending_events(), 11u);  // 10 of owner's, 1 of other's
  owner.CancelAll();
  EXPECT_EQ(sim.pending_events(), 1u);
  other.CancelAll();
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
  EXPECT_EQ(fires, 5);
  // Slots recycled by the cancels serve new timers normally.
  owner.Schedule(Millis(1), [&] { fires++; });
  sim.Run();
  EXPECT_EQ(fires, 6);
}

// An object may be destroyed from inside one of its own timer callbacks
// (a node crashing itself); its other pending timers must be cancelled and
// nothing may touch the dead owner afterwards.
TEST(TimerOwnerTest, OwnerDestroyedInsideOwnCallback) {
  struct Node {
    explicit Node(Simulator* sim) : timers(sim) {}
    TimerOwner timers;
  };
  Simulator sim(1);
  auto node = std::make_unique<Node>(&sim);
  int fires = 0;
  Node* raw = node.get();
  raw->timers.Schedule(Millis(2), [&] { fires += 100; });
  raw->timers.Schedule(Millis(1), [&node, &fires] {
    fires++;
    node.reset();
  });
  raw->timers.Schedule(Millis(3), [&] { fires += 100; });
  sim.Schedule(Millis(4), [&] { fires += 10; });
  sim.Run();
  EXPECT_EQ(node, nullptr);
  EXPECT_EQ(fires, 11);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(TimerOwnerTest, RescheduleKeepsTheIdAndRefusesOtherIds) {
  Simulator sim(1);
  TimerOwner owner(&sim);
  TimerOwner other(&sim);
  std::vector<TimeMicros> fired_at;
  const TimerId id =
      owner.Schedule(Millis(5), [&] { fired_at.push_back(sim.now()); });
  EXPECT_TRUE(owner.Reschedule(id, Millis(10)));  // later, heap to heap
  EXPECT_FALSE(other.Reschedule(id, Millis(1)));  // another owner's id
  sim.RunUntil(Millis(9));
  EXPECT_TRUE(fired_at.empty());
  EXPECT_TRUE(owner.Reschedule(id, 100));  // the same id moves again
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(fired_at, (std::vector<TimeMicros>{Millis(9) + 100}));
  EXPECT_FALSE(owner.Reschedule(id, Millis(1)));  // fired
  EXPECT_EQ(sim.pending_events(), 0u);

  const TimerId cancelled = owner.Schedule(Millis(1), [] {});
  owner.Cancel(cancelled);
  EXPECT_FALSE(owner.Reschedule(cancelled, Millis(1)));
  const TimerId unowned = sim.Schedule(Millis(1), [] {});
  EXPECT_FALSE(owner.Reschedule(unowned, Millis(2)));
  EXPECT_FALSE(owner.Reschedule(kInvalidTimer, Millis(2)));
  // A timer cannot move itself from its own callback: it has fired.
  bool moved_itself = true;
  TimerId self = kInvalidTimer;
  self = owner.Schedule(Millis(1),
                        [&] { moved_itself = owner.Reschedule(self, 1); });
  sim.Run();
  EXPECT_FALSE(moved_itself);
  EXPECT_EQ(sim.pending_events(), 0u);

  // A moved timer is still cancelled through its id.
  const TimerId moved = owner.Schedule(Millis(1), [&] { fired_at.clear(); });
  ASSERT_TRUE(owner.Reschedule(moved, Millis(900)));
  owner.Cancel(moved);
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.Run();
  EXPECT_EQ(fired_at.size(), 1u);
}

// Runs one seeded program of timer moves on two simulators in lockstep: one
// moves a pending timer with TimerOwner::Reschedule, the other cancels it
// and schedules it again. Moves go earlier and later, within the wheel,
// within the heap and across the span between them, tie with other pending
// timers and come from inside callbacks; unowned events interleave. Both
// sides must fire the same timers at the same instants in the same order
// and process the same number of events.
class RescheduleTwin {
 public:
  explicit RescheduleTwin(uint64_t seed)
      : rng_(seed), in_place_(seed, true), cancel_schedule_(seed, false) {}

  void Run(int steps) {
    for (int i = 0; i < steps && !::testing::Test::HasFailure(); ++i) {
      RandomStep();
      ASSERT_EQ(in_place_.fired, cancel_schedule_.fired) << "step " << i;
      ASSERT_EQ(in_place_.sim.pending_events(),
                cancel_schedule_.sim.pending_events());
    }
    in_place_.sim.Run();
    cancel_schedule_.sim.Run();
    EXPECT_EQ(in_place_.fired, cancel_schedule_.fired);
    EXPECT_EQ(in_place_.sim.events_processed(),
              cancel_schedule_.sim.events_processed());
    EXPECT_EQ(in_place_.sim.now(), cancel_schedule_.sim.now());
    EXPECT_GT(in_place_.fired.size(), 100u);
    EXPECT_GT(in_place_.moves[kEarlier], 0);
    EXPECT_GT(in_place_.moves[kLater], 0);
    EXPECT_GT(in_place_.moves[kWheelToHeap], 0);
    EXPECT_GT(in_place_.moves[kHeapToWheel], 0);
    EXPECT_GT(in_place_.moves[kFromCallback], 0);
  }

 private:
  static constexpr int kTimers = 12;
  static constexpr TimeMicros kSpan = 4096;  // the simulator's wheel span
  enum MoveKind { kEarlier, kLater, kWheelToHeap, kHeapToWheel,
                  kFromCallback, kMoveKinds };

  struct Side {
    Side(uint64_t seed, bool in_place_moves)
        : sim(seed), owner(&sim), in_place(in_place_moves) {}

    void Arm(int k, TimeMicros delay) {
      ids[k] = owner.Schedule(delay, [this, k] { Fire(k); });
      due[k] = sim.now() + delay;
    }
    void Move(int k, TimeMicros delay) {
      const TimeMicros old_left = due[k] - sim.now();
      moves[delay < old_left ? kEarlier : kLater]++;
      if (old_left < kSpan && delay >= kSpan) moves[kWheelToHeap]++;
      if (old_left >= kSpan && delay < kSpan) moves[kHeapToWheel]++;
      if (in_place) {
        const TimerId before = ids[k];
        ASSERT_TRUE(owner.Reschedule(ids[k], delay));
        due[k] = sim.now() + delay;
        ASSERT_EQ(ids[k], before);
      } else {
        owner.Cancel(ids[k]);
        Arm(k, delay);
      }
    }
    void Fire(int k) {
      fired.emplace_back(sim.now(), k);
      ids[k] = kInvalidTimer;
      // Every third timer pushes its successor back from inside its
      // callback, sometimes across the wheel span.
      const int next = (k + 1) % kTimers;
      if (k % 3 == 0 && ids[next] != kInvalidTimer) {
        moves[kFromCallback]++;
        Move(next, (k % 2 == 0) ? 4090 + k : 50 * k);
      }
    }

    Simulator sim;
    TimerOwner owner;
    bool in_place;
    std::array<TimerId, kTimers> ids{};
    std::array<TimeMicros, kTimers> due{};
    std::array<int, kMoveKinds> moves{};
    // (instant, timer), with timer -1 for an unowned event.
    std::vector<std::pair<TimeMicros, int>> fired;
  };

  TimeMicros RandomDelay() {
    switch (rng_.Below(6)) {
      case 0:
        return kSpan - 1 + rng_.Range(0, 2);  // straddles the wheel span
      case 1:
        return Millis(800);  // always the heap
      case 2: {
        // The fire time of a pending timer: a same-instant tie.
        const int k = static_cast<int>(rng_.Below(kTimers));
        if (in_place_.ids[k] != kInvalidTimer) {
          return in_place_.due[k] - in_place_.sim.now();
        }
        return 0;
      }
      case 3:
        return rng_.Range(0, 10000);
      default:
        return Millis(rng_.Range(0, 4));  // few delays: frequent ties
    }
  }

  void RandomStep() {
    const uint64_t r = rng_.Below(100);
    if (r < 35) {
      const int k = static_cast<int>(rng_.Below(kTimers));
      const TimeMicros delay = RandomDelay();
      const bool pending = in_place_.ids[k] != kInvalidTimer;
      ASSERT_EQ(pending, cancel_schedule_.ids[k] != kInvalidTimer);
      for (Side* side : {&in_place_, &cancel_schedule_}) {
        if (pending) {
          side->Move(k, delay);
        } else {
          side->Arm(k, delay);
        }
      }
    } else if (r < 40) {
      const int k = static_cast<int>(rng_.Below(kTimers));
      for (Side* side : {&in_place_, &cancel_schedule_}) {
        side->owner.Cancel(side->ids[k]);
        side->ids[k] = kInvalidTimer;
      }
    } else if (r < 48) {
      const TimeMicros delay = RandomDelay();
      for (Side* side : {&in_place_, &cancel_schedule_}) {
        side->sim.Schedule(delay, [side] {
          side->fired.emplace_back(side->sim.now(), -1);
        });
      }
    } else if (r < 90) {
      const bool stepped = in_place_.sim.Step();
      EXPECT_EQ(cancel_schedule_.sim.Step(), stepped);
    } else {
      const TimeMicros until = in_place_.sim.now() + rng_.Range(0, Millis(5));
      in_place_.sim.RunUntil(until);
      cancel_schedule_.sim.RunUntil(until);
    }
  }

  Rng rng_;
  Side in_place_;
  Side cancel_schedule_;
};

TEST(TimerOwnerTest, RescheduleFiresLikeCancelPlusSchedule) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    SCOPED_TRACE(seed);
    RescheduleTwin(seed).Run(3000);
    if (HasFailure()) {
      return;
    }
  }
}

struct TestMsg : Message {
  explicit TestMsg(int v) : Message(MessageType::kInvalid), value(v) {}
  int value;
};

class Recorder : public Endpoint {
 public:
  void HandleMessage(const MessagePtr& m) override {
    received.push_back(static_cast<const TestMsg&>(*m).value);
  }
  std::vector<int> received;
};

MessagePtr MakeMsg(NodeId from, NodeId to, int v) {
  auto m = std::make_shared<TestMsg>(v);
  m->from = from;
  m->to = to;
  return m;
}

TEST(NetworkTest, DeliversBetweenEndpoints) {
  Simulator sim(1);
  NetworkConfig cfg;
  cfg.latency = LatencyModel{.kind = LatencyModel::Kind::kConstant,
                             .base = Millis(2)};
  Network net(&sim, cfg);
  Recorder a;
  Recorder b;
  net.Attach(1, &a);
  net.Attach(2, &b);
  net.Send(MakeMsg(1, 2, 7));
  sim.Run();
  EXPECT_EQ(b.received, std::vector<int>{7});
  EXPECT_TRUE(a.received.empty());
  EXPECT_EQ(sim.now(), Millis(2));
  EXPECT_EQ(net.messages_delivered(), 1u);
}

TEST(NetworkTest, DropsToDetachedNode) {
  Simulator sim(1);
  Network net(&sim, NetworkConfig{});
  Recorder a;
  net.Attach(1, &a);
  net.Send(MakeMsg(1, 2, 7));
  sim.Run();
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(NetworkTest, DropsWhenDetachedInFlight) {
  Simulator sim(1);
  NetworkConfig cfg;
  cfg.latency = LatencyModel{.kind = LatencyModel::Kind::kConstant,
                             .base = Millis(5)};
  Network net(&sim, cfg);
  Recorder a;
  Recorder b;
  net.Attach(1, &a);
  net.Attach(2, &b);
  net.Send(MakeMsg(1, 2, 7));
  sim.Schedule(Millis(1), [&] { net.Detach(2); });
  sim.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(net.messages_dropped(), 1u);
}

TEST(NetworkTest, LossRateDropsRoughlyProportionally) {
  Simulator sim(42);
  NetworkConfig cfg;
  cfg.loss_rate = 0.3;
  Network net(&sim, cfg);
  Recorder a;
  Recorder b;
  net.Attach(1, &a);
  net.Attach(2, &b);
  constexpr int kSends = 10000;
  for (int i = 0; i < kSends; ++i) {
    net.Send(MakeMsg(1, 2, i));
  }
  sim.Run();
  EXPECT_NEAR(static_cast<double>(b.received.size()), kSends * 0.7,
              kSends * 0.05);
}

TEST(NetworkTest, PartitionBlocksCrossIslandTraffic) {
  Simulator sim(1);
  Network net(&sim, NetworkConfig{});
  Recorder a;
  Recorder b;
  Recorder c;
  net.Attach(1, &a);
  net.Attach(2, &b);
  net.Attach(3, &c);
  net.Partition({{1, 2}, {3}});
  net.Send(MakeMsg(1, 2, 1));  // same island: delivered
  net.Send(MakeMsg(1, 3, 2));  // cross island: dropped
  sim.Run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_TRUE(c.received.empty());

  net.HealPartition();
  net.Send(MakeMsg(1, 3, 3));
  sim.Run();
  EXPECT_EQ(c.received.size(), 1u);
}

TEST(NetworkTest, BlockedLinkIsDirectional) {
  Simulator sim(1);
  Network net(&sim, NetworkConfig{});
  Recorder a;
  Recorder b;
  net.Attach(1, &a);
  net.Attach(2, &b);
  net.BlockLink(1, 2);
  net.Send(MakeMsg(1, 2, 1));
  net.Send(MakeMsg(2, 1, 2));
  sim.Run();
  EXPECT_TRUE(b.received.empty());
  EXPECT_EQ(a.received.size(), 1u);
  net.UnblockLink(1, 2);
  net.Send(MakeMsg(1, 2, 3));
  sim.Run();
  EXPECT_EQ(b.received.size(), 1u);
}

TEST(NetworkTest, SelfSendDeliveredImmediately) {
  Simulator sim(1);
  NetworkConfig cfg;
  cfg.latency = LatencyModel{.kind = LatencyModel::Kind::kConstant,
                             .base = Millis(50)};
  cfg.loss_rate = 1.0;  // Even full loss must not affect self-sends.
  Network net(&sim, cfg);
  Recorder a;
  net.Attach(1, &a);
  net.Send(MakeMsg(1, 1, 9));
  sim.Run();
  EXPECT_EQ(a.received, std::vector<int>{9});
  EXPECT_EQ(sim.now(), 0);
}

TEST(LatencyModelTest, SamplesWithinBounds) {
  Simulator sim(5);
  LatencyModel uniform{.kind = LatencyModel::Kind::kUniform,
                       .base = Millis(10),
                       .spread = Millis(5)};
  for (int i = 0; i < 1000; ++i) {
    TimeMicros s = uniform.Sample(sim.rng());
    EXPECT_GE(s, Millis(10));
    EXPECT_LE(s, Millis(15));
  }
  LatencyModel wan = LatencyModel::Wan();
  for (int i = 0; i < 1000; ++i) {
    TimeMicros s = wan.Sample(sim.rng());
    EXPECT_GE(s, wan.base);
  }
}

TEST(NetworkTest, DuplicationDeliversExtraCopies) {
  Simulator sim(3);
  NetworkConfig cfg;
  cfg.duplicate_rate = 0.5;
  Network net(&sim, cfg);
  Recorder a;
  Recorder b;
  net.Attach(1, &a);
  net.Attach(2, &b);
  constexpr int kSends = 4000;
  for (int i = 0; i < kSends; ++i) {
    net.Send(MakeMsg(1, 2, i));
  }
  sim.Run();
  EXPECT_NEAR(static_cast<double>(b.received.size()), kSends * 1.5,
              kSends * 0.05);
}

TEST(NetworkTest, BandwidthAddsSerializationDelay) {
  Simulator sim(5);
  NetworkConfig cfg;
  cfg.latency = LatencyModel{.kind = LatencyModel::Kind::kConstant,
                             .base = Millis(1)};
  cfg.bandwidth_bytes_per_sec = 1000000;  // 1 MB/s
  Network net(&sim, cfg);
  Recorder a;
  Recorder b;
  net.Attach(1, &a);
  net.Attach(2, &b);

  struct BigMsg : TestMsg {
    BigMsg() : TestMsg(0) {}
    size_t ByteSize() const override { return 1000000; }  // 1 MB -> 1 s
  };
  auto m = std::make_shared<BigMsg>();
  m->from = 1;
  m->to = 2;
  net.Send(m);
  sim.Run();
  EXPECT_EQ(b.received.size(), 1u);
  EXPECT_GE(sim.now(), Seconds(1));  // Serialization dominated.
}

TEST(NetworkTest, HeterogeneityScalesPerNodeDeterministically) {
  Simulator sim(7);
  NetworkConfig cfg;
  cfg.latency = LatencyModel{.kind = LatencyModel::Kind::kConstant,
                             .base = Millis(10)};
  cfg.heterogeneity_sigma = 1.0;
  Network net(&sim, cfg);
  Recorder r1;
  Recorder r2;
  net.Attach(1001, &r1);
  net.Attach(1002, &r2);
  net.Send(MakeMsg(1001, 1002, 1));
  sim.Run();
  const TimeMicros first = sim.now();
  // Same pair again: identical factor, identical latency (constant base).
  net.Send(MakeMsg(1001, 1002, 2));
  sim.Run();
  EXPECT_EQ(sim.now() - first, first);
  // And the factor differs from 1.0 for most node pairs.
  EXPECT_NE(first, Millis(10));
}

TEST(DeterminismTest, IdenticalSeedsIdenticalRuns) {
  auto run = [](uint64_t seed) {
    Simulator sim(seed);
    NetworkConfig cfg;
    cfg.latency = LatencyModel::Wan();
    cfg.loss_rate = 0.1;
    Network net(&sim, cfg);
    Recorder a;
    Recorder b;
    net.Attach(1, &a);
    net.Attach(2, &b);
    for (int i = 0; i < 500; ++i) {
      net.Send(MakeMsg(1, 2, i));
    }
    sim.Run();
    return std::make_pair(b.received, sim.now());
  };
  EXPECT_EQ(run(99), run(99));
  EXPECT_NE(run(99).first, run(100).first);
}

}  // namespace
}  // namespace scatter::sim
