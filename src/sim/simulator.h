// Deterministic discrete-event simulator.
//
// The simulator owns virtual time and an event queue ordered by
// (fire time, insertion sequence). All protocol code runs inside event
// callbacks; wall-clock time never appears anywhere in the system. A run is
// bit-for-bit reproducible from the Simulator seed.
//
// Event storage is slot/generation based: callbacks live in a flat slot
// vector recycled through a free list, and a TimerId encodes
// (slot, generation) so resolving an id is an O(1) array probe. A pending
// event sits in one of two queues. Events due less than kWheelSpan µs ahead
// — message deliveries, which are most events — go to a near-time wheel of
// one-µs buckets, each an intrusive FIFO of slots, found through an
// occupancy bitmap; inserting, cancelling and popping one is O(1). Later
// events (RPC timeouts, election and heartbeat timers) go to an indexed
// binary heap of (fire time, seq, slot) entries whose slots record their
// heap position. Step fires the smaller of the wheel's first event and the
// heap's top by (fire time, seq), and Cancel removes the event from its
// queue at once: the queues hold exactly the pending events. Timers
// scheduled through a TimerOwner are also threaded onto an intrusive
// per-owner list in their slots, so an owner needs no side table and no
// wrapper callback to track, cancel or forget them. A TimerOwner can also
// move a pending timer in place (Reschedule): the slot, id and callback
// stay, and the event takes a fresh seq, so it fires exactly where a Cancel
// plus Schedule would have put it. Callbacks are move-only EventFns with
// inline storage, so the steady-state schedule/cancel/fire cycle performs
// no heap allocation at all.
//
// A TimerOwner can also defer work to the end of the current event
// (Defer): the work runs after the event's callback returns, before the
// monitor tick and the audit hook, in the order it was deferred. It is not
// an event — it takes no slot, no seq and no place in events_processed() —
// so coalescing what one event produces (a client's Gets to one node)
// leaves the schedule of everything else as it was. Work deferred outside
// any event runs before the next event fires.

#ifndef SCATTER_SRC_SIM_SIMULATOR_H_
#define SCATTER_SRC_SIM_SIMULATOR_H_

#include <array>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <utility>
#include <vector>

#include "src/common/inline_fn.h"
#include "src/common/random.h"
#include "src/common/types.h"

namespace scatter::obs {
class MetricsRegistry;
class TraceRecorder;
class HealthMonitor;
class TimelineRecorder;
}  // namespace scatter::obs

namespace scatter::sim {

// An event callback: every message delivery, timer and protocol step is one
// scheduled EventFn, and the common capture — `this` plus a couple of
// words — is stored inline, without an allocation.
using EventFn = InlineFn<void()>;

// Encodes (slot index + 1) in the low 32 bits and the slot's generation in
// the high 32 bits. 0 is never a valid id.
using TimerId = uint64_t;
inline constexpr TimerId kInvalidTimer = 0;

class TimerOwner;

class Simulator {
 public:
  explicit Simulator(uint64_t seed);
  ~Simulator();

  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  // Current virtual time.
  TimeMicros now() const { return now_; }

  // The single root source of randomness for the run. Components that need
  // independent streams should Fork() children at setup time.
  Rng& rng() { return rng_; }

  // Schedules fn to run at now() + delay (delay >= 0). Returns an id that
  // can cancel the event before it fires.
  TimerId Schedule(TimeMicros delay, EventFn fn);

  // Schedules fn at an absolute virtual time (>= now()).
  TimerId ScheduleAt(TimeMicros when, EventFn fn);

  // Cancels a pending event. Harmless if the event already fired or was
  // cancelled (ids are never reused: a recycled slot carries a fresh
  // generation).
  void Cancel(TimerId id);

  // Runs the earliest pending event, after any deferred work. Returns false
  // when the queue is empty once that work has run.
  bool Step();

  // Runs events until the queue drains.
  void Run();

  // Runs deferred work, then events with fire time <= t, then advances the
  // clock to exactly t.
  void RunUntil(TimeMicros t);

  // Runs the work TimerOwners deferred, in order, including work that
  // deferred work defers. Every event runs it after its callback; Step,
  // RunUntil and Network::InjectDelivery run it on entry, for work deferred
  // outside any event.
  void RunDeferred() {
    if (!deferred_.empty()) {
      DrainDeferred();
    }
  }

  // RunUntil(now() + d).
  void RunFor(TimeMicros d) { RunUntil(now_ + d); }

  uint64_t events_processed() const { return events_processed_; }
  // Schedule order of the event now firing (the last one fired between
  // events); the network's delivery ring stamps each delivery with it.
  uint64_t current_seq() const { return current_seq_; }
  size_t pending_events() const { return heap_.size() + wheel_size_; }
  uint64_t seed() const { return seed_; }

  // --- Continuous auditing -------------------------------------------------
  // Installs `hook` to run after every `every_n_events` processed events,
  // between event callbacks (never reentrantly inside one). At most one hook
  // may be installed; the invariant auditor uses this to check protocol
  // invariants continuously instead of only at quiescence.
  using AuditHook = std::function<void()>;
  void SetAuditHook(uint64_t every_n_events, AuditHook hook);
  void ClearAuditHook();

  // --- Observability -------------------------------------------------------
  // Per-simulation metrics registry, created lazily on first use. Components
  // reach it through their simulator pointer, so no constructor signature
  // changes anywhere.
  obs::MetricsRegistry& metrics();

  // Causal tracer. nullptr (the default) means tracing is off; the tracing
  // calls in src/obs/trace.h take it as is and reduce to this null check.
  obs::TraceRecorder* tracer() const { return tracer_.get(); }

  // Creates the trace recorder, clocked by this simulator's virtual time.
  // Idempotent; the recorder lives as long as the simulator.
  obs::TraceRecorder& EnableTracing();

  // --- Monitoring ----------------------------------------------------------
  // The health monitor and the obs timeline share one fixed tick: every
  // absolute multiple of obs::kMonitorPeriodUs, armed when the first of
  // them is enabled. The tick fires BETWEEN event callbacks, not through
  // the event queue: Run() still drains to quiescence, mc event
  // fingerprints are untouched, and a tick can never interleave inside a
  // protocol callback. Boundary B fires as soon as the clock reaches or
  // passes B (after the event that advanced it, or at RunUntil's final
  // advance) and ticks at B, the nominal boundary, no matter how lumpy the
  // event schedule is; when the clock jumps several periods at once, the
  // boundaries fire one at a time. Both are nullptr while disabled (the
  // default); enabling is idempotent and lasts for the simulator's life.
  obs::HealthMonitor* health_monitor() const { return health_monitor_.get(); }
  obs::HealthMonitor& EnableHealthMonitor();
  // Timeline snapshots carry health columns while the monitor is enabled.
  obs::TimelineRecorder* timeline() const { return timeline_.get(); }
  obs::TimelineRecorder& EnableTimeline();

  // One tick at `at`: the health monitor evaluates its detectors, then the
  // timeline captures, so a snapshot's health columns are as current as its
  // rows. The boundary schedule calls it; an exporter calls it once more at
  // now() to cover the tail of a run that ended between boundaries.
  void TickMonitors(TimeMicros at);

 private:
  friend class TimerOwner;

  static constexpr uint32_t kNoSlot = 0xffffffffu;
  // Slot::queue_pos of an event queued in the wheel.
  static constexpr uint32_t kInWheel = 0xfffffffeu;

  // The wheel covers the next kWheelSpan µs in one-µs buckets; an event at
  // `at` lives in bucket at & (kWheelSpan - 1). Every wheel event satisfies
  // now() <= at < now() + kWheelSpan — it did when it was queued, and the
  // clock never passes a pending event — so the span equals the window and
  // a bucket only ever holds events of one fire time. Appending in schedule
  // order keeps each bucket's FIFO in seq order, which makes the wheel's
  // order exactly the heap's (at, seq).
  static constexpr TimeMicros kWheelSpan = 4096;
  static constexpr uint32_t kWheelWords = kWheelSpan / 64;
  static_assert(kWheelWords == 64, "one summary word covers the bitmap");

  struct HeapEntry {
    TimeMicros at;
    uint64_t seq;
    uint32_t slot;
    friend bool operator<(const HeapEntry& a, const HeapEntry& b) {
      if (a.at != b.at) {
        return a.at < b.at;
      }
      return a.seq < b.seq;
    }
  };

  struct Slot {
    EventFn fn;
    TimeMicros at = 0;  // fire time of the pending event
    uint64_t seq = 0;   // its schedule order: ties at one instant fire by it
    uint32_t gen = 1;   // bumped on every release; stale ids mismatch
    // Index into heap_, or kInWheel, while the event is pending; kNoSlot
    // while free.
    uint32_t queue_pos = kNoSlot;
    // The next free slot while free; the next slot of its wheel bucket
    // while queued there.
    uint32_t next = kNoSlot;
    uint32_t wheel_prev = kNoSlot;
    // Intrusive list of the pending timers of one TimerOwner (null owner:
    // scheduled directly on the simulator).
    TimerOwner* owner = nullptr;
    uint32_t owner_prev = kNoSlot;
    uint32_t owner_next = kNoSlot;
  };

  struct Bucket {
    uint32_t head = kNoSlot;
    uint32_t tail = kNoSlot;
  };

  static TimerId EncodeId(uint32_t slot, uint32_t gen) {
    return (static_cast<uint64_t>(gen) << 32) |
           (static_cast<uint64_t>(slot) + 1);
  }
  static uint32_t SlotOf(TimerId id) {
    return static_cast<uint32_t>(id & 0xffffffffu) - 1;
  }

  // Schedules fn after delay and links its slot onto owner's list.
  TimerId ScheduleOwned(TimeMicros delay, EventFn fn, TimerOwner* owner);
  // The slot of the pending event `id` names, or kNoSlot if it already
  // fired or was cancelled.
  uint32_t PendingSlot(TimerId id) const;
  // Removes the pending event in `slot` from the queue and its owner's list
  // and recycles the slot; its callback is destroyed unrun.
  void CancelSlot(uint32_t slot);
  // Moves the pending event in `slot` to now() + delay under a fresh seq.
  void RescheduleSlot(uint32_t slot, TimeMicros delay);

  // Deferred work: the owner that deferred it (null once run or dropped)
  // and the callback.
  struct Deferred {
    TimerOwner* owner;
    EventFn fn;
  };
  void DrainDeferred();
  // Drops the deferred work of `owner`, unrun.
  void DropDeferred(TimerOwner* owner);

  uint32_t AcquireSlot();
  // Unlinks the slot from its owner, bumps the generation and returns the
  // slot to the free list. The slot's callback must already be moved out.
  void ReleaseSlot(uint32_t slot);

  // The slot of the earliest pending event by (at, seq), or kNoSlot.
  uint32_t NextSlot() const;
  // Takes the event in `slot` off its queue, recycles the slot and runs the
  // callback, then any due monitor tick and the audit hook.
  void Fire(uint32_t slot);
  // Queues the event in `slot`, whose at and seq are set, in the wheel or
  // the heap.
  void Enqueue(uint32_t slot);
  // Removes the pending event in `slot` from the wheel or the heap.
  void Unqueue(uint32_t slot);

  // Wheel primitives. NextBucket is the first occupied bucket at or after
  // now() in circular order; the wheel must not be empty.
  void WheelPush(uint32_t slot);
  void WheelRemove(uint32_t slot);
  uint32_t NextBucket() const;

  // Indexed-heap primitives: each keeps slots_[e.slot].queue_pos in step
  // with the entry's position.
  void HeapPlace(uint32_t pos, const HeapEntry& e) {
    heap_[pos] = e;
    slots_[e.slot].queue_pos = pos;
  }
  void SiftUp(uint32_t pos, HeapEntry e);
  void SiftDown(uint32_t pos, HeapEntry e);
  // Places e at heap position pos and restores the heap order around it.
  void HeapFix(uint32_t pos, const HeapEntry& e);
  // Removes the entry at heap position pos.
  void HeapRemove(uint32_t pos);

  TimeMicros now_ = 0;
  uint64_t seed_ = 0;
  Rng rng_;
  uint64_t next_seq_ = 1;
  uint64_t events_processed_ = 0;
  uint64_t current_seq_ = 0;  // seq of the event currently firing
  std::vector<HeapEntry> heap_;  // min-heap on (at, seq): events past the wheel
  std::vector<Slot> slots_;
  std::array<Bucket, kWheelSpan> buckets_{};
  // Bit b of occupied_[w] is set iff bucket 64w + b is non-empty; bit w of
  // occupied_summary_ iff occupied_[w] is non-zero.
  std::array<uint64_t, kWheelWords> occupied_{};
  uint64_t occupied_summary_ = 0;
  size_t wheel_size_ = 0;
  uint32_t free_head_ = kNoSlot;
  // Work deferred to the end of the current event, in Defer order; cleared
  // (keeping its capacity) by each drain.
  std::vector<Deferred> deferred_;

  // Fires every monitor boundary the clock has reached; one compare against
  // monitor_due_ otherwise.
  void RunMonitorTicks();
  // Arms the first boundary strictly after now, unless already armed.
  void ArmMonitorTick();

  uint64_t audit_every_ = 0;
  AuditHook audit_hook_;
  std::unique_ptr<obs::MetricsRegistry> metrics_;
  std::unique_ptr<obs::TraceRecorder> tracer_;
  std::unique_ptr<obs::HealthMonitor> health_monitor_;
  std::unique_ptr<obs::TimelineRecorder> timeline_;
  // Next monitor boundary; never reached while no monitor is enabled.
  TimeMicros monitor_due_ = std::numeric_limits<TimeMicros>::max();
};

// RAII owner of timers: cancels everything it scheduled, and drops the work
// it deferred, when destroyed.
// Every object that captures `this` in timer callbacks must route them
// through a TimerOwner member (declared last, so it is destroyed first),
// which makes node crash = object destruction safe.
class TimerOwner {
 public:
  explicit TimerOwner(Simulator* sim) : sim_(sim) {}
  ~TimerOwner() { CancelAll(); }

  TimerOwner(const TimerOwner&) = delete;
  TimerOwner& operator=(const TimerOwner&) = delete;

  // Schedules fn after delay; the pending event is auto-cancelled if this
  // owner is destroyed first.
  TimerId Schedule(TimeMicros delay, EventFn fn) {
    return sim_->ScheduleOwned(delay, std::move(fn), this);
  }

  // Cancels a pending timer of this owner. A no-op for an id that already
  // fired, was cancelled, or belongs to another owner.
  void Cancel(TimerId id);
  // Moves a pending timer of this owner to fire after `delay` (>= 0)
  // instead, keeping its id and callback; it fires in the order a Cancel
  // plus Schedule would give. Returns false, and does nothing, for an id
  // that already fired, was cancelled, or belongs to another owner.
  bool Reschedule(TimerId id, TimeMicros delay);
  // Runs fn once the current event's callback returns (before the monitor
  // tick and the audit hook), or, called outside any event, before the next
  // event fires. Not an event: events_processed() does not count it.
  void Defer(EventFn fn);
  // Cancels every pending timer of this owner and drops its deferred work.
  void CancelAll();

  Simulator* simulator() const { return sim_; }

 private:
  friend class Simulator;

  Simulator* sim_;
  uint32_t head_ = Simulator::kNoSlot;  // first slot of the pending list
  uint32_t deferred_ = 0;  // entries of this owner in sim_->deferred_
};

}  // namespace scatter::sim

#endif  // SCATTER_SRC_SIM_SIMULATOR_H_
