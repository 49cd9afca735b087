#include "src/sim/simulator.h"

#include <bit>
#include <utility>

#include "src/common/logging.h"
#include "src/obs/health.h"
#include "src/obs/metrics.h"
#include "src/obs/timeline.h"
#include "src/obs/trace.h"

namespace scatter::sim {
namespace {

int64_t SimClock(void* arg) {
  return static_cast<Simulator*>(arg)->now();
}

}  // namespace

Simulator::Simulator(uint64_t seed) : seed_(seed), rng_(seed) {
  SetLogClock(&SimClock, this);
}

Simulator::~Simulator() { SetLogClock(nullptr, nullptr); }

obs::MetricsRegistry& Simulator::metrics() {
  if (metrics_ == nullptr) {
    metrics_ = std::make_unique<obs::MetricsRegistry>();
  }
  return *metrics_;
}

obs::TraceRecorder& Simulator::EnableTracing() {
  if (tracer_ == nullptr) {
    // Same clock hook the logger uses: spans carry simulated time.
    tracer_ = std::make_unique<obs::TraceRecorder>(&SimClock, this);
  }
  return *tracer_;
}

void Simulator::ArmMonitorTick() {
  if (monitor_due_ == std::numeric_limits<TimeMicros>::max()) {
    monitor_due_ = (now_ / obs::kMonitorPeriodUs + 1) * obs::kMonitorPeriodUs;
  }
}

void Simulator::RunMonitorTicks() {
  while (now_ >= monitor_due_) {
    const TimeMicros due = monitor_due_;
    monitor_due_ += obs::kMonitorPeriodUs;
    TickMonitors(due);
  }
}

void Simulator::TickMonitors(TimeMicros at) {
  if (health_monitor_ != nullptr) {
    health_monitor_->Tick(at, tracer_.get());
  }
  if (timeline_ != nullptr) {
    timeline_->Capture(at, health_monitor_.get());
  }
}

obs::HealthMonitor& Simulator::EnableHealthMonitor() {
  if (health_monitor_ == nullptr) {
    health_monitor_ = std::make_unique<obs::HealthMonitor>(&metrics());
    ArmMonitorTick();
  }
  return *health_monitor_;
}

obs::TimelineRecorder& Simulator::EnableTimeline() {
  if (timeline_ == nullptr) {
    timeline_ = std::make_unique<obs::TimelineRecorder>(&metrics());
    ArmMonitorTick();
  }
  return *timeline_;
}

uint32_t Simulator::AcquireSlot() {
  if (free_head_ != kNoSlot) {
    const uint32_t slot = free_head_;
    free_head_ = slots_[slot].next;
    return slot;
  }
  SCATTER_CHECK(slots_.size() < kInWheel);
  slots_.emplace_back();
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulator::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  if (s.owner != nullptr) {
    if (s.owner_prev != kNoSlot) {
      slots_[s.owner_prev].owner_next = s.owner_next;
    } else {
      s.owner->head_ = s.owner_next;
    }
    if (s.owner_next != kNoSlot) {
      slots_[s.owner_next].owner_prev = s.owner_prev;
    }
    s.owner = nullptr;
  }
  s.gen++;
  s.queue_pos = kNoSlot;
  s.next = free_head_;
  free_head_ = slot;
}

void Simulator::WheelPush(uint32_t slot) {
  Slot& s = slots_[slot];
  const uint32_t b = static_cast<uint32_t>(s.at & (kWheelSpan - 1));
  Bucket& bucket = buckets_[b];
  s.queue_pos = kInWheel;
  s.next = kNoSlot;
  s.wheel_prev = bucket.tail;
  if (bucket.tail != kNoSlot) {
    slots_[bucket.tail].next = slot;
  } else {
    bucket.head = slot;
    occupied_[b >> 6] |= uint64_t{1} << (b & 63);
    occupied_summary_ |= uint64_t{1} << (b >> 6);
  }
  bucket.tail = slot;
  wheel_size_++;
}

void Simulator::WheelRemove(uint32_t slot) {
  const Slot& s = slots_[slot];
  const uint32_t b = static_cast<uint32_t>(s.at & (kWheelSpan - 1));
  Bucket& bucket = buckets_[b];
  if (s.wheel_prev != kNoSlot) {
    slots_[s.wheel_prev].next = s.next;
  } else {
    bucket.head = s.next;
  }
  if (s.next != kNoSlot) {
    slots_[s.next].wheel_prev = s.wheel_prev;
  } else {
    bucket.tail = s.wheel_prev;
  }
  if (bucket.head == kNoSlot) {
    occupied_[b >> 6] &= ~(uint64_t{1} << (b & 63));
    if (occupied_[b >> 6] == 0) {
      occupied_summary_ &= ~(uint64_t{1} << (b >> 6));
    }
  }
  wheel_size_--;
}

uint32_t Simulator::NextBucket() const {
  const uint32_t start = static_cast<uint32_t>(now_ & (kWheelSpan - 1));
  const uint32_t w = start >> 6;
  // Buckets at or after `start` in its own word.
  const uint64_t here = occupied_[w] & (~uint64_t{0} << (start & 63));
  if (here != 0) {
    return (w << 6) | static_cast<uint32_t>(std::countr_zero(here));
  }
  // Later words, then wrap around to the first occupied word (which may be
  // w itself, holding buckets before `start`: the far end of the window).
  const uint64_t later = occupied_summary_ & ~((uint64_t{2} << w) - 1);
  const uint64_t words = later != 0 ? later : occupied_summary_;
  const uint32_t w2 = static_cast<uint32_t>(std::countr_zero(words));
  return (w2 << 6) | static_cast<uint32_t>(std::countr_zero(occupied_[w2]));
}

uint32_t Simulator::NextSlot() const {
  uint32_t best = kNoSlot;
  if (wheel_size_ != 0) {
    best = buckets_[NextBucket()].head;
  }
  if (!heap_.empty()) {
    const HeapEntry& top = heap_[0];
    if (best == kNoSlot ||
        top < HeapEntry{slots_[best].at, slots_[best].seq, best}) {
      best = top.slot;
    }
  }
  return best;
}

void Simulator::Enqueue(uint32_t slot) {
  const Slot& s = slots_[slot];
  if (s.at - now_ < kWheelSpan) {
    WheelPush(slot);
  } else {
    heap_.emplace_back();
    SiftUp(static_cast<uint32_t>(heap_.size() - 1),
           HeapEntry{s.at, s.seq, slot});
  }
}

void Simulator::Unqueue(uint32_t slot) {
  if (slots_[slot].queue_pos == kInWheel) {
    WheelRemove(slot);
  } else {
    HeapRemove(slots_[slot].queue_pos);
  }
}

void Simulator::SiftUp(uint32_t pos, HeapEntry e) {
  while (pos > 0) {
    const uint32_t parent = (pos - 1) / 2;
    if (!(e < heap_[parent])) {
      break;
    }
    HeapPlace(pos, heap_[parent]);
    pos = parent;
  }
  HeapPlace(pos, e);
}

void Simulator::SiftDown(uint32_t pos, HeapEntry e) {
  const uint32_t n = static_cast<uint32_t>(heap_.size());
  for (;;) {
    uint32_t child = 2 * pos + 1;
    if (child >= n) {
      break;
    }
    if (child + 1 < n && heap_[child + 1] < heap_[child]) {
      child++;
    }
    if (!(heap_[child] < e)) {
      break;
    }
    HeapPlace(pos, heap_[child]);
    pos = child;
  }
  HeapPlace(pos, e);
}

void Simulator::HeapFix(uint32_t pos, const HeapEntry& e) {
  if (pos > 0 && e < heap_[(pos - 1) / 2]) {
    SiftUp(pos, e);
  } else {
    SiftDown(pos, e);
  }
}

void Simulator::HeapRemove(uint32_t pos) {
  const HeapEntry last = heap_.back();
  heap_.pop_back();
  if (pos == heap_.size()) {
    return;  // removed the last element itself
  }
  HeapFix(pos, last);
}

TimerId Simulator::Schedule(TimeMicros delay, EventFn fn) {
  SCATTER_CHECK(delay >= 0);
  return ScheduleAt(now_ + delay, std::move(fn));
}

TimerId Simulator::ScheduleAt(TimeMicros when, EventFn fn) {
  SCATTER_CHECK(when >= now_);
  const uint32_t slot = AcquireSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.at = when;
  s.seq = next_seq_++;
  Enqueue(slot);
  return EncodeId(slot, s.gen);
}

TimerId Simulator::ScheduleOwned(TimeMicros delay, EventFn fn,
                                 TimerOwner* owner) {
  const TimerId id = Schedule(delay, std::move(fn));
  const uint32_t slot = SlotOf(id);
  Slot& s = slots_[slot];
  s.owner = owner;
  s.owner_prev = kNoSlot;
  s.owner_next = owner->head_;
  if (owner->head_ != kNoSlot) {
    slots_[owner->head_].owner_prev = slot;
  }
  owner->head_ = slot;
  return id;
}

uint32_t Simulator::PendingSlot(TimerId id) const {
  const uint32_t slot = SlotOf(id);
  const uint32_t gen = static_cast<uint32_t>(id >> 32);
  if (id == kInvalidTimer || slot >= slots_.size() ||
      slots_[slot].gen != gen || slots_[slot].queue_pos == kNoSlot) {
    return kNoSlot;
  }
  return slot;
}

void Simulator::CancelSlot(uint32_t slot) {
  Unqueue(slot);
  // Destroy the callback only once the slot is back on the free list: its
  // captures may own TimerOwners whose destructors cancel more events.
  EventFn dead = std::move(slots_[slot].fn);
  ReleaseSlot(slot);
}

void Simulator::RescheduleSlot(uint32_t slot, TimeMicros delay) {
  SCATTER_CHECK(delay >= 0);
  Slot& s = slots_[slot];
  if (s.queue_pos != kInWheel && delay >= kWheelSpan) {
    // Heap to heap: re-sift the entry where it stands.
    s.at = now_ + delay;
    s.seq = next_seq_++;
    HeapFix(s.queue_pos, HeapEntry{s.at, s.seq, slot});
    return;
  }
  Unqueue(slot);  // the wheel finds the bucket by the old fire time
  s.at = now_ + delay;
  s.seq = next_seq_++;
  Enqueue(slot);
}

void Simulator::Cancel(TimerId id) {
  const uint32_t slot = PendingSlot(id);
  if (slot != kNoSlot) {
    CancelSlot(slot);
  }
}

void Simulator::Fire(uint32_t slot) {
  Unqueue(slot);
  // Move the callback out and recycle the slot *before* firing, so the
  // callback can freely schedule new events (possibly reusing this slot
  // under a fresh generation) or destroy the timer's owner.
  Slot& s = slots_[slot];
  SCATTER_CHECK(s.at >= now_);
  now_ = s.at;
  current_seq_ = s.seq;
  EventFn fn = std::move(s.fn);
  ReleaseSlot(slot);
  events_processed_++;
  fn();
  RunDeferred();
  // The monitor tick runs before the audit hook so an auditor that reads
  // health state sees detections up to the current instant.
  RunMonitorTicks();
  if (audit_hook_ && events_processed_ % audit_every_ == 0) {
    audit_hook_();
  }
}

bool Simulator::Step() {
  RunDeferred();
  const uint32_t slot = NextSlot();
  if (slot == kNoSlot) {
    return false;
  }
  Fire(slot);
  return true;
}

void Simulator::SetAuditHook(uint64_t every_n_events, AuditHook hook) {
  SCATTER_CHECK(every_n_events > 0);
  SCATTER_CHECK(!audit_hook_);  // one auditor per simulator
  audit_every_ = every_n_events;
  audit_hook_ = std::move(hook);
}

void Simulator::ClearAuditHook() {
  audit_every_ = 0;
  audit_hook_ = nullptr;
}

void Simulator::Run() {
  while (Step()) {
  }
}

void Simulator::RunUntil(TimeMicros t) {
  SCATTER_CHECK(t >= now_);
  RunDeferred();
  for (uint32_t slot = NextSlot(); slot != kNoSlot && slots_[slot].at <= t;
       slot = NextSlot()) {
    Fire(slot);
  }
  now_ = t;
  RunMonitorTicks();  // boundaries crossed by the final clock advance
}

void Simulator::DrainDeferred() {
  // Indexed, not iterated: deferred work may defer more, which appends.
  for (size_t i = 0; i < deferred_.size(); ++i) {
    Deferred& d = deferred_[i];
    if (d.owner == nullptr) {
      continue;  // dropped with its owner
    }
    d.owner->deferred_--;
    d.owner = nullptr;
    EventFn fn = std::move(d.fn);
    fn();
  }
  deferred_.clear();
}

void Simulator::DropDeferred(TimerOwner* owner) {
  for (size_t i = 0; i < deferred_.size(); ++i) {
    if (deferred_[i].owner == owner) {
      deferred_[i].owner = nullptr;
      // Destroyed outside the vector: its captures may own TimerOwners.
      EventFn dead = std::move(deferred_[i].fn);
    }
  }
  owner->deferred_ = 0;
}

void TimerOwner::Defer(EventFn fn) {
  sim_->deferred_.push_back(Simulator::Deferred{this, std::move(fn)});
  deferred_++;
}

void TimerOwner::Cancel(TimerId id) {
  const uint32_t slot = sim_->PendingSlot(id);
  if (slot != Simulator::kNoSlot && sim_->slots_[slot].owner == this) {
    sim_->CancelSlot(slot);
  }
}

bool TimerOwner::Reschedule(TimerId id, TimeMicros delay) {
  const uint32_t slot = sim_->PendingSlot(id);
  if (slot == Simulator::kNoSlot || sim_->slots_[slot].owner != this) {
    return false;
  }
  sim_->RescheduleSlot(slot, delay);
  return true;
}

void TimerOwner::CancelAll() {
  while (head_ != Simulator::kNoSlot) {
    sim_->CancelSlot(head_);
  }
  if (deferred_ != 0) {
    sim_->DropDeferred(this);
  }
}

}  // namespace scatter::sim
