// Causal tracer: Dapper-style spans stamped with simulated time.
//
// A TraceContext (trace_id, span_id) identifies the active span; the network
// piggybacks it on every sim::Message and restores it around delivery, so a
// span opened on the client parents spans opened on the leader, which parent
// spans opened on followers — across nodes and Paxos groups. The simulator
// is single-threaded, so "active" is one ambient slot managed with a
// save/restore guard (ScopedContext).
//
// Timestamps come from the same clock hook the logger uses (the simulator's
// virtual clock), so spans line up with log lines. Traces export as Chrome
// trace-event JSON: load the file in Perfetto (ui.perfetto.dev) or
// chrome://tracing. pid = node, tid = group.
//
// Instrumentation goes through the free functions below (StartSpan,
// EndSpan, Annotate, ...). Each takes the simulator's recorder as is:
// nullptr means tracing is off, and the call is then one inline compare
// that records and formats nothing. Calls on an invalid context are no-ops
// too, so call sites never guard the recorder themselves.

#ifndef SCATTER_SRC_OBS_TRACE_H_
#define SCATTER_SRC_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "src/common/logging.h"
#include "src/common/types.h"

namespace scatter::obs {

// Wire format of the piggybacked context: two uint64 fields on sim::Message.
// trace_id == 0 means "no context"; span ids are assigned from 1.
struct TraceContext {
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  bool valid() const { return trace_id != 0; }
};

class TraceRecorder {
 public:
  struct Span {
    uint64_t trace_id = 0;
    uint64_t span_id = 0;
    uint64_t parent_span_id = 0;  // 0 = root
    std::string name;
    NodeId node = 0;
    GroupId group = 0;
    int64_t start_us = 0;
    int64_t end_us = 0;
    bool open = true;
    std::vector<std::pair<std::string, std::string>> args;
  };

  struct Instant {
    uint64_t trace_id = 0;
    uint64_t parent_span_id = 0;
    std::string name;
    NodeId node = 0;
    GroupId group = 0;
    int64_t ts_us = 0;
  };

  // `clock` supplies timestamps (the simulator passes its virtual clock);
  // nullptr stamps everything 0.
  TraceRecorder(ClockFn clock, void* clock_arg)
      : clock_(clock), clock_arg_(clock_arg) {}

  // The ambient context (invalid when no span is active).
  TraceContext current() const { return current_; }

  // {"traceEvents":[...],"displayTimeUnit":"ms",
  //  "otherData":{"schema":"scatter.trace.v1"}}
  std::string ToChromeJson() const;

  const std::deque<Span>& spans() const { return spans_; }
  const std::deque<Instant>& instants() const { return instants_; }
  // nullptr when span_id is unknown.
  const Span* FindSpan(uint64_t span_id) const;

 private:
  friend TraceContext StartSpan(TraceRecorder*, std::string_view, NodeId,
                                GroupId);
  friend TraceContext StartSpanWithParent(TraceRecorder*, std::string_view,
                                          TraceContext, NodeId, GroupId);
  friend void EndSpan(TraceRecorder*, TraceContext);
  friend void Annotate(TraceRecorder*, TraceContext, std::string_view,
                       std::string_view);
  friend void Annotate(TraceRecorder*, TraceContext, std::string_view,
                       uint64_t);
  friend void AddInstant(TraceRecorder*, std::string_view, NodeId, GroupId);
  friend void AddMarker(TraceRecorder*, std::string_view, NodeId, GroupId);
  friend class ScopedContext;

  // The recording halves of the calls below; each runs on a live recorder.
  TraceContext OpenSpan(std::string_view name, TraceContext parent,
                        NodeId node, GroupId group);
  void CloseSpan(TraceContext ctx);
  void AddArg(TraceContext ctx, std::string_view key, std::string value);
  void RecordInstant(TraceContext parent, std::string_view name, NodeId node,
                     GroupId group);
  int64_t NowUs() const {
    return clock_ != nullptr ? clock_(clock_arg_) : 0;
  }

  ClockFn clock_;
  void* clock_arg_;
  uint64_t next_trace_id_ = 1;
  uint64_t next_span_id_ = 1;
  TraceContext current_;
  std::deque<Span> spans_;      // spans_[id - 1] is span `id`
  std::deque<Instant> instants_;
};

// --- Tracing calls ----------------------------------------------------------
// `recorder` may be nullptr (tracing off): every call is then a no-op, as is
// every call on an invalid context.

// Opens a span as a child of the ambient context (a fresh root trace when
// none is active). Does not change the ambient context; a ScopedContext
// does that. Returns an invalid context when tracing is off.
inline TraceContext StartSpan(TraceRecorder* recorder, std::string_view name,
                              NodeId node, GroupId group) {
  return recorder != nullptr
             ? recorder->OpenSpan(name, recorder->current_, node, group)
             : TraceContext{};
}

// Opens a span under an explicit parent (a context captured from a
// delivered message or saved across a batching boundary); an invalid
// parent opens a fresh root trace.
inline TraceContext StartSpanWithParent(TraceRecorder* recorder,
                                        std::string_view name,
                                        TraceContext parent, NodeId node,
                                        GroupId group) {
  return recorder != nullptr ? recorder->OpenSpan(name, parent, node, group)
                             : TraceContext{};
}

// Closes the span; closing it again is harmless.
inline void EndSpan(TraceRecorder* recorder, TraceContext ctx) {
  if (recorder != nullptr && ctx.valid()) {
    recorder->CloseSpan(ctx);
  }
}

// Adds a key/value argument to the span.
inline void Annotate(TraceRecorder* recorder, TraceContext ctx,
                     std::string_view key, std::string_view value) {
  if (recorder != nullptr && ctx.valid()) {
    recorder->AddArg(ctx, key, std::string(value));
  }
}

// As above, formatting `value` in decimal only while recording.
inline void Annotate(TraceRecorder* recorder, TraceContext ctx,
                     std::string_view key, uint64_t value) {
  if (recorder != nullptr && ctx.valid()) {
    recorder->AddArg(ctx, key, std::to_string(value));
  }
}

// Point event attached to the ambient span (dropped when none is active,
// so events outside any traced operation stay out).
inline void AddInstant(TraceRecorder* recorder, std::string_view name,
                       NodeId node, GroupId group) {
  if (recorder != nullptr && recorder->current_.valid()) {
    recorder->RecordInstant(recorder->current_, name, node, group);
  }
}

// Point event recorded outside any trace (trace_id 0). For cluster-level
// state transitions — health raises/clears — that must land on the
// timeline even when no operation is in flight.
inline void AddMarker(TraceRecorder* recorder, std::string_view name,
                      NodeId node, GroupId group) {
  if (recorder != nullptr) {
    recorder->RecordInstant(TraceContext{}, name, node, group);
  }
}

// The ambient context, or an invalid one when tracing is off.
inline TraceContext Ambient(const TraceRecorder* recorder) {
  return recorder != nullptr ? recorder->current() : TraceContext{};
}

// Makes `ctx` ambient and restores the previous context on scope exit. A
// no-op unless the recorder is non-null and the context valid, so call
// sites pass what they have.
class ScopedContext {
 public:
  ScopedContext(TraceRecorder* recorder, TraceContext ctx)
      : recorder_(ctx.valid() ? recorder : nullptr) {
    if (recorder_ != nullptr) {
      saved_ = recorder_->current_;
      recorder_->current_ = ctx;
    }
  }
  ~ScopedContext() {
    if (recorder_ != nullptr) {
      recorder_->current_ = saved_;
    }
  }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  TraceRecorder* recorder_;
  TraceContext saved_;
};

}  // namespace scatter::obs

#endif  // SCATTER_SRC_OBS_TRACE_H_
