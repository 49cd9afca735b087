// Causal tracer: Dapper-style spans stamped with simulated time.
//
// A TraceContext (trace_id, span_id) identifies the active span; the network
// piggybacks it on every sim::Message and restores it around delivery, so a
// span opened on the client parents spans opened on the leader, which parent
// spans opened on followers — across nodes and Paxos groups. The simulator
// is single-threaded, so "active" is one ambient slot managed with
// save/restore guards (ScopedContext / ScopedSpan).
//
// Timestamps come from the same clock hook the logger uses (the simulator's
// virtual clock), so spans line up with log lines. Traces export as Chrome
// trace-event JSON: load the file in Perfetto (ui.perfetto.dev) or
// chrome://tracing. pid = node, tid = group.
//
// When no recorder is installed (Simulator::tracer() == nullptr) the
// instrumentation sites reduce to a pointer null-check and two zero-valued
// uint64 fields on each message.

#ifndef SCATTER_SRC_OBS_TRACE_H_
#define SCATTER_SRC_OBS_TRACE_H_

#include <cstdint>
#include <deque>
#include <string>
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

  // Opens a span as a child of the ambient context (a fresh root trace when
  // none is active). Does not change the ambient context; use ScopedSpan for
  // the common open-activate-close pattern.
  TraceContext StartSpan(const std::string& name, NodeId node, GroupId group);
  // Opens a span under an explicit parent (e.g. a context captured from a
  // delivered message or saved across a batching boundary).
  TraceContext StartSpanWithParent(const std::string& name, TraceContext parent,
                                   NodeId node, GroupId group);
  void EndSpan(TraceContext ctx);
  void Annotate(TraceContext ctx, const std::string& key,
                const std::string& value);

  // Point event attached to the ambient span (dropped when none is active,
  // so unsolicited log noise outside any traced operation stays out).
  void AddInstant(const std::string& name, NodeId node, GroupId group);

  // Point event recorded unconditionally, outside any trace (trace_id 0).
  // For cluster-level state transitions — health raises/clears — that must
  // land on the timeline even when no operation is in flight.
  void AddMarker(const std::string& name, NodeId node, GroupId group);

  TraceContext current() const { return current_; }
  void SetCurrent(TraceContext ctx) { current_ = ctx; }

  int64_t NowUs() const {
    return clock_ != nullptr ? clock_(clock_arg_) : 0;
  }

  // {"traceEvents":[...],"displayTimeUnit":"ms",
  //  "otherData":{"schema":"scatter.trace.v1"}}
  std::string ToChromeJson() const;

  const std::deque<Span>& spans() const { return spans_; }
  const std::deque<Instant>& instants() const { return instants_; }
  // nullptr when span_id is unknown.
  const Span* FindSpan(uint64_t span_id) const;

  // logging.h sink adapter: kTrace lines become instant events on the
  // ambient span. Install with SetLogSink(&TraceRecorder::LogSinkThunk, rec).
  static void LogSinkThunk(void* arg, LogLevel level, const char* file,
                           int line, const std::string& msg);

 private:
  ClockFn clock_;
  void* clock_arg_;
  uint64_t next_trace_id_ = 1;
  uint64_t next_span_id_ = 1;
  TraceContext current_;
  std::deque<Span> spans_;      // spans_[id - 1] is span `id`
  std::deque<Instant> instants_;
};

// Restores the previous ambient context on scope exit. A default-constructed
// (invalid) recorder/context is a no-op, so call sites do not need their own
// "is tracing on" branches.
class ScopedContext {
 public:
  ScopedContext(TraceRecorder* recorder, TraceContext ctx)
      : recorder_(recorder) {
    if (recorder_ != nullptr) {
      saved_ = recorder_->current();
      recorder_->SetCurrent(ctx);
    }
  }
  ~ScopedContext() {
    if (recorder_ != nullptr) {
      recorder_->SetCurrent(saved_);
    }
  }
  ScopedContext(const ScopedContext&) = delete;
  ScopedContext& operator=(const ScopedContext&) = delete;

 private:
  TraceRecorder* recorder_;
  TraceContext saved_;
};

// Opens a span as a child of the ambient context, makes it ambient, and
// ends + restores on scope exit. No-op when recorder is nullptr.
class ScopedSpan {
 public:
  ScopedSpan(TraceRecorder* recorder, const std::string& name, NodeId node,
             GroupId group)
      : recorder_(recorder) {
    if (recorder_ != nullptr) {
      saved_ = recorder_->current();
      ctx_ = recorder_->StartSpan(name, node, group);
      recorder_->SetCurrent(ctx_);
    }
  }
  ~ScopedSpan() {
    if (recorder_ != nullptr) {
      recorder_->EndSpan(ctx_);
      recorder_->SetCurrent(saved_);
    }
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  TraceContext context() const { return ctx_; }

 private:
  TraceRecorder* recorder_;
  TraceContext ctx_;
  TraceContext saved_;
};

}  // namespace scatter::obs

#endif  // SCATTER_SRC_OBS_TRACE_H_
