#include "src/obs/trace.h"

#include "src/common/json.h"

namespace scatter::obs {

TraceContext TraceRecorder::OpenSpan(std::string_view name,
                                     TraceContext parent, NodeId node,
                                     GroupId group) {
  Span span;
  span.trace_id = parent.valid() ? parent.trace_id : next_trace_id_++;
  span.span_id = next_span_id_++;
  span.parent_span_id = parent.valid() ? parent.span_id : 0;
  span.name = name;
  span.node = node;
  span.group = group;
  span.start_us = NowUs();
  span.end_us = span.start_us;
  spans_.push_back(std::move(span));
  return TraceContext{spans_.back().trace_id, spans_.back().span_id};
}

void TraceRecorder::CloseSpan(TraceContext ctx) {
  if (ctx.span_id == 0 || ctx.span_id > spans_.size()) {
    return;
  }
  Span& span = spans_[ctx.span_id - 1];
  if (!span.open) {
    return;
  }
  span.end_us = NowUs();
  span.open = false;
}

void TraceRecorder::AddArg(TraceContext ctx, std::string_view key,
                           std::string value) {
  if (ctx.span_id == 0 || ctx.span_id > spans_.size()) {
    return;
  }
  spans_[ctx.span_id - 1].args.emplace_back(key, std::move(value));
}

void TraceRecorder::RecordInstant(TraceContext parent, std::string_view name,
                                  NodeId node, GroupId group) {
  Instant inst;
  inst.trace_id = parent.trace_id;
  inst.parent_span_id = parent.span_id;
  inst.name = name;
  inst.node = node;
  inst.group = group;
  inst.ts_us = NowUs();
  instants_.push_back(std::move(inst));
}

const TraceRecorder::Span* TraceRecorder::FindSpan(uint64_t span_id) const {
  if (span_id == 0 || span_id > spans_.size()) {
    return nullptr;
  }
  return &spans_[span_id - 1];
}

std::string TraceRecorder::ToChromeJson() const {
  std::string out = "{\"traceEvents\":[";
  bool first = true;
  for (const Span& span : spans_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    json::AppendString(&out, span.name);
    out += ",\"ph\":\"X\",";
    json::AppendI64(&out, "ts", span.start_us);
    out += ",";
    // Perfetto treats dur<=0 complete events poorly; clamp to 1us so every
    // span stays visible. The exact times remain in ts and args.
    const int64_t dur =
        span.end_us > span.start_us ? span.end_us - span.start_us : 1;
    json::AppendI64(&out, "dur", dur);
    out += ",";
    json::AppendU64(&out, "pid", span.node);
    out += ",";
    json::AppendU64(&out, "tid", span.group);
    out += ",\"args\":{";
    json::AppendU64(&out, "trace_id", span.trace_id);
    out += ",";
    json::AppendU64(&out, "span_id", span.span_id);
    out += ",";
    json::AppendU64(&out, "parent_span_id", span.parent_span_id);
    out += ",";
    json::AppendU64(&out, "node", span.node);
    out += ",";
    json::AppendU64(&out, "group", span.group);
    if (span.open) {
      out += ",\"open\":true";
    }
    for (const auto& [key, value] : span.args) {
      out += ",";
      json::AppendString(&out, key);
      out += ":";
      json::AppendString(&out, value);
    }
    out += "}}";
  }
  for (const Instant& inst : instants_) {
    if (!first) out += ",";
    first = false;
    out += "{\"name\":";
    json::AppendString(&out, inst.name);
    out += ",\"ph\":\"i\",\"s\":\"t\",";
    json::AppendI64(&out, "ts", inst.ts_us);
    out += ",";
    json::AppendU64(&out, "pid", inst.node);
    out += ",";
    json::AppendU64(&out, "tid", inst.group);
    out += ",\"args\":{";
    json::AppendU64(&out, "trace_id", inst.trace_id);
    out += ",";
    json::AppendU64(&out, "parent_span_id", inst.parent_span_id);
    out += "}}";
  }
  out += "],\"displayTimeUnit\":\"ms\","
         "\"otherData\":{\"schema\":\"scatter.trace.v1\"}}";
  return out;
}

}  // namespace scatter::obs
