#include "src/verify/history.h"

#include <utility>

#include "src/common/logging.h"

namespace scatter::verify {

uint64_t HistoryRecorder::RecordInvoke(OpType type, Key key, Value value,
                                       TimeMicros now) {
  // Ids start at 1 and follow ops_ order, so op id N lives at ops_[N - 1].
  const uint64_t id = ops_.size() + 1;
  Operation op;
  op.op_id = id;
  op.type = type;
  op.key = key;
  op.value = std::move(value);
  op.invoked_at = now;
  op.outcome = Outcome::kPending;
  ops_.push_back(std::move(op));
  return id;
}

void HistoryRecorder::RecordComplete(uint64_t op_id, Outcome outcome,
                                     Value read_value, TimeMicros now) {
  if (closed_) {
    // The history is sealed: every op still pending at Close was already
    // marked indeterminate, which soundly covers any late outcome. A
    // completion arriving after the checker has run (e.g. an in-flight
    // client op finishing while a liveness goal steps the simulator)
    // carries no information and must not disturb the record.
    return;
  }
  SCATTER_CHECK(op_id >= 1 && op_id <= ops_.size());
  Operation& op = ops_[op_id - 1];
  SCATTER_CHECK(op.outcome == Outcome::kPending);
  op.outcome = outcome;
  op.completed_at = now;
  if (op.type == OpType::kRead && outcome == Outcome::kOk) {
    op.value = std::move(read_value);
  }
}

void HistoryRecorder::Close(TimeMicros now) {
  closed_ = true;
  for (Operation& op : ops_) {
    if (op.outcome == Outcome::kPending) {
      op.outcome = Outcome::kIndeterminate;
      op.completed_at = now;
    }
  }
}

std::map<Key, std::vector<Operation>> HistoryRecorder::PerKeyHistories()
    const {
  std::map<Key, std::vector<Operation>> out;
  for (const Operation& op : ops_) {
    if (op.type == OpType::kRead && (op.outcome == Outcome::kIndeterminate ||
                                     op.outcome == Outcome::kFailed ||
                                     op.outcome == Outcome::kPending)) {
      continue;  // An unanswered read constrains nothing.
    }
    out[op.key].push_back(op);
  }
  return out;
}

}  // namespace scatter::verify
