// Client-observed operation histories, recorded for linearizability
// checking and availability accounting.
//
// The recorder sits between the workload and the client library: every
// logical operation is recorded at invocation and completion with the
// simulator's virtual timestamps. Written values must be globally unique
// (the workload encodes client+sequence into each value), which is what
// makes per-key checking tractable.

#ifndef SCATTER_SRC_VERIFY_HISTORY_H_
#define SCATTER_SRC_VERIFY_HISTORY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/common/types.h"

namespace scatter::verify {

enum class OpType : uint8_t { kRead, kWrite };

// Final disposition of a logical operation.
enum class Outcome : uint8_t {
  kPending,       // not yet completed (at history close: indeterminate)
  kOk,            // definite success
  kNotFound,      // read: definite success with "no value"
  kFailed,        // definite failure (server recorded rejection; not applied)
  kIndeterminate, // timeout: a write may or may not have applied
};

struct Operation {
  uint64_t op_id = 0;
  OpType type = OpType::kRead;
  Key key = 0;
  Value value;  // written value, or value returned by a read
  TimeMicros invoked_at = 0;
  TimeMicros completed_at = 0;
  Outcome outcome = Outcome::kPending;
};

class HistoryRecorder {
 public:
  // Returns the op id to pass to Complete.
  uint64_t RecordInvoke(OpType type, Key key, Value value, TimeMicros now);

  void RecordComplete(uint64_t op_id, Outcome outcome, Value read_value,
                      TimeMicros now);

  // Marks still-pending operations indeterminate and seals the history
  // (call once at the end of a run before checking). Completions arriving
  // after Close are ignored — the indeterminate mark already soundly
  // covers them.
  void Close(TimeMicros now);

  // Operations grouped per key (reads with kIndeterminate are dropped:
  // an unanswered read constrains nothing).
  std::map<Key, std::vector<Operation>> PerKeyHistories() const;

  size_t total_ops() const { return ops_.size(); }
  const std::vector<Operation>& ops() const { return ops_; }

 private:
  std::vector<Operation> ops_;
  bool closed_ = false;
};

}  // namespace scatter::verify

#endif  // SCATTER_SRC_VERIFY_HISTORY_H_
