#include "src/workload/workload.h"

#include <utility>

#include "src/common/hash.h"
#include "src/sim/simulator.h"
#include "src/common/logging.h"
#include "src/obs/trace.h"

namespace scatter::workload {

WorkloadDriver::WorkloadDriver(sim::Simulator* sim,
                               std::vector<KvClient*> clients,
                               const WorkloadConfig& config)
    : sim_(sim),
      cfg_(config),
      clients_(std::move(clients)),
      rng_(sim->rng().Fork()),
      zipf_(config.key_space, config.zipf_s) {
  client_op_counter_.assign(clients_.size(), 0);
}

Key WorkloadDriver::KeyForRank(uint64_t rank) const {
  if (cfg_.clustered_keys) {
    // Pack the whole population into ~1/16 of the ring, evenly spaced.
    const Key arc = ~uint64_t{0} / 16;
    return arc / 2 + rank * (arc / std::max<uint64_t>(cfg_.key_space, 1));
  }
  return KeyFromString("key" + std::to_string(rank));
}

void WorkloadDriver::Start() {
  SCATTER_CHECK(!running_);
  SCATTER_CHECK(!clients_.empty());
  running_ = true;
  for (size_t i = 0; i < clients_.size(); ++i) {
    // Stagger client starts a little to avoid a thundering herd at t=0.
    const TimeMicros jitter = rng_.Range(0, Millis(20));
    sim_->Schedule(jitter, [this, i]() { IssueOne(i); });
  }
}

void WorkloadDriver::Stop() { running_ = false; }

void WorkloadDriver::IssueOne(size_t client_index) {
  if (!running_) {
    return;
  }
  KvClient* client = clients_[client_index];
  const uint64_t rank = zipf_.Sample(rng_);
  const Key key = KeyForRank(rank);
  const bool is_write = rng_.Bernoulli(cfg_.write_fraction);
  const TimeMicros start = sim_->now();

  auto next = [this, client_index]() {
    if (!running_) {
      return;
    }
    if (cfg_.think_time > 0) {
      sim_->Schedule(cfg_.think_time,
                     [this, client_index]() { IssueOne(client_index); });
    } else {
      IssueOne(client_index);
    }
  };

  if (is_write) {
    const uint64_t seq = ++client_op_counter_[client_index];
    const bool is_delete = rng_.Bernoulli(cfg_.delete_fraction);
    // Globally unique value: (client id, op counter). A delete is recorded
    // as a tombstone write (empty value) for the checker.
    Value value = is_delete ? Value()
                            : "v" + std::to_string(client->KvClientId()) +
                                  ":" + std::to_string(seq);
    uint64_t op_id = 0;
    if (cfg_.record_history) {
      op_id = history_.RecordInvoke(verify::OpType::kWrite, key, value, start);
    }
    // Root span of the whole operation tree (client -> node -> paxos).
    const obs::TraceContext op_span = obs::StartSpanWithParent(
        sim_->tracer(), is_delete ? "workload.delete" : "workload.put",
        obs::TraceContext{}, client->KvClientId(), 0);
    auto complete = [this, op_id, start, op_span,
                     next = std::move(next)](Status s) {
      const TimeMicros now = sim_->now();
      if (s.ok()) {
        stats_.writes_ok++;
        stats_.write_latency.Record(now - start);
      } else {
        stats_.writes_failed++;
      }
      obs::EndSpan(sim_->tracer(), op_span);
      if (cfg_.record_history && op_id != 0) {
        // A timed-out write is indeterminate: it may still apply later.
        history_.RecordComplete(op_id,
                                s.ok() ? verify::Outcome::kOk
                                       : verify::Outcome::kIndeterminate,
                                Value(), now);
      }
      next();
    };
    obs::ScopedContext trace_scope(sim_->tracer(), op_span);
    if (is_delete) {
      client->KvDelete(key, std::move(complete));
    } else {
      client->KvPut(key, std::move(value), std::move(complete));
    }
    return;
  }

  uint64_t op_id = 0;
  if (cfg_.record_history) {
    op_id = history_.RecordInvoke(verify::OpType::kRead, key, Value(), start);
  }
  const obs::TraceContext op_span =
      obs::StartSpanWithParent(sim_->tracer(), "workload.get",
                               obs::TraceContext{}, client->KvClientId(), 0);
  obs::ScopedContext trace_scope(sim_->tracer(), op_span);
  client->KvGet(key, [this, op_id, start, op_span,
                      next = std::move(next)](StatusOr<Value> result) {
    const TimeMicros now = sim_->now();
    verify::Outcome outcome;
    Value value;
    if (result.ok()) {
      stats_.reads_ok++;
      stats_.read_latency.Record(now - start);
      outcome = verify::Outcome::kOk;
      value = std::move(result).value();
    } else if (result.status().code() == StatusCode::kNotFound) {
      stats_.reads_ok++;
      stats_.read_latency.Record(now - start);
      outcome = verify::Outcome::kNotFound;
    } else {
      stats_.reads_failed++;
      outcome = verify::Outcome::kIndeterminate;  // Unanswered read.
    }
    obs::EndSpan(sim_->tracer(), op_span);
    if (cfg_.record_history && op_id != 0) {
      history_.RecordComplete(op_id, outcome, std::move(value), now);
    }
    next();
  });
}

}  // namespace scatter::workload
