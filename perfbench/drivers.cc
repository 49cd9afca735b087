#include "perfbench/drivers.h"

#include <algorithm>
#include <memory>
#include <string>
#include <utility>

#include "src/common/hash.h"
#include "src/common/logging.h"
#include "src/workload/chirpchat.h"

namespace perfbench {

namespace verify = scatter::verify;
using scatter::Status;
using scatter::StatusCode;
using scatter::StatusOr;
using scatter::Value;

LoadDriver::LoadDriver(scatter::core::Cluster* cluster,
                       std::vector<scatter::core::Client*> clients,
                       const LoadConfig& config, uint64_t seed)
    : cluster_(cluster),
      clients_(std::move(clients)),
      cfg_(config),
      rng_(seed),
      zipf_(config.keys, config.zipf_s),
      write_seq_(clients_.size(), 0) {
  SCATTER_CHECK(!clients_.empty());
  for (size_t c = clients_.size(); c-- > 0;) {
    idle_.push_back(c);
  }
}

Key LoadDriver::KeyFor(uint64_t rank) const {
  if (cfg_.mix == LoadConfig::Mix::kChirp) {
    return scatter::workload::ChirpChatDriver::WallKey(rank);
  }
  return scatter::KeyFromString("key" + std::to_string(rank));
}

uint64_t LoadDriver::SampleRank() { return zipf_.Sample(rng_); }

TimeMicros LoadDriver::now() const { return cluster_->sim().now(); }

void LoadDriver::PreloadNext(size_t client) {
  if (preload_next_ >= cfg_.keys) {
    return;
  }
  const uint64_t rank = preload_next_++;
  const Key key = KeyFor(rank);
  Value value = "pre:" + std::to_string(rank);
  const uint64_t op_id =
      cfg_.record_history
          ? history_.RecordInvoke(verify::OpType::kWrite, key, value, now())
          : 0;
  clients_[client]->Put(key, std::move(value), [this, client, op_id](Status s) {
    if (op_id != 0) {
      history_.RecordComplete(
          op_id, s.ok() ? verify::Outcome::kOk : verify::Outcome::kIndeterminate,
          Value(), now());
    }
    if (s.ok()) {
      preload_acked_++;
    } else {
      preload_failed_ = true;
    }
    PreloadNext(client);
  });
}

bool LoadDriver::Preload(TimeMicros budget) {
  for (size_t c = 0; c < clients_.size(); ++c) {
    PreloadNext(c);
  }
  const TimeMicros deadline = now() + budget;
  while (preload_acked_ < cfg_.keys && !preload_failed_ && now() < deadline) {
    cluster_->sim().RunFor(scatter::Millis(50));
  }
  return preload_acked_ == cfg_.keys && !preload_failed_;
}

void LoadDriver::Start() {
  SCATTER_CHECK(!running_);
  running_ = true;
  if (cfg_.open_rate > 0) {
    Arrive();
    return;
  }
  for (size_t c = 0; c < clients_.size(); ++c) {
    // Stagger the loops so the clients do not start in lockstep.
    cluster_->sim().Schedule(rng_.Range(0, scatter::Millis(20)),
                             [this, c]() { IssueClosed(c); });
  }
}

void LoadDriver::Stop() {
  running_ = false;
  backlog_.clear();
}

void LoadDriver::IssueClosed(size_t client) {
  if (!running_) {
    return;
  }
  Issue(client, now(), [this, client]() {
    if (running_) {
      cluster_->sim().Schedule(cfg_.think,
                               [this, client]() { IssueClosed(client); });
    }
  });
}

void LoadDriver::Arrive() {
  if (!running_) {
    return;
  }
  backlog_.push_back(now());
  stats_.backlog_peak = std::max(stats_.backlog_peak, backlog_.size());
  Dispatch();
  const auto gap =
      static_cast<TimeMicros>(rng_.Exponential(1e6 / cfg_.open_rate));
  cluster_->sim().Schedule(gap, [this]() { Arrive(); });
}

void LoadDriver::Dispatch() {
  while (running_ && !backlog_.empty() && !idle_.empty()) {
    const size_t client = idle_.back();
    idle_.pop_back();
    const TimeMicros due = backlog_.front();
    backlog_.pop_front();
    Issue(client, due, [this, client]() {
      idle_.push_back(client);
      Dispatch();
    });
  }
}

void LoadDriver::Issue(size_t client, TimeMicros due,
                       std::function<void()> done) {
  stats_.attempted++;
  if (cfg_.mix == LoadConfig::Mix::kChirp) {
    IssueChirp(client, due, std::move(done));
  } else {
    IssueKv(client, due, std::move(done));
  }
}

void LoadDriver::Finish(bool is_write, bool ok, TimeMicros due) {
  stats_.completed++;
  if (!ok) {
    return;
  }
  if (is_write) {
    stats_.writes++;
    stats_.write_us.push_back(now() - due);
  } else {
    stats_.reads++;
    stats_.read_us.push_back(now() - due);
  }
}

void LoadDriver::IssueKv(size_t client, TimeMicros due,
                         std::function<void()> done) {
  scatter::core::Client* c = clients_[client];
  const Key key = KeyFor(SampleRank());
  const bool is_write = rng_.Bernoulli(cfg_.write_fraction);
  const TimeMicros start = now();
  if (is_write) {
    // Globally unique value (client id, sequence): the linearizability
    // checker relies on it.
    Value value = "v" + std::to_string(c->id()) + ":" +
                  std::to_string(++write_seq_[client]);
    const uint64_t op_id =
        cfg_.record_history
            ? history_.RecordInvoke(verify::OpType::kWrite, key, value, start)
            : 0;
    c->Put(key, std::move(value),
           [this, key, start, due, op_id, done = std::move(done)](Status s) {
             const TimeMicros end = now();
             if (op_id != 0) {
               // A timed-out write is indeterminate: it may still apply.
               history_.RecordComplete(op_id,
                                       s.ok() ? verify::Outcome::kOk
                                              : verify::Outcome::kIndeterminate,
                                       Value(), end);
             }
             Finish(/*is_write=*/true, s.ok(), due);
             if (s.ok() && on_success) {
               on_success(key, start, end);
             }
             if (done) {
               done();
             }
           });
    return;
  }
  const uint64_t op_id =
      cfg_.record_history
          ? history_.RecordInvoke(verify::OpType::kRead, key, Value(), start)
          : 0;
  c->Get(key, [this, key, start, due, op_id,
               done = std::move(done)](StatusOr<Value> result) {
    const TimeMicros end = now();
    verify::Outcome outcome = verify::Outcome::kIndeterminate;
    Value value;
    if (result.ok()) {
      outcome = verify::Outcome::kOk;
      value = std::move(result).value();
    } else if (result.status().code() == StatusCode::kNotFound) {
      outcome = verify::Outcome::kNotFound;
    }
    if (op_id != 0) {
      history_.RecordComplete(op_id, outcome, std::move(value), end);
    }
    const bool ok = outcome != verify::Outcome::kIndeterminate;
    Finish(/*is_write=*/false, ok, due);
    if (ok && on_success) {
      on_success(key, start, end);
    }
    if (done) {
      done();
    }
  });
}

void LoadDriver::IssueChirp(size_t client, TimeMicros due,
                            std::function<void()> done) {
  scatter::core::Client* c = clients_[client];
  if (rng_.Bernoulli(cfg_.write_fraction)) {
    // Posting follows the popularity skew too: celebrities post more.
    const Key wall = KeyFor(SampleRank());
    Value post = "post:" + std::to_string(c->id()) + ":" +
                 std::to_string(++write_seq_[client]);
    c->Put(wall, std::move(post),
           [this, due, done = std::move(done)](Status s) {
             Finish(/*is_write=*/true, s.ok(), due);
             if (done) {
               done();
             }
           });
    return;
  }
  // Timeline refresh: completes when the slowest of the fan-in reads does.
  struct Fanin {
    size_t outstanding = 0;
    bool failed = false;
    std::function<void()> done;
  };
  auto fanin = std::make_shared<Fanin>();
  fanin->outstanding = cfg_.fanin;
  fanin->done = std::move(done);
  for (size_t i = 0; i < cfg_.fanin; ++i) {
    c->Get(KeyFor(SampleRank()),
           [this, fanin, due](StatusOr<Value> result) {
             if (!result.ok() &&
                 result.status().code() != StatusCode::kNotFound) {
               fanin->failed = true;
             }
             if (--fanin->outstanding > 0) {
               return;
             }
             Finish(/*is_write=*/false, !fanin->failed, due);
             if (fanin->done) {
               fanin->done();
             }
           });
  }
}

}  // namespace perfbench
