#include "src/obs/window.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace scatter::obs {

SlidingWindow::SlidingWindow(const Params& params) : params_(params) {
  assert(params_.bucket_width_us > 0);
  assert(params_.num_buckets > 0);
  assert(params_.ewma_alpha > 0.0 && params_.ewma_alpha <= 1.0);
  ring_.resize(params_.num_buckets);
}

void SlidingWindow::RollTo(int64_t epoch) {
  if (last_epoch_ < 0 || epoch <= last_epoch_) return;
  // Each boundary crossed closes one bucket; the closed bucket's sum feeds
  // the EWMA once, and skipped-over boundaries feed zeros. The zero-feeds
  // collapse into a closed-form decay so idle gaps stay O(1).
  int64_t gap = epoch - last_epoch_;
  const size_t idx = static_cast<size_t>(last_epoch_ % static_cast<int64_t>(ring_.size()));
  const Bucket& closing = ring_[idx];
  const double closed_sum = (closing.epoch == last_epoch_) ? static_cast<double>(closing.sum) : 0.0;
  ewma_ = (1.0 - params_.ewma_alpha) * ewma_ + params_.ewma_alpha * closed_sum;
  if (gap > 1) {
    ewma_ *= std::pow(1.0 - params_.ewma_alpha, static_cast<double>(gap - 1));
  }
  last_epoch_ = epoch;
}

void SlidingWindow::Record(int64_t now_us, uint64_t weight) {
  int64_t epoch = EpochFor(now_us);
  if (epoch < last_epoch_) epoch = last_epoch_;  // never rewrite history
  RollTo(epoch);
  if (last_epoch_ < 0) last_epoch_ = epoch;
  Bucket& b = ring_[static_cast<size_t>(epoch % static_cast<int64_t>(ring_.size()))];
  if (b.epoch != epoch) {
    b.epoch = epoch;
    b.sum = 0;
  }
  b.sum += weight;
  total_ += weight;
}

uint64_t SlidingWindow::TotalInWindow(int64_t now_us) const {
  const int64_t epoch = std::max(EpochFor(now_us), last_epoch_);
  const int64_t oldest = epoch - static_cast<int64_t>(ring_.size()) + 1;
  uint64_t sum = 0;
  for (const Bucket& b : ring_) {
    if (b.epoch >= oldest && b.epoch <= epoch) sum += b.sum;
  }
  return sum;
}

double SlidingWindow::RatePerSec(int64_t now_us) const {
  const double span_sec =
      static_cast<double>(params_.bucket_width_us) * static_cast<double>(ring_.size()) / 1e6;
  return static_cast<double>(TotalInWindow(now_us)) / span_sec;
}

void SlidingWindow::Merge(const SlidingWindow& other) {
  assert(params_ == other.params_);
  for (const Bucket& ob : other.ring_) {
    if (ob.epoch < 0) continue;
    Bucket& mine = ring_[static_cast<size_t>(ob.epoch % static_cast<int64_t>(ring_.size()))];
    if (mine.epoch == ob.epoch) {
      mine.sum += ob.sum;
    } else if (ob.epoch > mine.epoch) {
      mine = ob;
    }
  }
  total_ += other.total_;
  ewma_ += other.ewma_;
  last_epoch_ = std::max(last_epoch_, other.last_epoch_);
}

std::string SlidingWindow::ToJson() const {
  std::string out;
  out.reserve(128 + ring_.size() * 32);
  char buf[96];
  std::snprintf(buf, sizeof(buf),
                "{\"bucket_width_us\":%lld,\"num_buckets\":%zu,\"total\":%llu,",
                static_cast<long long>(params_.bucket_width_us), ring_.size(),
                static_cast<unsigned long long>(total_));
  out += buf;
  // %.17g keeps the round-trip exact while staying locale-independent for
  // the values we emit (EWMAs are finite by construction).
  std::snprintf(buf, sizeof(buf), "\"ewma\":%.17g,\"buckets\":[", ewma_);
  out += buf;
  std::vector<Bucket> live;
  live.reserve(ring_.size());
  for (const Bucket& b : ring_) {
    if (b.epoch >= 0) live.push_back(b);
  }
  std::sort(live.begin(), live.end(),
            [](const Bucket& a, const Bucket& b) { return a.epoch < b.epoch; });
  for (size_t i = 0; i < live.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%s{\"epoch\":%lld,\"sum\":%llu}", i ? "," : "",
                  static_cast<long long>(live[i].epoch),
                  static_cast<unsigned long long>(live[i].sum));
    out += buf;
  }
  out += "]}";
  return out;
}

}  // namespace scatter::obs
