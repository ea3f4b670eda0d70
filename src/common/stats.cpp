#include "common/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>

#include "common/check.hpp"

namespace kdd {

void OnlineStats::add(double x) {
  ++n_;
  sum_ += x;
  const double delta = x - mean_;
  mean_ += delta / static_cast<double>(n_);
  m2_ += delta * (x - mean_);
  if (n_ == 1) {
    min_ = max_ = x;
  } else {
    min_ = std::min(min_, x);
    max_ = std::max(max_, x);
  }
}

void OnlineStats::merge(const OnlineStats& other) {
  if (other.n_ == 0) return;
  if (n_ == 0) {
    *this = other;
    return;
  }
  const double na = static_cast<double>(n_);
  const double nb = static_cast<double>(other.n_);
  const double delta = other.mean_ - mean_;
  const double total = na + nb;
  mean_ += delta * nb / total;
  m2_ += other.m2_ + delta * delta * na * nb / total;
  n_ += other.n_;
  sum_ += other.sum_;
  min_ = std::min(min_, other.min_);
  max_ = std::max(max_, other.max_);
}

void OnlineStats::reset() { *this = OnlineStats{}; }

double OnlineStats::variance() const {
  return n_ ? m2_ / static_cast<double>(n_) : 0.0;
}

double OnlineStats::stddev() const { return std::sqrt(variance()); }

LatencyHistogram::LatencyHistogram()
    : buckets_(static_cast<std::size_t>(kOctaves) * kSubBuckets, 0) {}

std::size_t LatencyHistogram::bucket_index(SimTime us) {
  // Values below kSubBuckets are exact; above, octave k (k >= 1) covers
  // [kSubBuckets << (k-1), kSubBuckets << k) using the top kSubBucketBits
  // bits of the value as the sub-bucket (only the upper half of each octave's
  // slots is populated, which keeps the arithmetic trivially invertible).
  // Values past the last octave saturate into the top bucket, so its upper
  // bound is the table's ceiling (max_ keeps the exact value).
  if (us < kSubBuckets) return static_cast<std::size_t>(us);
  const int msb = 63 - std::countl_zero(us);
  const int octave = msb - (kSubBucketBits - 1);
  const std::size_t sub = static_cast<std::size_t>(us >> octave) & (kSubBuckets - 1);
  const std::size_t idx =
      kSubBuckets + static_cast<std::size_t>(octave) * kSubBuckets + sub;
  constexpr std::size_t kTop = static_cast<std::size_t>(kOctaves) * kSubBuckets - 1;
  return std::min(idx, kTop);
}

SimTime LatencyHistogram::bucket_upper(std::size_t idx) {
  if (idx < kSubBuckets) return static_cast<SimTime>(idx);
  const std::size_t rel = idx - kSubBuckets;
  const int octave = static_cast<int>(rel / kSubBuckets);
  const SimTime sub = static_cast<SimTime>(rel % kSubBuckets);
  // sub already carries the octave's leading bit (it is always >=
  // kSubBuckets / 2), so the covered range is
  // [sub << octave, ((sub + 1) << octave) - 1].
  return ((sub + 1) << octave) - 1;
}

void LatencyHistogram::record(SimTime us) {
  const std::size_t idx = bucket_index(us);
  KDD_DCHECK(idx < buckets_.size());
  ++buckets_[idx];
  if (count_ == 0) {
    lo_ = hi_ = idx;
  } else {
    lo_ = std::min(lo_, idx);
    hi_ = std::max(hi_, idx);
  }
  ++count_;
  sum_us_ += static_cast<double>(us);
  max_ = std::max(max_, us);
}

void LatencyHistogram::merge(const LatencyHistogram& other) {
  KDD_CHECK(buckets_.size() == other.buckets_.size());
  if (other.count_ == 0) return;
  for (std::size_t i = other.lo_; i <= other.hi_; ++i) buckets_[i] += other.buckets_[i];
  if (count_ == 0) {
    lo_ = other.lo_;
    hi_ = other.hi_;
  } else {
    lo_ = std::min(lo_, other.lo_);
    hi_ = std::max(hi_, other.hi_);
  }
  count_ += other.count_;
  sum_us_ += other.sum_us_;
  max_ = std::max(max_, other.max_);
}

void LatencyHistogram::reset() {
  if (count_ != 0) {
    std::fill(buckets_.begin() + static_cast<std::ptrdiff_t>(lo_),
              buckets_.begin() + static_cast<std::ptrdiff_t>(hi_) + 1, 0ull);
  }
  count_ = 0;
  sum_us_ = 0.0;
  max_ = 0;
  lo_ = hi_ = 0;
}

double LatencyHistogram::mean_us() const {
  return count_ ? sum_us_ / static_cast<double>(count_) : 0.0;
}

SimTime LatencyHistogram::percentile_us(double q) const {
  if (count_ == 0) return 0;
  KDD_CHECK(q >= 0.0 && q <= 1.0);
  const auto target =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(count_)));
  std::uint64_t seen = 0;
  for (std::size_t i = lo_; i <= hi_; ++i) {
    seen += buckets_[i];
    if (seen >= target && buckets_[i] > 0) return bucket_upper(i);
  }
  return max_;
}

double SampleRecorder::mean() const {
  if (samples_.empty()) return 0.0;
  double s = 0.0;
  for (double x : samples_) s += x;
  return s / static_cast<double>(samples_.size());
}

double SampleRecorder::percentile(double q) const {
  if (samples_.empty()) return 0.0;
  if (!sorted_) {
    std::sort(samples_.begin(), samples_.end());
    sorted_ = true;
  }
  const auto idx = static_cast<std::size_t>(
      q * static_cast<double>(samples_.size() - 1) + 0.5);
  return samples_[std::min(idx, samples_.size() - 1)];
}

std::string format_bytes(std::uint64_t bytes) {
  char buf[64];
  const double b = static_cast<double>(bytes);
  if (bytes >= kGiB) {
    std::snprintf(buf, sizeof buf, "%.2f GiB", b / static_cast<double>(kGiB));
  } else if (bytes >= kMiB) {
    std::snprintf(buf, sizeof buf, "%.2f MiB", b / static_cast<double>(kMiB));
  } else if (bytes >= kKiB) {
    std::snprintf(buf, sizeof buf, "%.2f KiB", b / static_cast<double>(kKiB));
  } else {
    std::snprintf(buf, sizeof buf, "%llu B", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

std::string format_pct(double ratio) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.1f%%", ratio * 100.0);
  return buf;
}

}  // namespace kdd
