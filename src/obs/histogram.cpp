#include "obs/histogram.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace magma::obs {

namespace {

std::uint64_t saturating_add(std::uint64_t a, std::uint64_t b) {
  return a > std::numeric_limits<std::uint64_t>::max() - b
             ? std::numeric_limits<std::uint64_t>::max()
             : a + b;
}

}  // namespace

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  counts_.assign(bounds_.size() + 1, 0);
}

std::vector<double> Histogram::log_bounds(double lo, double hi,
                                          int per_decade) {
  std::vector<double> bounds;
  if (lo <= 0 || hi < lo || per_decade <= 0) return bounds;
  const double step = std::pow(10.0, 1.0 / per_decade);
  // Round the bound count up so `hi` is always covered despite float drift.
  const int n =
      static_cast<int>(std::ceil(std::log10(hi / lo) * per_decade - 1e-9));
  bounds.reserve(static_cast<std::size_t>(n) + 1);
  double b = lo;
  for (int i = 0; i <= n; ++i) {
    bounds.push_back(b);
    b *= step;
  }
  return bounds;
}

const std::vector<double>& Histogram::default_bounds() {
  static const std::vector<double> kBounds = log_bounds(1e-4, 100.0, 5);
  return kBounds;
}

std::size_t Histogram::bucket_index(double value) const {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), value);
  return static_cast<std::size_t>(it - bounds_.begin());
}

void Histogram::observe(double value) {
  const std::size_t bucket = bucket_index(value);
  counts_[bucket] = saturating_add(counts_[bucket], 1);
  count_ = saturating_add(count_, 1);
  sum_ += value;
}

double Histogram::quantile(double q) const {
  if (count_ == 0) return 0;
  q = std::clamp(q, 0.0, 1.0);
  // Rank of the target sample (1-based), then walk the cumulative counts.
  const double rank = q * static_cast<double>(count_);
  double cumulative = 0;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    if (counts_[i] == 0) continue;
    const double next = cumulative + static_cast<double>(counts_[i]);
    if (next >= rank) {
      // Geometric interpolation inside the log-spaced bucket [lo, hi).
      const double hi = i < bounds_.size()
                            ? bounds_[i]
                            : bounds_.empty() ? 1.0 : bounds_.back() * 10.0;
      const double lo = i > 0 ? bounds_[i - 1] : hi / 10.0;
      const double frac =
          (rank - cumulative) / static_cast<double>(counts_[i]);
      if (lo <= 0) return hi * std::clamp(frac, 0.0, 1.0);
      return lo * std::pow(hi / lo, std::clamp(frac, 0.0, 1.0));
    }
    cumulative = next;
  }
  return bounds_.empty() ? 0 : bounds_.back();
}

bool Histogram::merge(const Histogram& other) {
  if (other.bounds_ != bounds_) return false;
  for (std::size_t i = 0; i < counts_.size(); ++i) {
    counts_[i] = saturating_add(counts_[i], other.counts_[i]);
  }
  count_ = saturating_add(count_, other.count_);
  sum_ += other.sum_;
  return true;
}

bool Histogram::assign(std::vector<double> bounds,
                       std::vector<std::uint64_t> counts, double sum) {
  if (counts.size() != bounds.size() + 1) return false;
  if (!std::is_sorted(bounds.begin(), bounds.end())) return false;
  bounds_ = std::move(bounds);
  counts_ = std::move(counts);
  count_ = 0;
  for (const std::uint64_t c : counts_) count_ = saturating_add(count_, c);
  sum_ = sum;
  return true;
}

}  // namespace magma::obs
