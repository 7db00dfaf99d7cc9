// Log-spaced latency histogram — the AGW-side aggregation unit behind
// metricsd's histogram metric type.
//
// Gateways observe raw span durations locally and ship only bucket counts
// (Prometheus-style cumulative snapshots); the orchestrator merges buckets
// across gateways and answers p50/p95/p99 queries. Shipping buckets instead
// of samples is what keeps the metrics pipeline O(buckets) regardless of
// attach rate — the same reason the paper's deployments run Prometheus.
//
// Buckets are defined by their upper bounds; counts has bounds.size()+1
// entries, the last being the overflow bucket. The default bounds are
// log-spaced (5 per decade) from 100 µs to 100 s — wide enough for a LAN
// RPC and a satellite-backhaul attach alike, at ≤ 59% bucket-width error.
#pragma once

#include <cstdint>
#include <vector>

namespace magma::obs {

class Histogram {
 public:
  Histogram() : Histogram(default_bounds()) {}
  explicit Histogram(std::vector<double> bounds);

  // `per_decade` bounds per factor of 10, from `lo` to `hi` inclusive.
  static std::vector<double> log_bounds(double lo, double hi, int per_decade);
  static const std::vector<double>& default_bounds();

  // Count `value` into the bucket it lands in.
  void observe(double value);
  // Quantile estimate (q in [0,1]) with geometric interpolation inside the
  // bucket. Returns 0 for an empty histogram.
  double quantile(double q) const;

  std::uint64_t count() const { return count_; }
  double sum() const { return sum_; }
  double mean() const { return count_ == 0 ? 0 : sum_ / count_; }
  const std::vector<double>& bounds() const { return bounds_; }
  const std::vector<std::uint64_t>& counts() const { return counts_; }

  // Merge another histogram's buckets into this one. Returns false (and
  // leaves this histogram untouched) when the bucket layouts differ —
  // cross-layout merging would silently misattribute counts. Counts
  // saturate at uint64 max instead of wrapping (a wrapped counter would
  // report a near-empty bucket).
  bool merge(const Histogram& other);
  // Replace this histogram's contents with a decoded snapshot. Rejects
  // layout mismatches between bounds and counts.
  bool assign(std::vector<double> bounds, std::vector<std::uint64_t> counts,
              double sum);

 private:
  std::size_t bucket_index(double value) const;

  std::vector<double> bounds_;           // ascending upper bounds
  std::vector<std::uint64_t> counts_;    // bounds_.size() + 1 (overflow last)
  std::uint64_t count_ = 0;
  double sum_ = 0;
};

}  // namespace magma::obs
