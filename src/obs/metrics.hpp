#pragma once

#include <array>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "obs/obs.hpp"
#include "util/stats.hpp"

namespace kspot::obs {

namespace internal {
/// Lock-free relaxed add/min/max on an atomic double (CAS loop; portable
/// across toolchains that lack atomic<double>::fetch_add).
inline void AtomicAdd(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (!a.compare_exchange_weak(cur, cur + v, std::memory_order_relaxed)) {
  }
}
inline void AtomicMin(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v < cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
inline void AtomicMax(std::atomic<double>& a, double v) {
  double cur = a.load(std::memory_order_relaxed);
  while (v > cur && !a.compare_exchange_weak(cur, v, std::memory_order_relaxed)) {
  }
}
}  // namespace internal

/// Monotonic event count. Add() is a no-op while metrics are disabled, so a
/// handle cached at an instrumentation site costs one relaxed load + branch
/// when off.
class Counter {
 public:
  void Add(uint64_t n = 1) {
    if (MetricsOn()) value_.fetch_add(n, std::memory_order_relaxed);
  }
  uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<uint64_t> value_{0};
};

/// Last-write-wins instantaneous value.
class Gauge {
 public:
  void Set(double v) {
    if (MetricsOn()) value_.store(v, std::memory_order_relaxed);
  }
  double value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> value_{0.0};
};

/// Log-bucketed latency/size histogram: kSubBuckets sub-buckets per power of
/// two over [2^(kMinExp-1), 2^(kMaxExp-1)), i.e. ~5e-4 .. 5.6e14, which
/// covers sub-microsecond spans through multi-day totals with <= 1/kSubBuckets
/// relative bucket width. Observe is a frexp plus a few relaxed atomic RMWs —
/// safe from parallel experiment trials and TSan-clean. Snapshot() interpolates
/// p50/p95/p99 inside the target bucket and clamps them to the observed
/// min/max, reusing util::DistSummary as the output shape.
class Histogram {
 public:
  static constexpr int kSubBuckets = 4;
  static constexpr int kMinExp = -10;
  static constexpr int kMaxExp = 50;
  /// Bucket 0 catches v < 2^(kMinExp-1) (including <= 0); the last bucket
  /// catches v >= 2^(kMaxExp-1).
  static constexpr size_t kBucketCount =
      static_cast<size_t>(kMaxExp - kMinExp) * kSubBuckets + 2;

  void Observe(double v) {
    if (!MetricsOn()) return;
    buckets_[BucketFor(v)].fetch_add(1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    internal::AtomicAdd(sum_, v);
    internal::AtomicMin(min_, v);
    internal::AtomicMax(max_, v);
  }

  uint64_t count() const { return count_.load(std::memory_order_relaxed); }

  /// Count/sum/min/max are exact; mean is sum/count; quantiles are
  /// bucket-interpolated (exact for count <= 1).
  util::DistSummary Snapshot() const;

  void Reset();

  static size_t BucketFor(double v);
  /// Smallest value mapping into `bucket`; 0 for the underflow bucket.
  static double BucketLowerBound(size_t bucket);

 private:
  std::array<std::atomic<uint64_t>, kBucketCount> buckets_{};
  std::atomic<uint64_t> count_{0};
  std::atomic<double> sum_{0.0};
  std::atomic<double> min_{std::numeric_limits<double>::infinity()};
  std::atomic<double> max_{-std::numeric_limits<double>::infinity()};
};

struct CounterSample {
  std::string name;
  std::string label;
  uint64_t value = 0;
};

struct GaugeSample {
  std::string name;
  std::string label;
  double value = 0.0;
};

struct HistogramSample {
  std::string name;
  std::string label;
  util::DistSummary dist;
};

/// A point-in-time copy of every registered metric, sorted by (name, label).
struct MetricsSnapshot {
  std::vector<CounterSample> counters;
  std::vector<GaugeSample> gauges;
  std::vector<HistogramSample> histograms;

  bool empty() const { return counters.empty() && gauges.empty() && histograms.empty(); }

  /// Serializes as the documented metrics JSON schema (schema_version 1):
  /// {"schema_version":1,"counters":[{"name","label","value"}...],
  ///  "gauges":[{"name","label","value"}...],
  ///  "histograms":[{"name","label","count","sum","min","max","mean",
  ///                 "p50","p95","p99"}...]}
  std::string ToJson() const;
};

/// Named metric registry. Handles returned by counter()/gauge()/histogram()
/// are valid for the registry's lifetime (the process, for Registry()), so
/// instrumentation sites cache them in function-local statics and pay no
/// lookup on the hot path. Registration itself takes a mutex and may happen
/// lazily from any thread.
class MetricsRegistry {
 public:
  Counter& counter(std::string_view name, std::string_view label = {});
  Gauge& gauge(std::string_view name, std::string_view label = {});
  Histogram& histogram(std::string_view name, std::string_view label = {});

  MetricsSnapshot Snapshot() const;

  /// Zeroes every registered metric; handles stay valid.
  void Reset();

 private:
  using Key = std::pair<std::string, std::string>;

  mutable std::mutex mu_;
  std::map<Key, std::unique_ptr<Counter>> counters_;
  std::map<Key, std::unique_ptr<Gauge>> gauges_;
  std::map<Key, std::unique_ptr<Histogram>> histograms_;
};

/// The process-global registry every built-in instrumentation site records
/// into (never destroyed, so handles outlive static teardown).
MetricsRegistry& Registry();

}  // namespace kspot::obs
