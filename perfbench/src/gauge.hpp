#pragma once

#include <cstddef>
#include <cstdint>
#include <unordered_map>

namespace perfbench {

/// A fixed piece of work that uses no repository code: 8,000 lookups of
/// random keys in a 65,536-entry hash map, made twice, with only the second
/// pass timed. Its time follows how fast the host runs this thread right
/// now; on a shared host that speed drifts by tens of percent between runs
/// and within one, and the program's epochs slow down with it. The first
/// pass reloads most of the probed entries, but not all of them fit in the
/// core's share of cache: a pass made just after the cache was flushed
/// takes about a third longer than one made in a loop. The benchmark
/// always measures it right after an epoch and its check.
class HostGauge {
 public:
  HostGauge();
  /// Seconds of one timed pass.
  double Measure();

 private:
  std::unordered_map<uint64_t, uint64_t> table_;
  uint64_t pass_ = 0;
  uint64_t sink_ = 0;
};

/// What one HostGauge pass takes at the reference host speed: a fixed
/// scale, about one pass on a lightly loaded 4-vCPU Xeon (Sapphire Rapids)
/// KVM guest, gcc 12.2, Release. The end-to-end timings are reported at this
/// speed: each is scaled by this value over the gauge's median time while it
/// was measured.
constexpr double kGaugeReferenceS = 200e-6;

/// A round measures the gauge before every kGaugeEvery-th epoch's check ends.
constexpr size_t kGaugeEvery = 4;

}  // namespace perfbench
