#include "gauge.hpp"

#include "tracer.hpp"

namespace perfbench {

namespace {

constexpr uint64_t kEntries = 65536;
constexpr uint64_t kProbes = 8000;

uint64_t Mix(uint64_t z) {
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

HostGauge::HostGauge() {
  table_.reserve(kEntries);
  for (uint64_t i = 0; i < kEntries; ++i) table_[Mix(i)] = i;
}

double HostGauge::Measure() {
  // Every call probes another set of keys, so the pass before the timed one
  // is what warms them.
  const uint64_t first = Mix(++pass_);
  auto probe = [&] {
    uint64_t sum = 0;
    for (uint64_t i = 0; i < kProbes; ++i) {
      auto it = table_.find(Mix((first + i * 7919) % kEntries));
      sum += it == table_.end() ? 1 : it->second;
    }
    return sum;
  };
  sink_ += probe();
  const int64_t start = NowNs();
  sink_ += probe();
  return static_cast<double>(NowNs() - start) * 1e-9;
}

}  // namespace perfbench
