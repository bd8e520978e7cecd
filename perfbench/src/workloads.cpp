#include "workloads.hpp"

#include <cmath>

namespace perfbench {

namespace {

using kspot::system::Scenario;

constexpr const char* kTop3Avg =
    "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid";
constexpr const char* kTop1Max =
    "SELECT TOP 1 roomid, MAX(sound) FROM sensors GROUP BY roomid";
constexpr const char* kTop2Min =
    "SELECT TOP 2 roomid, MIN(sound) FROM sensors GROUP BY roomid";
constexpr const char* kTagView = "SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid";
constexpr const char* kLoudSelect = "SELECT nodeid, sound FROM sensors WHERE sound > 60";
constexpr const char* kHistoric =
    "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 64";

/// A side x side grid of `n` nodes over a square field of `field` meters,
/// rooms as rectangular tiles of a rooms_side x rooms_side partition; the
/// sink sits in the first cell. Deterministic: the seed drives the tree,
/// the data, the losses and the faults, never the placement.
Scenario GridScenario(const std::string& name, size_t n, size_t rooms, double field,
                      double range) {
  size_t side = static_cast<size_t>(std::ceil(std::sqrt(static_cast<double>(n))));
  size_t rooms_side =
      static_cast<size_t>(std::lround(std::sqrt(static_cast<double>(rooms))));
  double spacing = field / static_cast<double>(side);
  Scenario s;
  s.name = name;
  s.field_w = field;
  s.field_h = field;
  s.comm_range = range;
  s.modality = kspot::data::Modality::kSound;
  s.nodes.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    size_t gx = i % side;
    size_t gy = i / side;
    Scenario::Node node;
    node.id = static_cast<kspot::sim::NodeId>(i);
    node.x = (static_cast<double>(gx) + 0.5) * spacing;
    node.y = (static_cast<double>(gy) + 0.5) * spacing;
    node.room = static_cast<kspot::sim::GroupId>((gy * rooms_side / side) * rooms_side +
                                                 gx * rooms_side / side);
    s.nodes.push_back(node);
  }
  return s;
}

/// Constant density: nodes 7 m apart, so the field grows as sqrt(n) and a
/// node with an 18 m radio hears about 20 neighbours.
Scenario ConstantDensity(const std::string& name, size_t n, size_t rooms) {
  double side = std::ceil(std::sqrt(static_cast<double>(n)));
  return GridScenario(name, n, rooms, 7.0 * side, 18.0);
}

}  // namespace

uint64_t DerivedSeed(uint64_t seed, size_t k) {
  if (k == 0) return seed;
  // splitmix64 finalizer over the seed and the index.
  uint64_t z = seed + 0x9E3779B97F4A7C15ULL * static_cast<uint64_t>(k);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out) {
  Workload w;
  w.name = name;
  w.options.seed = seed;
  w.options.shards = 1;
  if (name == "snapshot_steady") {
    w.scenario = ConstantDensity(name, 20000, 64);
    w.options.epochs = 150;
    w.probes_per_round = 2;
    for (int i = 0; i < 4; ++i) w.initial.push_back({kTop3Avg, 200});
    w.initial.push_back({kTop1Max, 200});
    w.oracle_check = true;
  } else if (name == "cold_start_dense") {
    // The fixed 100 m field of the repository's E16 bed: ~1,750 neighbours
    // per node at n = 2x10^4.
    w.scenario = GridScenario(name, 20000, 64, 100.0, 18.0);
    w.options.epochs = 101;
    w.initial.push_back({kTop3Avg, 100});
    w.oracle_check = true;
  } else if (name == "serving_churn") {
    w.scenario = ConstantDensity(name, 3000, 64);
    w.options.epochs = 300;
    w.probes_per_round = 2;
    // 10^5 subscribers over the initial mix.
    const std::vector<const char*> mix = {kTop3Avg,  kTop3Avg,    kTop3Avg, kTop1Max,
                                          kTagView, kLoudSelect, kHistoric};
    for (size_t i = 0; i < mix.size(); ++i) {
      w.initial.push_back({mix[i], 100000 / mix.size() + (i < 100000 % mix.size() ? 1 : 0)});
    }
    w.admit_every = 100;
    w.cancel_every = 200;
    w.midrun_pool = {{kTop2Min, 1000}, {kTop3Avg, 1000}};
    // 5% frame loss under adaptive ARQ, crash/degrade/burst churn.
    w.options.loss_prob = 0.05;
    w.options.reliability.enabled = true;
    w.options.enable_churn = true;
    w.options.churn.crash_prob = 2e-4;
    w.options.churn.mean_downtime = 30;
    w.options.churn.degrade_prob = 5e-4;
    w.options.churn.burst_prob = 2e-4;
    w.options.historic.continuous = true;
    w.options.historic.incremental = true;
    w.options.historic.archive_to_flash = true;
    w.options.historic.flash_accounting = true;
  } else {
    return false;
  }
  *out = std::move(w);
  return true;
}

}  // namespace perfbench
