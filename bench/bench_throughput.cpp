/// E16 — wall-clock throughput of the simulation data plane.
///
/// Every other experiment reports protocol cost (messages, bytes, joules);
/// this one reports how fast the simulator itself executes — epochs per
/// second and per-epoch wall-time percentiles for the MINT data plane at
/// n = 200 / 1000 / 5000 nodes, with and without churn, plus churn-free
/// large-extent rows at n = 2×10⁴ and 10⁵. It exists so that
/// perf work lands with a measured number: CI runs it quick, uploads the
/// JSON, and bench/check_regression.py fails the build when epochs/sec
/// regresses by more than the configured tolerance against the committed
/// baseline (bench/baseline/BENCH_E16_throughput.json).
///
/// Wall-clock metrics are inherently machine- and load-dependent; the
/// scenario is deliberately excluded from the bit-determinism checks, and
/// the regression gate should run it with --threads 1 so trials do not
/// contend with each other.
#include <chrono>

#include "bench_util.hpp"
#include "fault/churn_engine.hpp"
#include "scenarios.hpp"
#include "util/stats.hpp"

namespace kspot::bench {

namespace {

struct ThroughputConfig {
  size_t nodes = 1000;
  size_t rooms = 32;
  size_t epochs = 200;
  uint64_t seed = 161;
  bool churn = false;
};

struct ThroughputStats {
  double epochs_per_sec = 0.0;
  /// Per-epoch wall-time distribution (util::Percentiles::Summary — the one
  /// quantile implementation bench code and obs histograms share).
  util::DistSummary wall_ms;
  double msgs_per_epoch = 0.0;
};

ThroughputStats RunThroughput(const ThroughputConfig& cfg) {
  using Clock = std::chrono::steady_clock;
  core::QuerySpec spec = RoomAvgSpec(3);
  auto bed = Bed::Grid(cfg.nodes, cfg.rooms, cfg.seed);
  auto gen = bed.RoomData(cfg.seed);
  auto algorithm = MakeSnapshotAlgo(SnapshotAlgo::kMint, bed.net.get(), gen.get(), spec);

  std::unique_ptr<fault::ChurnEngine> churn;
  if (cfg.churn) {
    fault::FaultPlanOptions fopt;
    fopt.horizon = static_cast<sim::Epoch>(cfg.epochs);
    fopt.crash_prob = 0.01;
    fopt.mean_downtime = 10;
    fault::FaultPlan plan = fault::FaultPlan::Generate(bed.topology, fopt, cfg.seed ^ 0xFA11);
    churn = std::make_unique<fault::ChurnEngine>(bed.net.get(), &bed.tree, std::move(plan));
  }

  util::Percentiles epoch_ms;
  Clock::time_point run_start = Clock::now();
  for (size_t e = 0; e < cfg.epochs; ++e) {
    Clock::time_point epoch_start = Clock::now();
    auto epoch = static_cast<sim::Epoch>(e);
    if (churn) {
      fault::ChurnReport report = churn->BeginEpoch(epoch);
      if (report.topology_changed) algorithm->OnTopologyChanged(report.delta);
    }
    algorithm->RunEpoch(epoch);
    epoch_ms.Add(std::chrono::duration<double, std::milli>(Clock::now() - epoch_start).count());
  }
  double total_s = std::chrono::duration<double>(Clock::now() - run_start).count();

  ThroughputStats stats;
  stats.epochs_per_sec =
      total_s > 0.0 ? static_cast<double>(cfg.epochs) / total_s : 0.0;
  stats.wall_ms = epoch_ms.Summary();
  stats.msgs_per_epoch = PerEpoch(bed.net->total().messages, cfg.epochs);
  return stats;
}

}  // namespace

void RegisterThroughput(runner::ScenarioRegistry& registry) {
  runner::Scenario s;
  s.name = "throughput";
  s.id = "E16";
  s.title = "simulator wall-clock throughput (MINT data plane, with/without churn)";
  s.notes =
      "epochs_per_sec is wall-clock simulator speed, not protocol cost; run with\n"
      "--threads 1 when comparing numbers (parallel trials contend for cores).\n"
      "bench/check_regression.py gates CI on this scenario's JSON.";
  s.make_trials = [](const runner::SweepOptions& opt) {
    struct Point {
      size_t nodes;
      size_t rooms;
      size_t epochs;
      size_t quick_epochs;
      bool churn_row;  ///< Also run the point with churn on.
    };
    // The large-extent points run churn-free and only a few epochs: their
    // cost is dominated by bed construction.
    const std::vector<Point> points = {{200, 16, 600, 120, true},
                                       {1000, 32, 200, 60, true},
                                       {5000, 64, 40, 10, true},
                                       {20000, 64, 20, 5, false},
                                       {100000, 128, 4, 2, false}};
    std::vector<runner::Trial> trials;
    for (const Point& point : points) {
      for (bool churn : {false, true}) {
        if (churn && !point.churn_row) continue;
        runner::Trial t;
        t.spec.algorithm = "MINT";
        t.spec.seed = opt.seed != 0 ? opt.seed : 161;
        t.spec.params = {{"n", std::to_string(point.nodes)},
                         {"churn", churn ? "on" : "off"}};
        ThroughputConfig cfg;
        cfg.nodes = point.nodes;
        cfg.rooms = point.rooms;
        cfg.epochs = opt.quick ? point.quick_epochs : point.epochs;
        cfg.seed = t.spec.seed;
        cfg.churn = churn;
        t.run = [cfg]() -> runner::MetricList {
          ThroughputStats st = RunThroughput(cfg);
          return {{"epochs_per_sec", st.epochs_per_sec},
                  {"wall_ms_p50", st.wall_ms.p50},
                  {"wall_ms_p95", st.wall_ms.p95},
                  {"wall_ms_p99", st.wall_ms.p99},
                  {"msgs_per_epoch", st.msgs_per_epoch}};
        };
        trials.push_back(std::move(t));
      }
    }
    return trials;
  };
  RegisterOrDie(registry, std::move(s));
}

}  // namespace kspot::bench
