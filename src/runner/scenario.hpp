#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace kspot::runner {

/// Ordered sweep-axis coordinates of one trial, e.g. {{"k","4"},{"loss","5% iid"}}.
/// Order is the scenario's declared axis order and is preserved in tables
/// and JSON output.
using ParamList = std::vector<std::pair<std::string, std::string>>;

/// Ordered metric samples produced by one trial. All metrics are numeric so
/// the JSON result files stay machine-comparable.
using MetricList = std::vector<std::pair<std::string, double>>;

/// Identity of one trial inside a scenario's sweep grid:
/// seed x parameter-point x algorithm.
struct TrialSpec {
  std::string scenario;   ///< Scenario name (filled in by the engine).
  std::string algorithm;  ///< Algorithm label ("TAG", "MINT", ...); may be empty.
  ParamList params;       ///< Sweep-axis coordinates.
  uint64_t seed = 0;      ///< Seed this trial derives all randomness from.
  size_t index = 0;       ///< Stable enumeration index (filled in by the engine).
};

/// One independently runnable unit of work. `run` must be self-contained:
/// it builds its own topology/network/generator state from the captured
/// configuration, so trials can execute on any worker thread in any order
/// and still produce identical metrics.
struct Trial {
  TrialSpec spec;
  std::function<MetricList()> run;
};

/// Options the engine passes to a scenario when enumerating its trials.
struct SweepOptions {
  /// Shrink axes/epochs for smoke runs (CI, --quick).
  bool quick = false;
  /// 0 keeps the scenario's published default seed; anything else re-bases
  /// the whole sweep on a caller-chosen seed.
  uint64_t seed = 0;
};

/// A named, parameterized experiment: the unit the registry stores and the
/// engine executes. Each of the paper's benchmark figures is one Scenario.
struct Scenario {
  std::string name;   ///< CLI handle, e.g. "msgs_vs_k".
  std::string id;     ///< Experiment id from the bench series, e.g. "E3".
  std::string title;  ///< One-line human description.
  std::string notes;  ///< Optional interpretation text printed after the table.
  /// Enumerates the sweep grid. Called once per engine run; the result's
  /// order defines trial indices and table row order.
  std::function<std::vector<Trial>(const SweepOptions&)> make_trials;
};

}  // namespace kspot::runner
