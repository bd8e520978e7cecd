#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "runner/scenario.hpp"

namespace kspot::runner {

/// Outcome of one executed trial.
struct TrialResult {
  TrialSpec spec;
  MetricList metrics;
  double wall_ms = 0.0;  ///< Wall-clock time the trial took on its worker.
  bool ok = true;
  std::string error;  ///< Exception text when ok is false.
};

/// Outcome of one scenario sweep: every trial, in enumeration order
/// (independent of worker scheduling, so equal-seed runs compare equal
/// across thread counts).
struct ScenarioRun {
  std::string name;
  std::string id;
  std::string title;
  std::string notes;
  bool quick = false;
  uint64_t seed = 0;       ///< The --seed override; 0 = scenario defaults.
  size_t threads = 1;      ///< Worker count used.
  double wall_ms = 0.0;    ///< Whole-sweep wall-clock time.
  std::vector<TrialResult> trials;

  /// True when every trial completed without throwing.
  bool AllOk() const;
};

/// Fans a scenario's trials out over a util::TaskPool. Each trial owns its
/// state (Rng, Network, generators are built inside Trial::run), so metric
/// results are a pure function of the trial spec: the engine guarantees
/// byte-identical metrics for any thread count.
class ExperimentEngine {
 public:
  struct Options {
    size_t threads = 1;  ///< 0 = hardware concurrency.
    bool quick = false;
    uint64_t seed = 0;   ///< 0 = scenario default seed.
  };

  explicit ExperimentEngine(Options options);

  /// Enumerates and executes every trial of `scenario`.
  ScenarioRun Run(const Scenario& scenario) const;

  const Options& options() const { return options_; }

 private:
  Options options_;
};

}  // namespace kspot::runner
