#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "gauge.hpp"
#include "kspot/coordinator.hpp"
#include "sim/network.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

/// What the timing decorator around the program's data generator saw.
struct DataStats {
  std::vector<double> prepare_s;  ///< One sample per epoch advance.
  uint64_t value_calls = 0;
};

/// Counts of what one round got wrong. An operation is a StepEpoch, Admit
/// or Cancel call; it fails when the call errs or an answer of its epoch
/// fails a check.
struct Failures {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> messages;  ///< The first few, for the log.

  void Fail(const std::string& message) {
    ++failed;
    if (messages.size() < 8) messages.push_back(message);
  }
};

/// One serving round: set-up, the workload's epoch schedule driven as a
/// closed loop (the next StepEpoch starts when the previous Publish
/// returns), answer checks between epochs, and Close.
struct RoundResult {
  // End-to-end samples.
  double setup_s = 0.0;
  double first_epoch_s = 0.0;
  std::vector<double> steady_epoch_s;  ///< StepEpoch + Publish, epochs >= 1.

  // Per-layer samples.
  double deployment_s = 0.0;
  double open_s = 0.0;
  double close_s = 0.0;
  std::vector<double> admit_s;
  std::vector<double> cancel_s;
  std::vector<double> steady_step_s;
  std::vector<double> steady_publish_s;
  uint64_t steady_deliveries = 0;
  std::vector<double> gauge_s;  ///< HostGauge passes, one per kGaugeEvery epochs.

  // Simulated outcome; identical for every round of one seed.
  size_t epochs = 0;
  kspot::sim::TrafficCounters total;  ///< Sum of EpochUpdate::epoch_cost.
  double completeness_sum = 0.0;
  uint64_t ranked_results = 0;
  uint64_t repair_messages = 0;  ///< Cumulative at the last epoch.
  int tree_depth_max = 0;
  uint64_t digest = 0;  ///< FNV-1a over every answer and epoch bill.

  Failures failures;
};

/// Runs one serving round of `workload` over its first `epochs` epochs (a
/// set-up probe runs one). With `data` non-null the program's data generator
/// is wrapped in a timing decorator (traced runs only). After the check of
/// every kGaugeEvery-th epoch (epoch 0 included) it times one `gauge` pass.
RoundResult ServeRound(const Workload& workload, size_t epochs, Tracer& tracer,
                       DataStats* data, HostGauge& gauge);

}  // namespace perfbench
