#pragma once

#include <string>
#include <vector>

#include "core/cost_report.hpp"
#include "kspot/deployment.hpp"
#include "obs/metrics.hpp"
#include "sim/network.hpp"
#include "util/status.hpp"

namespace kspot::system {

/// The System Panel (Sections I/IV-B): the live counter display that
/// "continuously projects the savings in energy and messages that our system
/// yields". It tracks the KSpot network's traffic against a baseline (TAG)
/// run over the same data and reports the savings percentages. Feed it
/// EpochUpdate::epoch_cost from a coordinator session and the entries of
/// TagBaselineCost below.
class SystemPanel {
 public:
  SystemPanel() = default;

  /// Live node-status block (churn runs): how much of the deployment is up
  /// and routable, and what the in-network tree repairs have cost so far.
  struct NodeStatus {
    size_t total = 0;            ///< Deployed nodes (including the sink).
    size_t up = 0;               ///< Alive (admin-up with battery left).
    size_t detached = 0;         ///< Alive but without a route to the sink.
    size_t repair_events = 0;    ///< Epochs that forced a tree repair.
    uint64_t repair_messages = 0;///< Join-handshake messages those repairs cost.
  };

  /// Live reliability block (reliability-layer runs): how complete the
  /// served answers are and what the adaptive ARQ spent getting them.
  struct ReliabilityStatus {
    double completeness = 1.0;   ///< Mean completeness of the latest epoch's answers.
    size_t degraded_epochs = 0;  ///< Epochs a deadline truncated, cumulative.
    uint64_t retries = 0;        ///< Retransmissions, cumulative.
    uint64_t backoff_us = 0;     ///< Idle-listen backoff time, cumulative.
  };

  /// Records one epoch of KSpot traffic (counters since the previous call).
  void RecordKspotEpoch(const sim::TrafficCounters& epoch_delta);
  /// Records one epoch of baseline traffic.
  void RecordBaselineEpoch(const sim::TrafficCounters& epoch_delta);
  /// Records the current node status (latest snapshot wins).
  void RecordNodeStatus(const NodeStatus& status);
  /// Records an observability snapshot (latest wins); a non-empty one adds a
  /// runtime-metrics pane to Render(). Typically obs::Registry().Snapshot().
  void RecordMetrics(const obs::MetricsSnapshot& snapshot);
  /// Records the reliability status (latest snapshot wins); the first call
  /// adds a reliability pane to Render().
  void RecordReliability(const ReliabilityStatus& status);

  /// Latest node status; total == 0 until a churn run records one.
  const NodeStatus& node_status() const { return node_status_; }
  /// Latest reliability status (defaults until a run records one).
  const ReliabilityStatus& reliability_status() const { return reliability_; }

  /// Cumulative KSpot traffic.
  const sim::TrafficCounters& kspot_total() const { return kspot_; }
  /// Cumulative baseline traffic.
  const sim::TrafficCounters& baseline_total() const { return baseline_; }

  /// Message savings, percent of the baseline.
  double MessageSavingsPercent() const;
  /// Payload byte savings, percent of the baseline.
  double ByteSavingsPercent() const;
  /// Radio energy savings, percent of the baseline.
  double EnergySavingsPercent() const;

  /// Renders the panel text (one compact block for the terminal).
  std::string Render() const;

 private:
  sim::TrafficCounters kspot_;
  sim::TrafficCounters baseline_;
  NodeStatus node_status_;
  ReliabilityStatus reliability_;
  bool reliability_recorded_ = false;
  obs::MetricsSnapshot metrics_;
  size_t epochs_ = 0;
};

/// The System Panel's baseline: what plain TAG costs to answer `sql` over
/// `deployment` under `config` — the same data wave, radio, batteries,
/// fault plan and reliability layer a coordinator session with `config`
/// serves the query under. One entry per epoch (`config.epochs`), or a
/// single entry for a vertical historic query (one centralized collection
/// of every node's buffered window). Syntax and semantic errors come back
/// as Status.
///
/// - Snapshot top-k and basic selects run the query's TOP-less twin in a
///   single-query session over `deployment`: TAG ships every group, so its
///   traffic does not depend on K. An ungrouped select is its own twin.
/// - Horizontal historic queries run TAG over the per-node window
///   aggregates, on a network seeded, refilled and churned the way a
///   session's is.
util::StatusOr<std::vector<sim::TrafficCounters>> TagBaselineCost(
    const Deployment& deployment, const DeploymentConfig& config, const std::string& sql);

}  // namespace kspot::system
