#include "kspot/system_panel.hpp"

#include <algorithm>
#include <memory>
#include <sstream>

#include "agg/aggregate.hpp"
#include "core/centralized.hpp"
#include "core/tag.hpp"
#include "data/windowed.hpp"
#include "fault/churn_engine.hpp"
#include "kspot/coordinator.hpp"
#include "query/parser.hpp"
#include "util/string_util.hpp"

namespace kspot::system {

namespace {

/// The network a baseline drives outside a session, seeded like a
/// session's shared plane.
sim::Network BaselineNetwork(const Deployment& deployment, const DeploymentConfig& config,
                             const sim::RoutingTree* tree) {
  return sim::Network(&deployment.topology, tree, RadioOptionsFrom(config),
                      util::Rng(config.seed ^ QueryCoordinator::Options::net_salt));
}

/// TAG collecting every node's whole window at the sink: one entry.
std::vector<sim::TrafficCounters> VerticalTagCost(const Deployment& deployment,
                                                  const DeploymentConfig& config,
                                                  const query::ParsedQuery& parsed) {
  std::vector<storage::HistoryStore> stores =
      BufferedWindows(deployment, config, static_cast<size_t>(parsed.history));
  storage::StoreHistorySource source(&stores);
  core::HistoricOptions opts;
  opts.k = std::max(1, parsed.top_k);
  const query::SelectItem* agg_item = parsed.FirstAggregate();
  if (agg_item != nullptr) agg::ParseAggKind(agg_item->aggregate, &opts.agg);
  sim::Network net = BaselineNetwork(deployment, config, &deployment.tree);
  core::TagHistoric tag(&net, &source, opts);
  tag.Run();
  return {net.total()};
}

/// TAG over every node's window aggregate, epoch by epoch.
std::vector<sim::TrafficCounters> HorizontalTagCost(const Deployment& deployment,
                                                    const DeploymentConfig& config,
                                                    const query::ParsedQuery& parsed) {
  core::QuerySpec spec = SpecFromQuery(parsed, deployment.scenario);
  std::unique_ptr<data::DataGenerator> inner = RunGenerator(deployment, config);
  data::WindowAggregateGenerator gen(inner.get(), deployment.topology.num_nodes(),
                                     static_cast<size_t>(parsed.history), spec.agg);
  sim::RoutingTree tree = deployment.tree;
  sim::Network net = BaselineNetwork(deployment, config, &tree);
  core::TagTopK tag(&net, &gen, spec);
  std::unique_ptr<fault::ChurnEngine> churn;
  if (config.enable_churn) {
    churn = std::make_unique<fault::ChurnEngine>(&net, &tree, RunFaultPlan(deployment, config));
  }
  std::vector<sim::TrafficCounters> cost;
  cost.reserve(config.epochs);
  for (size_t e = 0; e < config.epochs; ++e) {
    auto epoch = static_cast<sim::Epoch>(e);
    sim::TrafficCounters before = net.total();
    if (config.reliability.enabled) net.BeginReliabilityEpoch();
    if (churn) {
      fault::ChurnReport report = churn->BeginEpoch(epoch);
      if (report.topology_changed) tag.OnTopologyChanged(report.delta);
    }
    tag.RunEpoch(epoch);
    cost.push_back(net.total().Since(before));
  }
  return cost;
}

}  // namespace

util::StatusOr<std::vector<sim::TrafficCounters>> TagBaselineCost(
    const Deployment& deployment, const DeploymentConfig& config, const std::string& sql) {
  util::StatusOr<query::ParsedQuery> parsed_or = query::Parse(sql);
  if (!parsed_or.ok()) return parsed_or.status();
  query::ParsedQuery parsed = std::move(parsed_or).value();
  util::Status valid = query::Validate(parsed);
  if (!valid.ok()) return valid;
  switch (query::Classify(parsed)) {
    case query::QueryClass::kHistoricVertical:
      return VerticalTagCost(deployment, config, parsed);
    case query::QueryClass::kHistoricHorizontal:
      return HorizontalTagCost(deployment, config, parsed);
    case query::QueryClass::kSnapshotTopK:
    case query::QueryClass::kBasicSelect:
      break;
  }
  std::string twin = sql;
  if (parsed.top_k > 0) {
    parsed.top_k = 0;
    twin = parsed.ToSql();
  }
  QueryCoordinator::Options options;
  static_cast<DeploymentConfig&>(options) = config;
  QueryCoordinator session(&deployment, options);
  util::StatusOr<QueryId> admitted = session.Admit(twin);
  if (!admitted.ok()) return admitted.status();
  util::Status opened = session.Open();
  if (!opened.ok()) return opened;
  std::vector<sim::TrafficCounters> cost;
  cost.reserve(config.epochs);
  for (size_t e = 0; e < config.epochs; ++e) {
    util::StatusOr<EpochUpdate> step = session.StepEpoch();
    if (!step.ok()) return step.status();
    cost.push_back(step.value().epoch_cost);
  }
  (void)session.Close();
  return cost;
}

void SystemPanel::RecordKspotEpoch(const sim::TrafficCounters& epoch_delta) {
  kspot_.Add(epoch_delta);
  ++epochs_;
}

void SystemPanel::RecordBaselineEpoch(const sim::TrafficCounters& epoch_delta) {
  baseline_.Add(epoch_delta);
}

void SystemPanel::RecordNodeStatus(const NodeStatus& status) { node_status_ = status; }

void SystemPanel::RecordMetrics(const obs::MetricsSnapshot& snapshot) { metrics_ = snapshot; }

void SystemPanel::RecordReliability(const ReliabilityStatus& status) {
  reliability_ = status;
  reliability_recorded_ = true;
}

double SystemPanel::MessageSavingsPercent() const {
  return core::CostReport::SavingsPercent(static_cast<double>(baseline_.messages),
                                          static_cast<double>(kspot_.messages));
}

double SystemPanel::ByteSavingsPercent() const {
  return core::CostReport::SavingsPercent(static_cast<double>(baseline_.payload_bytes),
                                          static_cast<double>(kspot_.payload_bytes));
}

double SystemPanel::EnergySavingsPercent() const {
  return core::CostReport::SavingsPercent(baseline_.energy_j(), kspot_.energy_j());
}

std::string SystemPanel::Render() const {
  std::ostringstream oss;
  oss << "=== KSpot System Panel (cumulative over " << epochs_ << " epochs) ===\n";
  oss << "              " << "KSpot"
      << "        baseline(TAG)   savings\n";
  oss << "  messages    " << kspot_.messages << "          " << baseline_.messages << "        "
      << util::FormatDouble(MessageSavingsPercent(), 1) << "%\n";
  oss << "  bytes       " << kspot_.payload_bytes << "       " << baseline_.payload_bytes
      << "     " << util::FormatDouble(ByteSavingsPercent(), 1) << "%\n";
  oss << "  energy (J)  " << util::FormatDouble(kspot_.energy_j(), 4) << "      "
      << util::FormatDouble(baseline_.energy_j(), 4) << "      "
      << util::FormatDouble(EnergySavingsPercent(), 1) << "%\n";
  if (node_status_.total > 0) {
    oss << "  nodes up    " << node_status_.up << "/" << node_status_.total;
    if (node_status_.detached > 0) oss << " (" << node_status_.detached << " detached)";
    oss << "   tree repairs " << node_status_.repair_events << " ("
        << node_status_.repair_messages << " msgs)\n";
  }
  if (reliability_recorded_) {
    oss << "  completeness " << util::FormatDouble(reliability_.completeness * 100.0, 1)
        << "%   degraded epochs " << reliability_.degraded_epochs << "   retries "
        << reliability_.retries << " (" << reliability_.backoff_us << " us backoff)\n";
  }
  if (!metrics_.empty()) {
    oss << "  --- runtime metrics ---\n";
    for (const obs::CounterSample& c : metrics_.counters) {
      oss << "  counter  " << c.name;
      if (!c.label.empty()) oss << "{" << c.label << "}";
      oss << " = " << c.value << "\n";
    }
    for (const obs::GaugeSample& g : metrics_.gauges) {
      oss << "  gauge    " << g.name;
      if (!g.label.empty()) oss << "{" << g.label << "}";
      oss << " = " << util::FormatDouble(g.value, 3) << "\n";
    }
    for (const obs::HistogramSample& h : metrics_.histograms) {
      oss << "  histo    " << h.name;
      if (!h.label.empty()) oss << "{" << h.label << "}";
      oss << " n=" << h.dist.count << " mean=" << util::FormatDouble(h.dist.mean, 1)
          << " p50=" << util::FormatDouble(h.dist.p50, 1)
          << " p95=" << util::FormatDouble(h.dist.p95, 1)
          << " p99=" << util::FormatDouble(h.dist.p99, 1) << "\n";
    }
  }
  return oss.str();
}

}  // namespace kspot::system
