#pragma once

#include <map>
#include <string>
#include <vector>

#include "serve.hpp"
#include "sim/network.hpp"
#include "tracer.hpp"
#include "workloads.hpp"

namespace perfbench {

/// Per-layer timings of a traced run, taken by calling each layer's public
/// entry points directly on the workload's inputs and seed.
struct LayerReplay {
  // Deployment build: the calls the Deployment constructor makes.
  double topology_s = 0.0;
  double adjacency_s = 0.0;
  double tree_build_s = 0.0;
  double degree_mean = 0.0;

  // Data plane: one serving round's epoch schedule without the coordinator.
  size_t epochs = 0;
  std::vector<double> begin_epoch_s;    ///< fault::ChurnEngine::BeginEpoch.
  double mint_create_s = 0.0;           ///< MINT RunEpoch calls of epoch 0.
  std::vector<double> mint_epoch_s;     ///< Per steady epoch, all MINT operators.
  std::vector<double> mint_repair_s;    ///< Per OnTopologyChanged(delta) call.
  std::vector<double> tag_epoch_s;      ///< Per steady epoch.
  std::vector<double> select_epoch_s;   ///< Per steady epoch.
  std::vector<double> historic_epoch_s; ///< Per steady epoch.
  std::vector<double> steady_epoch_s;   ///< Sum of every timed call, per steady epoch.
  kspot::sim::TrafficCounters total;
  std::map<std::string, kspot::sim::TrafficCounters> by_phase;

  Failures failures;
};

/// Times Scenario::BuildTopology, Topology::BuildAdjacency and
/// RoutingTree::BuildClusterAware on the workload's scenario.
void ReplayDeploymentBuild(const Workload& workload, Tracer& tracer, LayerReplay* out);

/// Rebuilds the shared data plane (Network, ChurnEngine, operators) the way
/// a coordinator session does and times every public call over one round's
/// schedule, admissions and cancellations included.
void ReplayDataPlane(const Workload& workload, Tracer& tracer, LayerReplay* out);

}  // namespace perfbench
