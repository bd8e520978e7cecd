#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "kspot/coordinator.hpp"
#include "kspot/scenario_config.hpp"

namespace perfbench {

/// One query a workload admits and the dashboards subscribed to it.
struct QueryDef {
  std::string sql;
  size_t subscribers = 0;
};

/// Everything one workload hands the program: a generated scenario, the SQL
/// it admits (at set-up and mid-run), the deployment knobs, and the epoch
/// schedule. A pure function of the workload name and the seed.
struct Workload {
  std::string name;
  kspot::system::Scenario scenario;
  /// Deployment knobs; `epochs` is the length of one serving round and
  /// `seed` the workload seed.
  kspot::system::QueryCoordinator::Options options;
  std::vector<QueryDef> initial;
  /// Before epoch e > 0: when e % cancel_every == 0 the oldest live mid-run
  /// query is cancelled; then, when e % admit_every == 0, the next query of
  /// `midrun_pool` (cycled) is admitted. 0 disables either.
  size_t admit_every = 0;
  size_t cancel_every = 0;
  std::vector<QueryDef> midrun_pool;
  /// Check every ranked answer against core::Oracle (lossless, churn-free
  /// workloads, where MINT must be exact).
  bool oracle_check = false;
  /// Set-up probes before each round: set-up plus the first epoch only, so
  /// set-up and first-epoch medians rest on enough samples when full rounds
  /// are long.
  size_t probes_per_round = 0;
};

/// Seeds a run serves: round k (and probe k) uses DerivedSeed(seed,
/// k % kSeeds). Every metric weighs them equally, so it depends less on one
/// data realization.
constexpr size_t kSeeds = 6;

/// The k-th seed derived from a run's seed; DerivedSeed(seed, 0) == seed.
uint64_t DerivedSeed(uint64_t seed, size_t k);

/// Builds workload `name` for `seed`; false for an unknown name.
bool MakeWorkload(const std::string& name, uint64_t seed, Workload* out);

}  // namespace perfbench
