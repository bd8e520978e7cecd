/// Multi-tenant monitoring — many users' queries on ONE deployment.
///
/// The KSpot server of the paper serves a deployed building; real traffic
/// means many users watching it at once. This example admits a mixed batch
/// of queries to a QueryCoordinator — snapshot top-k dashboards (several
/// users asking the same question), an acquisitional SELECT, and a historic
/// TJA audit — and drives them all over one shared data plane: one routing
/// tree, one battery ledger, one per-epoch data wave.
///
/// The punchline is the bill: compatible snapshot queries piggyback on a
/// single converge-cast, so adding the 2nd..Nth identical dashboard costs
/// (almost) nothing, where naive per-query serving would multiply the radio
/// traffic by N.
#include <cstdio>

#include "kspot/coordinator.hpp"
#include "kspot/scenario_config.hpp"

using namespace kspot;

int main() {
  std::printf("=== multi-tenant KSpot: one deployment, many queries ===\n\n");
  system::Scenario floor = system::Scenario::ConferenceFloor(8, 4, /*seed=*/5);

  system::QueryCoordinator::Options opt;
  opt.epochs = 40;
  opt.seed = 7;
  system::QueryCoordinator coordinator(floor, opt);

  // Six users: four identical "loudest rooms" dashboards, one raw tuple
  // stream, one historic audit.
  const char* queries[] = {
      "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid",
      "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid",
      "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid",
      "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid",
      "SELECT nodeid, sound FROM sensors WHERE sound > 60",
      "SELECT TOP 5 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 32",
  };
  for (const char* sql : queries) {
    auto admitted = coordinator.Admit(sql);
    if (!admitted.ok()) {
      std::printf("rejected: %s\n  %s\n", sql, admitted.status().message().c_str());
      return 1;
    }
    std::printf("admitted #%u  %s\n", admitted.value(), sql);
  }

  auto report_or = coordinator.Run();
  if (!report_or.ok()) {
    std::printf("run failed: %s\n", report_or.status().message().c_str());
    return 1;
  }
  const system::CoordinatorReport& report = report_or.value();

  std::printf("\n%zu queries rode %zu operators over %zu epochs\n", report.queries,
              report.operators, report.epochs);
  for (const system::QueryOutcome& outcome : report.outcomes) {
    double per_query_msgs = static_cast<double>(outcome.shared_cost.messages) /
                            static_cast<double>(outcome.share_group_size);
    std::printf("  #%u %-12s shared by %zu -> %.1f msgs/query for the run\n", outcome.id,
                outcome.algorithm.c_str(), outcome.share_group_size, per_query_msgs);
  }
  const system::QueryOutcome& dashboard = report.outcomes[0];
  if (!dashboard.per_epoch.empty()) {
    std::printf("\nfinal dashboard answer (epoch %zu):\n%s", report.epochs - 1,
                dashboard.per_epoch.back().ToString().c_str());
  }
  const system::QueryOutcome& audit = report.outcomes[5];
  std::printf("\nhistoric audit (loudest time instances):\n");
  for (const auto& item : audit.historic.items) {
    std::printf("  epoch %d  avg=%.2f\n", item.group, item.value);
  }

  // What would the same six queries cost served one at a time? One
  // single-query session per query over the same deployment.
  uint64_t sequential_msgs = 0;
  for (const char* sql : queries) {
    system::QueryCoordinator single(&coordinator.deployment(), opt);
    (void)single.Admit(sql);
    auto single_report = single.Run();
    if (single_report.ok()) sequential_msgs += single_report.value().total.messages;
  }
  std::printf("\nshared data plane: %llu msgs   sequential per-query serving: %llu msgs "
              "(%.1fx)\n",
              static_cast<unsigned long long>(report.total.messages),
              static_cast<unsigned long long>(sequential_msgs),
              static_cast<double>(sequential_msgs) /
                  static_cast<double>(report.total.messages));
  return 0;
}
