#include <gtest/gtest.h>

#include "core/mint.hpp"
#include "core/oracle.hpp"
#include "core/tja.hpp"
#include "kspot/coordinator.hpp"
#include "kspot/display_panel.hpp"
#include "kspot/scenario_config.hpp"
#include "kspot/system_panel.hpp"
#include "storage/history_store.hpp"
#include "test_util.hpp"

namespace kspot {
namespace {

// End-to-end: scenario file on disk -> coordinator -> SQL -> ranked answers
// with savings, exercising the full stack the way the demo would.
TEST(IntegrationTest, ScenarioFileToRankedAnswers) {
  system::Scenario scenario = system::Scenario::ConferenceFloor(6, 4, 21);
  std::string path = ::testing::TempDir() + "/kspot_integration.kcfg";
  ASSERT_TRUE(scenario.Save(path));
  auto loaded = system::Scenario::Load(path);
  ASSERT_TRUE(loaded.ok());

  system::QueryCoordinator::Options opt;
  // A continuous monitoring query: long enough that MINT's one-time creation
  // phase amortizes (the demo runs for the duration of the conference).
  opt.epochs = 60;
  opt.seed = 4242;
  system::QueryCoordinator coordinator(loaded.value(), opt);
  const char* sql =
      "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min";
  ASSERT_TRUE(coordinator.Admit(sql).ok());
  auto baseline = system::TagBaselineCost(coordinator.deployment(), opt, sql);
  ASSERT_TRUE(baseline.ok()) << baseline.status().message();

  system::DisplayPanel panel(&coordinator.deployment().scenario);
  system::SystemPanel sys;
  std::string last_frame;
  ASSERT_TRUE(coordinator.Open().ok());
  for (size_t e = 0; e < opt.epochs; ++e) {
    auto update = coordinator.StepEpoch();
    ASSERT_TRUE(update.ok()) << update.status().message();
    sys.RecordKspotEpoch(update.value().epoch_cost);
    sys.RecordBaselineEpoch(baseline.value()[e]);
    last_frame = panel.RenderFrame(*update.value().groups.at(0).result) + sys.Render();
  }
  auto report = coordinator.Close();
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report.value().outcomes.at(0).per_epoch.size(), 60u);
  EXPECT_NE(last_frame.find("KSpot Bullets"), std::string::npos);
  EXPECT_NE(last_frame.find("System Panel"), std::string::npos);
  EXPECT_GT(sys.ByteSavingsPercent(), 0.0);
}

// The MINT answer served through the full coordinator stack must equal an
// oracle computed over an identically seeded generator.
TEST(IntegrationTest, ServedAnswersMatchOracle) {
  system::Scenario scenario = system::Scenario::ConferenceFloor(5, 4, 33);
  system::QueryCoordinator::Options opt;
  opt.epochs = 10;
  opt.seed = 777;
  system::QueryCoordinator coordinator(scenario, opt);
  ASSERT_TRUE(
      coordinator.Admit("SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid").ok());
  auto report = coordinator.Run();
  ASSERT_TRUE(report.ok());
  const std::vector<core::TopKResult>& per_epoch = report.value().outcomes.at(0).per_epoch;

  // Rebuild the same generator the session used (default factory, same seed).
  sim::Topology topo = scenario.BuildTopology();
  std::vector<sim::GroupId> rooms;
  for (sim::NodeId id = 0; id < topo.num_nodes(); ++id) rooms.push_back(topo.room(id));
  data::RoomCorrelatedGenerator gen(rooms, scenario.modality, 100.0 * 0.02, 100.0 * 0.01,
                                    util::Rng(777), /*global_sigma=*/100.0 * 0.03,
                                    /*quantize_step=*/100.0 * 0.01);
  core::QuerySpec spec;
  spec.k = 2;
  spec.agg = agg::AggKind::kAvg;
  spec.grouping = core::Grouping::kRoom;
  spec.domain_max = 100.0;
  core::Oracle oracle(&topo, &gen, spec);
  ASSERT_EQ(per_epoch.size(), 10u);
  for (sim::Epoch e = 0; e < 10; ++e) {
    EXPECT_TRUE(per_epoch[e].Matches(oracle.TopK(e))) << "epoch " << e;
  }
}

// Historic pipeline over genuinely stored windows: generator -> per-node
// HistoryStore (ring + flash archive) -> TJA == reference.
TEST(IntegrationTest, StoredWindowsFeedTja) {
  auto bed = kspot::testing::TestBed::Grid(16, 4, 909);
  data::RandomWalkGenerator gen(16, data::Modality::kTemperature, 0.5, util::Rng(13));
  std::vector<storage::HistoryStore> stores;
  for (int i = 0; i < 16; ++i) stores.emplace_back(24, /*archive_to_flash=*/true, -20.0, 60.0);
  for (sim::Epoch e = 0; e < 40; ++e) {  // longer than the window: archives spill to flash
    for (sim::NodeId id = 1; id < 16; ++id) {
      stores[id].Append(e, gen.Value(id, e));
    }
  }
  storage::StoreHistorySource source(&stores);
  EXPECT_EQ(source.window_size(), 24u);
  // Flash archiving actually happened on eviction.
  EXPECT_GT(stores[1].flash_writes() + stores[1].ArchivedTopK(1).size(), 0u);

  core::HistoricOptions opt;
  opt.k = 3;
  core::Tja tja(bed.net.get(), &source, opt);
  auto got = tja.Run();
  ASSERT_EQ(got.items.size(), 3u);

  agg::GroupView reference;
  for (sim::NodeId id = 1; id < 16; ++id) {
    auto w = source.MaterializeWindow(id);
    for (size_t t = 0; t < w.size(); ++t) {
      reference.AddReading(static_cast<sim::GroupId>(t), w[t]);
    }
  }
  auto want = reference.TopK(agg::AggKind::kAvg, 3);
  for (size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(got.items[i].group, want[i].group);
    EXPECT_NEAR(got.items[i].value, want[i].value, 1e-9);
  }
}

// The paper's full demo loop on the Figure-1 scenario through SQL, with the
// naive-vs-MINT anomaly visible end to end.
TEST(IntegrationTest, Figure1DemoThroughSql) {
  system::QueryCoordinator::Options opt;
  opt.epochs = 4;
  opt.seed = 1;
  opt.make_generator = [](const system::Scenario&, uint64_t) {
    return std::make_unique<data::ConstantGenerator>(sim::Figure1Readings());
  };
  system::QueryCoordinator coordinator(system::Scenario::Figure1(), opt);
  const char* sql =
      "SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid EPOCH DURATION 1 min";
  ASSERT_TRUE(coordinator.Admit(sql).ok());
  auto report = coordinator.Run();
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report.value().outcomes.at(0).per_epoch.size(), 4u);
  for (const auto& r : report.value().outcomes.at(0).per_epoch) {
    ASSERT_EQ(r.items.size(), 1u);
    EXPECT_EQ(r.items[0].group, 2);                // room C, not the naive (D, 76.5)
    EXPECT_DOUBLE_EQ(r.items[0].value, 75.0);
  }
  auto baseline = system::TagBaselineCost(coordinator.deployment(), opt, sql);
  ASSERT_TRUE(baseline.ok());
  system::SystemPanel panel;
  panel.RecordKspotEpoch(report.value().total);
  for (const sim::TrafficCounters& epoch : baseline.value()) panel.RecordBaselineEpoch(epoch);
  EXPECT_GE(panel.MessageSavingsPercent(), 0.0);
}

}  // namespace
}  // namespace kspot
