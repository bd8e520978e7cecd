#include <gtest/gtest.h>

#include "kspot/coordinator.hpp"
#include "kspot/display_panel.hpp"
#include "kspot/scenario_config.hpp"
#include "kspot/system_panel.hpp"

namespace kspot::system {
namespace {

// ----------------------------------------------------------------- Scenario

TEST(ScenarioTest, TextRoundTrip) {
  Scenario s = Scenario::Figure1();
  std::string text = s.ToText();
  auto parsed = Scenario::FromText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().message();
  const Scenario& p = parsed.value();
  EXPECT_EQ(p.name, "figure1");
  EXPECT_EQ(p.nodes.size(), 10u);
  EXPECT_EQ(p.ClusterName(2), "C");
  EXPECT_DOUBLE_EQ(p.comm_range, 8.0);
  EXPECT_EQ(p.modality, data::Modality::kSound);
}

TEST(ScenarioTest, FileRoundTrip) {
  Scenario s = Scenario::ConferenceFloor(6, 3, 7);
  std::string path = ::testing::TempDir() + "/kspot_scenario_test.kcfg";
  ASSERT_TRUE(s.Save(path));
  auto loaded = Scenario::Load(path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded.value().nodes.size(), s.nodes.size());
  EXPECT_EQ(loaded.value().cluster_names.size(), 6u);
}

TEST(ScenarioTest, RejectsMalformedInput) {
  EXPECT_FALSE(Scenario::FromText("").ok());
  EXPECT_FALSE(Scenario::FromText("garbage directive\n").ok());
  EXPECT_FALSE(Scenario::FromText("node 1 0 0 0\n").ok());  // no sink
  EXPECT_FALSE(Scenario::FromText("modality warp\nnode 0 0 0 0\n").ok());
  EXPECT_FALSE(Scenario::Load("/nonexistent/path.kcfg").ok());
}

TEST(ScenarioTest, RejectsRoomIdsOutsideU16WithLineNumber) {
  for (const char* room : {"-1", "65536"}) {
    std::string node_text = std::string("node 0 0 0 0\nnode 1 1 1 ") + room + "\n";
    auto node = Scenario::FromText(node_text);
    ASSERT_FALSE(node.ok()) << room;
    EXPECT_NE(node.status().message().find("scenario line 2"), std::string::npos)
        << node.status().message();
    EXPECT_NE(node.status().message().find(room), std::string::npos)
        << node.status().message();
    auto cluster = Scenario::FromText(std::string("cluster ") + room + " hall\nnode 0 0 0 0\n");
    ASSERT_FALSE(cluster.ok()) << room;
    EXPECT_NE(cluster.status().message().find("scenario line 1"), std::string::npos)
        << cluster.status().message();
  }
  // Both ends of the range are accepted.
  auto edges = Scenario::FromText("cluster 65535 top\nnode 0 0 0 0\nnode 1 1 1 0\n"
                                  "node 2 2 2 65535\n");
  ASSERT_TRUE(edges.ok()) << edges.status().message();
  EXPECT_EQ(edges.value().nodes[2].room, 65535);
}

TEST(ScenarioTest, RejectsBadNodeIdsWithLineNumber) {
  // -1 would cast to kNoNode; 2^32 would wrap to 0 and become a second sink.
  for (const char* id : {"-1", "4294967295", "4294967296", "1"}) {
    auto parsed = Scenario::FromText(std::string("node 0 0 0 0\nnode 1 1 1 0\nnode ") + id +
                                     " 2 2 0\n");
    ASSERT_FALSE(parsed.ok()) << id;
    EXPECT_NE(parsed.status().message().find("scenario line 3"), std::string::npos)
        << parsed.status().message();
    EXPECT_NE(parsed.status().message().find(id), std::string::npos)
        << parsed.status().message();
  }
  // The largest real id is accepted.
  auto edge = Scenario::FromText("node 0 0 0 0\nnode 4294967294 1 1 0\n");
  ASSERT_TRUE(edge.ok()) << edge.status().message();
  EXPECT_EQ(edge.value().nodes[1].id, 4294967294u);
}

TEST(ScenarioTest, BuildTopologyMapsRooms) {
  Scenario s = Scenario::Figure1();
  sim::Topology t = s.BuildTopology();
  EXPECT_EQ(t.num_nodes(), 10u);
  EXPECT_EQ(t.room(9), 3);
  EXPECT_TRUE(t.IsConnected());
}

TEST(ScenarioTest, ConferenceFloorShape) {
  Scenario s = Scenario::ConferenceFloor(6, 4, 3);
  EXPECT_EQ(s.nodes.size(), 1 + 6 * 4);
  EXPECT_EQ(s.ClusterName(0), "Auditorium");
  sim::Topology t = s.BuildTopology();
  EXPECT_EQ(t.NodesInRoom(0).size(), 4u);
}

// -------------------------------------------------------------------- Panels

TEST(DisplayPanelTest, RendersMapAndBullets) {
  Scenario s = Scenario::Figure1();
  DisplayPanel panel(&s, 40, 12);
  std::string map = panel.RenderMap();
  EXPECT_NE(map.find('#'), std::string::npos);   // sink
  EXPECT_NE(map.find('C'), std::string::npos);   // a room-C sensor
  core::TopKResult result;
  result.epoch = 7;
  result.items = {{2, 75.0}, {0, 74.5}};
  std::string bullets = panel.RenderBullets(result);
  EXPECT_NE(bullets.find("(1) C 75.00"), std::string::npos);
  EXPECT_NE(bullets.find("(2) A 74.50"), std::string::npos);
  std::string frame = panel.RenderFrame(result);
  EXPECT_NE(frame.find("Display Panel"), std::string::npos);
}

TEST(SystemPanelTest, SavingsMath) {
  SystemPanel panel;
  sim::TrafficCounters kspot;
  kspot.messages = 25;
  kspot.payload_bytes = 500;
  kspot.tx_energy_j = 0.5;
  sim::TrafficCounters baseline;
  baseline.messages = 100;
  baseline.payload_bytes = 1000;
  baseline.tx_energy_j = 1.0;
  panel.RecordKspotEpoch(kspot);
  panel.RecordBaselineEpoch(baseline);
  EXPECT_DOUBLE_EQ(panel.MessageSavingsPercent(), 75.0);
  EXPECT_DOUBLE_EQ(panel.ByteSavingsPercent(), 50.0);
  EXPECT_DOUBLE_EQ(panel.EnergySavingsPercent(), 50.0);
  std::string text = panel.Render();
  EXPECT_NE(text.find("System Panel"), std::string::npos);
  EXPECT_NE(text.find("75.0%"), std::string::npos);
}

// ------------------------------------------------- Serving with the panel

constexpr const char* kSnapshotSql =
    "SELECT TOP 3 roomid, AVG(sound) FROM sensors GROUP BY roomid";
constexpr const char* kVerticalSql =
    "SELECT TOP 3 epoch, AVG(sound) FROM sensors GROUP BY epoch WITH HISTORY 128";
constexpr const char* kHorizontalSql =
    "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid WITH HISTORY 8";

QueryCoordinator::Options SmallRun(size_t epochs = 10, uint64_t seed = 99) {
  QueryCoordinator::Options opt;
  opt.epochs = epochs;
  opt.seed = seed;
  return opt;
}

/// One query served alone, with the System Panel fed the way a dashboard
/// feeds it: KSpot's bill from every EpochUpdate, TAG's from the baseline.
struct PanelRun {
  QueryOutcome outcome;
  sim::TrafficCounters kspot;
  sim::TrafficCounters baseline;
  SystemPanel panel;
};

PanelRun ServeWithPanel(const Scenario& scenario, const QueryCoordinator::Options& opt,
                        const std::string& sql) {
  PanelRun run;
  QueryCoordinator coordinator(scenario, opt);
  EXPECT_TRUE(coordinator.Admit(sql).ok()) << sql;
  auto baseline = TagBaselineCost(coordinator.deployment(), opt, sql);
  EXPECT_TRUE(baseline.ok()) << baseline.status().message();
  for (const sim::TrafficCounters& epoch : baseline.value()) {
    run.panel.RecordBaselineEpoch(epoch);
    run.baseline.Add(epoch);
  }
  EXPECT_TRUE(coordinator.Open().ok());
  for (size_t e = 0; e < opt.epochs; ++e) {
    EpochUpdate update = coordinator.StepEpoch().value();
    run.panel.RecordKspotEpoch(update.epoch_cost);
    if (opt.enable_churn) {
      SystemPanel::NodeStatus status;
      status.total = coordinator.deployment().topology.num_nodes();
      status.up = update.alive;
      status.detached = update.detached;
      status.repair_events = update.repair_events;
      status.repair_messages = update.repair_messages;
      run.panel.RecordNodeStatus(status);
    }
  }
  CoordinatorReport report = coordinator.Close().value();
  run.kspot = report.total;
  run.outcome = report.outcomes.at(0);
  return run;
}

TEST(PanelServingTest, SnapshotTopKRunsMintAndSaves) {
  PanelRun r = ServeWithPanel(Scenario::ConferenceFloor(6, 3, 5), SmallRun(15), kSnapshotSql);
  EXPECT_EQ(r.outcome.algorithm, "MINT");
  EXPECT_EQ(r.outcome.per_epoch.size(), 15u);
  for (const auto& epoch : r.outcome.per_epoch) EXPECT_EQ(epoch.items.size(), 3u);
  EXPECT_LT(r.kspot.payload_bytes, r.baseline.payload_bytes);
  EXPECT_GT(r.panel.ByteSavingsPercent(), 0.0);
}

TEST(PanelServingTest, HistoricVerticalTjaUndercutsCentralizedTag) {
  // Historic queries are about *long* buffers (months of readings in the
  // paper's example); a window much larger than the candidate union is
  // TJA's regime.
  PanelRun r = ServeWithPanel(Scenario::ConferenceFloor(4, 3, 5), SmallRun(), kVerticalSql);
  EXPECT_EQ(r.outcome.algorithm, "TJA");
  EXPECT_EQ(r.outcome.historic.items.size(), 3u);
  EXPECT_GE(r.outcome.historic.lsink_size, 3u);
  EXPECT_LT(r.kspot.payload_bytes, r.baseline.payload_bytes);
}

TEST(PanelServingTest, ChurnDrivesFaultInjectionAndNodeStatus) {
  // Moderate churn: at high crash rates MINT's per-repair view rebuilds
  // erode its savings (that trade-off is E14's subject, not this test's).
  QueryCoordinator::Options opt = SmallRun(40);
  opt.enable_churn = true;
  opt.churn.crash_prob = 0.005;
  opt.churn.mean_downtime = 8;
  Scenario floor = Scenario::ConferenceFloor(6, 3, 5);
  PanelRun r = ServeWithPanel(floor, opt, kSnapshotSql);
  EXPECT_EQ(r.outcome.per_epoch.size(), 40u);
  // The System Panel surfaces node status once churn ran.
  const SystemPanel::NodeStatus& status = r.panel.node_status();
  EXPECT_EQ(status.total, floor.nodes.size());
  EXPECT_GT(status.up, 0u);
  EXPECT_GT(status.repair_events, 0u);
  EXPECT_GT(status.repair_messages, 0u);
  EXPECT_NE(r.panel.Render().find("nodes up"), std::string::npos);
  EXPECT_NE(r.panel.Render().find("tree repairs"), std::string::npos);
  // Repair traffic is charged: the same plan hits both runs, and MINT still
  // undercuts the TAG baseline.
  EXPECT_LT(r.kspot.payload_bytes, r.baseline.payload_bytes);

  PanelRun calm = ServeWithPanel(Scenario::ConferenceFloor(4, 3, 5), SmallRun(5),
                                 "SELECT TOP 2 roomid, AVG(sound) FROM sensors GROUP BY roomid");
  EXPECT_EQ(calm.panel.node_status().total, 0u);
  EXPECT_EQ(calm.panel.Render().find("nodes up"), std::string::npos);
}

TEST(PanelServingTest, Figure1ScenarioEndToEnd) {
  QueryCoordinator::Options opt = SmallRun(3);
  opt.make_generator = [](const Scenario&, uint64_t) {
    return std::make_unique<data::ConstantGenerator>(sim::Figure1Readings());
  };
  PanelRun r = ServeWithPanel(Scenario::Figure1(), opt,
                              "SELECT TOP 1 roomid, AVERAGE(sound) FROM sensors GROUP BY roomid");
  ASSERT_EQ(r.outcome.per_epoch.size(), 3u);
  for (const auto& epoch : r.outcome.per_epoch) {
    ASSERT_EQ(epoch.items.size(), 1u);
    EXPECT_EQ(epoch.items[0].group, 2);  // room C
    EXPECT_DOUBLE_EQ(epoch.items[0].value, 75.0);
  }
  EXPECT_GE(r.panel.MessageSavingsPercent(), 0.0);
}

// ------------------------------------------------------------ TAG baseline

sim::TrafficCounters Sum(const std::vector<sim::TrafficCounters>& per_epoch) {
  sim::TrafficCounters total;
  for (const sim::TrafficCounters& epoch : per_epoch) total.Add(epoch);
  return total;
}

TEST(TagBaselineCostTest, ReproducesPinnedShadowFigures) {
  // TAG's cost on ConferenceFloor(6,3,5), seed 42, 25 epochs, as the
  // hand-built shadow TAG run (its own network, tree copy, generator and
  // fault plan) reported it. The baseline now reuses a session for the
  // TOP-less twin and must reproduce every figure bit for bit.
  struct Pin {
    const char* name;
    const char* sql;
    void (*configure)(DeploymentConfig&);
    uint64_t messages;
    uint64_t payload_bytes;
    double energy_j;
  };
  const Pin pins[] = {
      {"lossless", kSnapshotSql, [](DeploymentConfig&) {}, 450, 10350, 0.59835937499999647},
      {"loss 8% x1 retry", kSnapshotSql,
       [](DeploymentConfig& c) {
         c.loss_prob = 0.08;
         c.max_retries = 1;
       },
       488, 11228, 0.63419874999999637},
      {"churn", kSnapshotSql,
       [](DeploymentConfig& c) {
         c.enable_churn = true;
         c.churn.crash_prob = 0.01;
         c.churn.mean_downtime = 5;
       },
       403, 8893, 0.52033562499999775},
      {"battery 0.5 J", kSnapshotSql, [](DeploymentConfig& c) { c.battery_j = 0.5; }, 450,
       10350, 0.59835937499999647},
      {"vertical", kVerticalSql, [](DeploymentConfig&) {}, 18, 27774, 1.2491662499999996},
      {"horizontal", kHorizontalSql, [](DeploymentConfig&) {}, 450, 10350,
       0.59835937499999647},
      // TAG's traffic depends on neither K nor the readings, so TAG over
      // window aggregates under the session's fault plan costs what the
      // snapshot twin does under churn.
      {"horizontal churn", kHorizontalSql,
       [](DeploymentConfig& c) {
         c.enable_churn = true;
         c.churn.crash_prob = 0.01;
         c.churn.mean_downtime = 5;
       },
       403, 8893, 0.52033562499999775},
  };
  Deployment deployment(Scenario::ConferenceFloor(6, 3, 5), 42);
  for (const Pin& pin : pins) {
    SCOPED_TRACE(pin.name);
    DeploymentConfig config;
    config.epochs = 25;
    config.seed = 42;
    pin.configure(config);
    auto cost = TagBaselineCost(deployment, config, pin.sql);
    ASSERT_TRUE(cost.ok()) << cost.status().message();
    EXPECT_EQ(cost.value().size(), std::string(pin.sql) == kVerticalSql ? 1u : 25u);
    sim::TrafficCounters total = Sum(cost.value());
    EXPECT_EQ(total.messages, pin.messages);
    EXPECT_EQ(total.payload_bytes, pin.payload_bytes);
    EXPECT_EQ(total.energy_j(), pin.energy_j);
  }
}

TEST(TagBaselineCostTest, RefillsRetryBudgetsEveryEpoch) {
  // Adaptive ARQ with a 2-retry budget per node and epoch under 30% loss:
  // a baseline that never refills the budgets stops retrying after a few
  // epochs and understates TAG's cost (486 messages instead of 668).
  Deployment deployment(Scenario::ConferenceFloor(6, 3, 5), 42);
  DeploymentConfig config;
  config.epochs = 25;
  config.seed = 42;
  config.loss_prob = 0.3;
  config.reliability.enabled = true;
  config.reliability.retry_budget = 2;
  for (const char* sql : {kSnapshotSql, kHorizontalSql}) {
    SCOPED_TRACE(sql);
    auto cost = TagBaselineCost(deployment, config, sql);
    ASSERT_TRUE(cost.ok()) << cost.status().message();
    ASSERT_EQ(cost.value().size(), 25u);
    for (size_t e = 0; e < cost.value().size(); ++e) {
      EXPECT_GT(cost.value()[e].retries, 0u) << "epoch " << e;
    }
  }
  EXPECT_EQ(Sum(TagBaselineCost(deployment, config, kSnapshotSql).value()).messages, 668u);
}

TEST(TagBaselineCostTest, SurfacesQueryErrors) {
  Deployment deployment(Scenario::ConferenceFloor(4, 3, 5), 1);
  DeploymentConfig config;
  EXPECT_FALSE(TagBaselineCost(deployment, config, "SELECT").ok());
  EXPECT_FALSE(TagBaselineCost(deployment, config, "SELECT bogus FROM sensors").ok());
  EXPECT_FALSE(
      TagBaselineCost(deployment, config, "SELECT TOP 2 roomid, AVG(sound) FROM sensors").ok());
}

TEST(TagBaselineCostTest, UngroupedSelectIsItsOwnBaseline) {
  // Tuple collection is already what TAG would do: the baseline serves the
  // query itself, so the panel reports no savings.
  const char* sql = "SELECT nodeid, sound FROM sensors WHERE sound > 40";
  PanelRun r = ServeWithPanel(Scenario::ConferenceFloor(4, 3, 5), SmallRun(6), sql);
  EXPECT_EQ(r.outcome.algorithm, "SELECT");
  EXPECT_EQ(r.kspot.messages, r.baseline.messages);
  EXPECT_EQ(r.kspot.payload_bytes, r.baseline.payload_bytes);
  EXPECT_DOUBLE_EQ(r.panel.MessageSavingsPercent(), 0.0);
}

}  // namespace
}  // namespace kspot::system
