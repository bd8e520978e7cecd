#include <gtest/gtest.h>

#include "core/select.hpp"
#include "kspot/coordinator.hpp"
#include "kspot/scenario_config.hpp"
#include "test_util.hpp"

namespace kspot::core {
namespace {

using kspot::testing::TestBed;

TEST(PredicateTest, AllOperators) {
  query::Predicate p;
  p.literal = 50.0;
  p.op = query::CompareOp::kLt;
  EXPECT_TRUE(EvalPredicate(p, 49));
  EXPECT_FALSE(EvalPredicate(p, 50));
  p.op = query::CompareOp::kLe;
  EXPECT_TRUE(EvalPredicate(p, 50));
  EXPECT_FALSE(EvalPredicate(p, 51));
  p.op = query::CompareOp::kGt;
  EXPECT_TRUE(EvalPredicate(p, 51));
  EXPECT_FALSE(EvalPredicate(p, 50));
  p.op = query::CompareOp::kGe;
  EXPECT_TRUE(EvalPredicate(p, 50));
  EXPECT_FALSE(EvalPredicate(p, 49));
  p.op = query::CompareOp::kEq;
  EXPECT_TRUE(EvalPredicate(p, 50));
  EXPECT_FALSE(EvalPredicate(p, 50.5));
  p.op = query::CompareOp::kNe;
  EXPECT_TRUE(EvalPredicate(p, 50.5));
  EXPECT_FALSE(EvalPredicate(p, 50));
}

TEST(BasicSelectTest, CollectsAllTuplesWithoutPredicate) {
  auto bed = TestBed::Grid(16, 4, 701);
  data::UniformGenerator gen(16, data::Modality::kSound, util::Rng(3));
  BasicSelect select(bed.net.get(), &gen, /*has_predicate=*/false, query::Predicate{});
  auto rows = select.RunEpoch(0);
  ASSERT_EQ(rows.size(), 15u);
  for (size_t i = 0; i < rows.size(); ++i) {
    EXPECT_EQ(rows[i].node, static_cast<sim::NodeId>(i + 1));
    EXPECT_EQ(rows[i].room, bed.topology.room(rows[i].node));
  }
}

TEST(BasicSelectTest, PredicateFiltersAtSource) {
  auto bed = TestBed::Grid(16, 4, 703);
  data::UniformGenerator gen(16, data::Modality::kSound, util::Rng(5));
  data::UniformGenerator check(16, data::Modality::kSound, util::Rng(5));
  query::Predicate p;
  p.attribute = "sound";
  p.op = query::CompareOp::kGt;
  p.literal = 60.0;
  BasicSelect select(bed.net.get(), &gen, /*has_predicate=*/true, p);
  for (sim::Epoch e = 0; e < 5; ++e) {
    auto rows = select.RunEpoch(e);
    size_t expected = 0;
    for (sim::NodeId id = 1; id < 16; ++id) expected += check.Value(id, e) > 60.0;
    EXPECT_EQ(rows.size(), expected) << "epoch " << e;
    for (const auto& row : rows) EXPECT_GT(row.value, 60.0);
  }
}

TEST(BasicSelectTest, SelectiveQueriesAreCheaper) {
  auto all_bed = TestBed::Grid(36, 4, 707);
  auto few_bed = TestBed::Grid(36, 4, 707);
  data::UniformGenerator gen_all(36, data::Modality::kSound, util::Rng(7));
  data::UniformGenerator gen_few(36, data::Modality::kSound, util::Rng(7));
  query::Predicate p;
  p.op = query::CompareOp::kGt;
  p.literal = 95.0;  // ~5% selectivity
  BasicSelect all(all_bed.net.get(), &gen_all, false, query::Predicate{});
  BasicSelect few(few_bed.net.get(), &gen_few, true, p);
  for (sim::Epoch e = 0; e < 10; ++e) {
    all.RunEpoch(e);
    few.RunEpoch(e);
  }
  EXPECT_LT(few_bed.net->total().payload_bytes, all_bed.net->total().payload_bytes / 2);
  EXPECT_LT(few_bed.net->total().messages, all_bed.net->total().messages);
}

TEST(BasicSelectTest, CoordinatorRoutesUngroupedSelect) {
  system::QueryCoordinator::Options opt;
  opt.epochs = 4;
  opt.seed = 9;
  system::QueryCoordinator coordinator(system::Scenario::ConferenceFloor(4, 3, 9), opt);
  ASSERT_TRUE(coordinator.Admit("SELECT nodeid, sound FROM sensors WHERE sound > 0").ok());
  auto report = coordinator.Run();
  ASSERT_TRUE(report.ok()) << report.status().message();
  const system::QueryOutcome& outcome = report.value().outcomes.at(0);
  EXPECT_EQ(outcome.algorithm, "SELECT");
  ASSERT_EQ(outcome.rows_per_epoch.size(), 4u);
  EXPECT_EQ(outcome.rows_per_epoch[0].size(), 12u);  // sound > 0 always true
  EXPECT_TRUE(outcome.per_epoch.empty());
}

TEST(BasicSelectTest, CoordinatorRoutesGroupedSelectToTag) {
  system::QueryCoordinator::Options opt;
  opt.epochs = 3;
  opt.seed = 9;
  system::QueryCoordinator coordinator(system::Scenario::ConferenceFloor(4, 3, 9), opt);
  ASSERT_TRUE(coordinator.Admit("SELECT roomid, AVG(sound) FROM sensors GROUP BY roomid").ok());
  auto report = coordinator.Run();
  ASSERT_TRUE(report.ok());
  const system::QueryOutcome& outcome = report.value().outcomes.at(0);
  EXPECT_EQ(outcome.algorithm, "TAG");
  EXPECT_EQ(outcome.query_class, query::QueryClass::kBasicSelect);
  // Without a TOP clause, every room is reported.
  EXPECT_EQ(outcome.per_epoch.at(0).items.size(), 4u);
}

TEST(BasicSelectTest, SilentWhenNothingMatches) {
  auto bed = TestBed::Grid(16, 4, 709);
  data::UniformGenerator gen(16, data::Modality::kSound, util::Rng(11));
  query::Predicate p;
  p.op = query::CompareOp::kGt;
  p.literal = 1000.0;  // impossible for the sound domain
  BasicSelect select(bed.net.get(), &gen, true, p);
  auto rows = select.RunEpoch(0);
  EXPECT_TRUE(rows.empty());
  EXPECT_EQ(bed.net->total().messages, 0u);  // acquisitional: nobody speaks
}

}  // namespace
}  // namespace kspot::core
