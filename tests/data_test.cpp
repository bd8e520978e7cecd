#include <gtest/gtest.h>

#include <cmath>

#include "data/generators.hpp"
#include "data/modality.hpp"
#include "data/windowed.hpp"
#include "kspot/scenario_config.hpp"
#include "sim/topology.hpp"
#include "util/fixed_point.hpp"
#include "util/rng.hpp"

namespace kspot::data {
namespace {

constexpr size_t kNodes = 20;

template <typename Gen>
void ExpectDomainAndDeterminism(Gen& gen) {
  const ModalityInfo& info = gen.modality();
  for (sim::Epoch e = 0; e < 30; ++e) {
    for (sim::NodeId id = 1; id < kNodes; ++id) {
      double v1 = gen.Value(id, e);
      double v2 = gen.Value(id, e);  // repeat query of same epoch
      EXPECT_DOUBLE_EQ(v1, v2);
      EXPECT_GE(v1, info.min_value);
      EXPECT_LE(v1, info.max_value);
      // Values live on the fixed-point grid (source quantization).
      EXPECT_DOUBLE_EQ(v1, util::fixed_point::Quantize(v1));
    }
  }
}

TEST(ModalityTest, LookupAndParse) {
  const ModalityInfo& sound = GetModalityInfo(Modality::kSound);
  EXPECT_EQ(sound.name, "sound");
  EXPECT_DOUBLE_EQ(sound.max_value, 100.0);
  Modality m;
  EXPECT_TRUE(ParseModality("TEMPERATURE", &m));
  EXPECT_EQ(m, Modality::kTemperature);
  EXPECT_FALSE(ParseModality("flux", &m));
}

TEST(ConstantGeneratorTest, ReturnsFixedValues) {
  ConstantGenerator gen({0, 10, 20, 30}, Modality::kSound);
  EXPECT_DOUBLE_EQ(gen.Value(1, 0), 10.0);
  EXPECT_DOUBLE_EQ(gen.Value(1, 99), 10.0);
  EXPECT_DOUBLE_EQ(gen.Value(3, 5), 30.0);
  EXPECT_DOUBLE_EQ(gen.Value(9, 0), 0.0);  // out of range -> 0
}

TEST(UniformGeneratorTest, DomainAndDeterminism) {
  UniformGenerator gen(kNodes, Modality::kSound, util::Rng(5));
  ExpectDomainAndDeterminism(gen);
}

TEST(UniformGeneratorTest, SameSeedSameSeries) {
  UniformGenerator a(kNodes, Modality::kLight, util::Rng(9));
  UniformGenerator b(kNodes, Modality::kLight, util::Rng(9));
  for (sim::Epoch e = 0; e < 10; ++e) {
    for (sim::NodeId id = 1; id < kNodes; ++id) {
      EXPECT_DOUBLE_EQ(a.Value(id, e), b.Value(id, e));
    }
  }
}

TEST(GaussianGeneratorTest, CentersOnMeans) {
  GaussianGenerator gen(kNodes, Modality::kSound, 1.0, util::Rng(7));
  ExpectDomainAndDeterminism(gen);
  // Averaged over epochs, node values should stay near their per-node mean:
  // variance of the mean of 200 samples with sigma=1 is tiny.
  double first_epoch = gen.Value(1, 0);
  double acc = 0;
  for (sim::Epoch e = 0; e < 200; ++e) acc += gen.Value(1, e);
  EXPECT_NEAR(acc / 200.0, first_epoch, 3.0);
}

TEST(RandomWalkGeneratorTest, StepsAreBounded) {
  RandomWalkGenerator gen(kNodes, Modality::kSound, 0.5, util::Rng(11));
  ExpectDomainAndDeterminism(gen);
}

TEST(RandomWalkGeneratorTest, VolatilityScalesWithSigma) {
  RandomWalkGenerator calm(kNodes, Modality::kSound, 0.1, util::Rng(13));
  RandomWalkGenerator wild(kNodes, Modality::kSound, 5.0, util::Rng(13));
  double calm_move = 0, wild_move = 0;
  double calm_prev = calm.Value(1, 0), wild_prev = wild.Value(1, 0);
  for (sim::Epoch e = 1; e < 100; ++e) {
    calm_move += std::abs(calm.Value(1, e) - calm_prev);
    wild_move += std::abs(wild.Value(1, e) - wild_prev);
    calm_prev = calm.Value(1, e);
    wild_prev = wild.Value(1, e);
  }
  EXPECT_LT(calm_move * 4, wild_move);
}

TEST(RoomCorrelatedGeneratorTest, NodesInSameRoomCorrelate) {
  // Rooms: nodes 1-5 in room 0, nodes 6-10 in room 1.
  std::vector<sim::GroupId> rooms(11, 0);
  for (sim::NodeId id = 6; id <= 10; ++id) rooms[id] = 1;
  RoomCorrelatedGenerator gen(rooms, Modality::kSound, 2.0, 0.5, util::Rng(17));
  ExpectDomainAndDeterminism(gen);
  // Same-room spread should be much smaller than the room separation on
  // average (not guaranteed per epoch; average over many).
  double within = 0, across = 0;
  for (sim::Epoch e = 0; e < 100; ++e) {
    within += std::abs(gen.Value(1, e) - gen.Value(2, e));
    across += std::abs(gen.Value(1, e) - gen.Value(6, e));
  }
  EXPECT_LT(within, across);
}

/// FNV-1a over the fixed-point encoding of every reading of nodes [0, n) for
/// epochs [0, epochs), in epoch-major order.
uint64_t ReadingsDigest(DataGenerator& gen, size_t n, sim::Epoch epochs) {
  uint64_t h = 1469598103934665603ULL;
  for (sim::Epoch e = 0; e < epochs; ++e) {
    gen.PrepareEpoch(e);
    for (sim::NodeId id = 0; id < n; ++id) {
      auto v = static_cast<uint32_t>(util::fixed_point::Encode(gen.Value(id, e)));
      for (int i = 0; i < 4; ++i) {
        h ^= (v >> (8 * i)) & 0xFF;
        h *= 1099511628211ULL;
      }
    }
  }
  return h;
}

std::vector<sim::GroupId> RoomsOf(const sim::Topology& topology) {
  std::vector<sim::GroupId> rooms;
  for (sim::NodeId id = 0; id < topology.num_nodes(); ++id) rooms.push_back(topology.room(id));
  return rooms;
}

// Pins 200 epochs of the room-correlated reading stream. Every epoch the
// room walk draws one Gaussian per room, in an order fixed at construction
// that is not ascending by room id; these digests catch any change to that
// order, to the per-node room lookup or to the draw sequence.
TEST(RoomCorrelatedGeneratorTest, ReadingStreamPinnedOnManyRooms) {
  sim::TopologyOptions topt;
  topt.num_nodes = 640;
  topt.num_rooms = 64;
  sim::Topology grid = sim::MakeGrid(topt);
  ASSERT_EQ(grid.DistinctRooms().size(), 64u);
  RoomCorrelatedGenerator grid_gen(RoomsOf(grid), Modality::kSound, 1.5, 0.5, util::Rng(91),
                                   /*global_sigma=*/0.8);
  EXPECT_EQ(ReadingsDigest(grid_gen, grid.num_nodes(), 200), 0x80714c72f19f1e10ULL);

  sim::Topology floor = system::Scenario::ConferenceFloor(12, 9, 5).BuildTopology();
  RoomCorrelatedGenerator floor_gen(RoomsOf(floor), Modality::kSound, 2.0, 1.0, util::Rng(93),
                                    /*global_sigma=*/3.0, /*quantize_step=*/1.0);
  EXPECT_EQ(ReadingsDigest(floor_gen, floor.num_nodes(), 200), 0x4e64fd458987d55aULL);
}

TEST(SpikeGeneratorTest, SpikesAppearAtRoughlyTheConfiguredRate) {
  SpikeGenerator gen(kNodes, Modality::kSound, 20.0, 0.05, util::Rng(19));
  ExpectDomainAndDeterminism(gen);
  int spikes = 0, total = 0;
  for (sim::Epoch e = 0; e < 300; ++e) {
    for (sim::NodeId id = 1; id < kNodes; ++id) {
      spikes += gen.Value(id, e) > 80.0;
      ++total;
    }
  }
  double rate = static_cast<double>(spikes) / total;
  EXPECT_NEAR(rate, 0.05, 0.02);
}

TEST(TraceGeneratorTest, ReplaysAndWraps) {
  std::vector<std::vector<double>> m = {{0, 1, 2}, {0, 3, 4}};
  TraceGenerator gen(m, Modality::kSound);
  EXPECT_EQ(gen.trace_length(), 2u);
  EXPECT_DOUBLE_EQ(gen.Value(1, 0), 1.0);
  EXPECT_DOUBLE_EQ(gen.Value(2, 1), 4.0);
  EXPECT_DOUBLE_EQ(gen.Value(1, 2), 1.0);  // wrap
  EXPECT_DOUBLE_EQ(gen.Value(2, 5), 4.0);
}

TEST(WindowAggregateGeneratorTest, AveragesSlidingWindow) {
  std::vector<std::vector<double>> m = {{0, 10}, {0, 20}, {0, 30}, {0, 40}};
  TraceGenerator inner(m, Modality::kSound);
  WindowAggregateGenerator gen(&inner, 2, /*window=*/2, agg::AggKind::kAvg);
  EXPECT_DOUBLE_EQ(gen.Value(1, 0), 10.0);          // only one sample yet
  EXPECT_DOUBLE_EQ(gen.Value(1, 1), 15.0);          // (10+20)/2
  EXPECT_DOUBLE_EQ(gen.Value(1, 2), 25.0);          // (20+30)/2
  EXPECT_DOUBLE_EQ(gen.Value(1, 3), 35.0);          // (30+40)/2
}

TEST(WindowAggregateGeneratorTest, MaxAndMinKinds) {
  std::vector<std::vector<double>> m = {{0, 10}, {0, 40}, {0, 20}};
  TraceGenerator inner_max(m, Modality::kSound);
  WindowAggregateGenerator gmax(&inner_max, 2, 3, agg::AggKind::kMax);
  EXPECT_DOUBLE_EQ(gmax.Value(1, 2), 40.0);
  TraceGenerator inner_min(m, Modality::kSound);
  WindowAggregateGenerator gmin(&inner_min, 2, 3, agg::AggKind::kMin);
  EXPECT_DOUBLE_EQ(gmin.Value(1, 2), 10.0);
}

}  // namespace
}  // namespace kspot::data
