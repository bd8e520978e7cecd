#include <gtest/gtest.h>

#include <functional>
#include <memory>

#include "core/mint.hpp"
#include "core/oracle.hpp"
#include "core/tag.hpp"
#include "fault/churn_engine.hpp"
#include "test_util.hpp"
#include "util/fixed_point.hpp"

namespace kspot::core {
namespace {

using kspot::testing::TestBed;

QuerySpec SoundSpec(int k, agg::AggKind kind = agg::AggKind::kAvg,
                    Grouping grouping = Grouping::kRoom) {
  QuerySpec spec;
  spec.k = k;
  spec.agg = kind;
  spec.grouping = grouping;
  spec.domain_min = 0.0;
  spec.domain_max = 100.0;
  return spec;
}

TEST(MintTest, Figure1CorrectAnswerUnlikeNaive) {
  auto bed = TestBed::Figure1();
  data::ConstantGenerator gen(sim::Figure1Readings());
  MintViews mint(bed.net.get(), &gen, SoundSpec(1));
  for (sim::Epoch e = 0; e < 5; ++e) {
    TopKResult result = mint.RunEpoch(e);
    ASSERT_EQ(result.items.size(), 1u) << "epoch " << e;
    EXPECT_EQ(result.items[0].group, 2) << "epoch " << e;   // room C
    EXPECT_DOUBLE_EQ(result.items[0].value, 75.0);
  }
}

TEST(MintTest, SteadyStateCheaperThanTagOnStableData) {
  auto mint_bed = TestBed::Clustered(61, 6, 211);
  auto tag_bed = TestBed::Clustered(61, 6, 211);
  auto make_gen = [&] {
    std::vector<sim::GroupId> rooms;
    for (sim::NodeId id = 0; id < mint_bed.topology.num_nodes(); ++id) {
      rooms.push_back(mint_bed.topology.room(id));
    }
    // Integer ADC grid: stable readings genuinely repeat, the regime the
    // demo's sound sensors live in.
    return data::RoomCorrelatedGenerator(rooms, data::Modality::kSound, 0.3, 0.2, util::Rng(5),
                                         /*global_sigma=*/0.0, /*quantize_step=*/1.0);
  };
  auto gen_m = make_gen();
  auto gen_t = make_gen();
  QuerySpec spec = SoundSpec(2);
  MintViews mint(mint_bed.net.get(), &gen_m, spec);
  TagTopK tag(tag_bed.net.get(), &gen_t, spec);
  // Skip the creation epoch, then compare steady-state traffic.
  mint.RunEpoch(0);
  tag.RunEpoch(0);
  auto mint_mark = mint_bed.net->total();
  auto tag_mark = tag_bed.net->total();
  for (sim::Epoch e = 1; e <= 20; ++e) {
    mint.RunEpoch(e);
    tag.RunEpoch(e);
  }
  auto mint_cost = mint_bed.net->total().Since(mint_mark);
  auto tag_cost = tag_bed.net->total().Since(tag_mark);
  EXPECT_LT(mint_cost.payload_bytes, tag_cost.payload_bytes);
}

TEST(MintTest, MatchesOracleEveryEpochOnDriftingData) {
  auto bed = TestBed::Clustered(41, 8, 223);
  data::RandomWalkGenerator gen(41, data::Modality::kSound, 2.0, util::Rng(23));
  data::RandomWalkGenerator ogen(41, data::Modality::kSound, 2.0, util::Rng(23));
  QuerySpec spec = SoundSpec(3);
  MintViews mint(bed.net.get(), &gen, spec);
  Oracle oracle(&bed.topology, &ogen, spec);
  for (sim::Epoch e = 0; e < 40; ++e) {
    TopKResult got = mint.RunEpoch(e);
    TopKResult want = oracle.TopK(e);
    ASSERT_TRUE(got.Matches(want)) << "epoch " << e << "\ngot:\n"
                                   << got.ToString() << "want:\n"
                                   << want.ToString();
  }
}

TEST(MintTest, RepairsTriggerWhenValuesCollapse) {
  // Data that crashes after epoch 3: every group's value drops far below
  // the old threshold, so the sink must under-run and repair.
  class CollapsingGen : public data::DataGenerator {
   public:
    explicit CollapsingGen(size_t n) : n_(n), info_(data::GetModalityInfo(
                                                  data::Modality::kSound)) {}
    double Value(sim::NodeId id, sim::Epoch epoch) override {
      if (id == 0) return 0;
      double base = epoch < 3 ? 80.0 : 10.0;
      return base + static_cast<double>(id % 7);
    }
    const data::ModalityInfo& modality() const override { return info_; }

   private:
    size_t n_;
    data::ModalityInfo info_;
  };
  auto bed = TestBed::Grid(36, 6, 227);
  CollapsingGen gen(36);
  CollapsingGen ogen(36);
  QuerySpec spec = SoundSpec(2);
  MintViews mint(bed.net.get(), &gen, spec);
  Oracle oracle(&bed.topology, &ogen, spec);
  for (sim::Epoch e = 0; e < 6; ++e) {
    TopKResult got = mint.RunEpoch(e);
    ASSERT_TRUE(got.Matches(oracle.TopK(e))) << "epoch " << e;
  }
  EXPECT_GE(mint.repair_count(), 1);
}

TEST(MintTest, NodeGroupingDegeneratesToThresholdMonitoring) {
  auto bed = TestBed::Grid(25, 4, 229);
  data::GaussianGenerator gen(25, data::Modality::kSound, 0.5, util::Rng(31));
  data::GaussianGenerator ogen(25, data::Modality::kSound, 0.5, util::Rng(31));
  QuerySpec spec = SoundSpec(3, agg::AggKind::kAvg, Grouping::kNode);
  MintViews mint(bed.net.get(), &gen, spec);
  Oracle oracle(&bed.topology, &ogen, spec);
  for (sim::Epoch e = 0; e < 15; ++e) {
    TopKResult got = mint.RunEpoch(e);
    ASSERT_TRUE(got.Matches(oracle.TopK(e))) << "epoch " << e;
  }
  // Stable per-node values: far fewer messages than TAG's n-1 per epoch.
  double per_epoch = static_cast<double>(bed.net->total().messages) / 15.0;
  EXPECT_LT(per_epoch, static_cast<double>(bed.topology.num_nodes() - 1));
}

class MintAggKindTest : public ::testing::TestWithParam<agg::AggKind> {};

TEST_P(MintAggKindTest, MatchesOracleForAggKind) {
  agg::AggKind kind = GetParam();
  auto bed = TestBed::Clustered(31, 5, 233 + static_cast<uint64_t>(kind));
  data::RandomWalkGenerator gen(31, data::Modality::kSound, 1.5, util::Rng(37));
  data::RandomWalkGenerator ogen(31, data::Modality::kSound, 1.5, util::Rng(37));
  QuerySpec spec = SoundSpec(2, kind);
  MintViews mint(bed.net.get(), &gen, spec);
  Oracle oracle(&bed.topology, &ogen, spec);
  for (sim::Epoch e = 0; e < 25; ++e) {
    TopKResult got = mint.RunEpoch(e);
    ASSERT_TRUE(got.Matches(oracle.TopK(e)))
        << agg::AggKindName(kind) << " epoch " << e << "\ngot:\n"
        << got.ToString() << "want:\n"
        << oracle.TopK(e).ToString();
  }
}

INSTANTIATE_TEST_SUITE_P(AllKinds, MintAggKindTest,
                         ::testing::Values(agg::AggKind::kAvg, agg::AggKind::kSum,
                                           agg::AggKind::kMin, agg::AggKind::kMax),
                         [](const ::testing::TestParamInfo<agg::AggKind>& info) {
                           return agg::AggKindName(info.param);
                         });

TEST(MintTest, KLargerThanGroupCountNeverRepairsForever) {
  auto bed = TestBed::Grid(16, 4, 239);
  data::UniformGenerator gen(16, data::Modality::kSound, util::Rng(41));
  data::UniformGenerator ogen(16, data::Modality::kSound, util::Rng(41));
  QuerySpec spec = SoundSpec(10);  // more than 4 rooms exist
  MintViews mint(bed.net.get(), &gen, spec);
  Oracle oracle(&bed.topology, &ogen, spec);
  for (sim::Epoch e = 0; e < 10; ++e) {
    TopKResult got = mint.RunEpoch(e);
    ASSERT_TRUE(got.Matches(oracle.TopK(e))) << "epoch " << e;
    EXPECT_LE(got.items.size(), 4u);
  }
  EXPECT_EQ(mint.repair_count(), 0);
}

TEST(MintTest, AblationGammaOffCostsLikeTag) {
  MintViews::Options gamma_off;
  gamma_off.gamma_suppression = false;
  auto a = TestBed::Clustered(41, 5, 241);
  auto b = TestBed::Clustered(41, 5, 241);
  data::RandomWalkGenerator gen_a(41, data::Modality::kSound, 0.5, util::Rng(43),
                                  /*quantize_step=*/1.0);
  data::RandomWalkGenerator gen_b(41, data::Modality::kSound, 0.5, util::Rng(43),
                                  /*quantize_step=*/1.0);
  QuerySpec spec = SoundSpec(2);
  MintViews with_gamma(a.net.get(), &gen_a, spec);
  MintViews without_gamma(b.net.get(), &gen_b, spec, gamma_off);
  for (sim::Epoch e = 0; e < 12; ++e) {
    TopKResult ga = with_gamma.RunEpoch(e);
    TopKResult gb = without_gamma.RunEpoch(e);
    ASSERT_TRUE(ga.Matches(gb)) << "epoch " << e;
  }
  EXPECT_LT(a.net->total().payload_bytes, b.net->total().payload_bytes);
  // Without suppression every node ships its whole view: message count must
  // equal TAG's (n-1 per update epoch) plus beacons.
  EXPECT_GT(b.net->total().messages, a.net->total().messages);
}

TEST(MintTest, TauVisibleAfterCreation) {
  auto bed = TestBed::Figure1();
  data::ConstantGenerator gen(sim::Figure1Readings());
  MintViews mint(bed.net.get(), &gen, SoundSpec(1));
  EXPECT_FALSE(mint.created());
  mint.RunEpoch(0);
  EXPECT_TRUE(mint.created());
  EXPECT_TRUE(mint.tau_valid());
  // tau = k-th value (room C's 75) minus the hysteresis margin (2% of the
  // 0..100 sound domain).
  EXPECT_DOUBLE_EQ(mint.tau(), 73.0);
}

TEST(MintTest, SuppressionSilencesBoringSubtrees) {
  // Constant data: after creation and one epoch of tombstone deltas, the
  // materialized views are in steady state and *nothing* needs to be sent —
  // the Update Phase's ideal case.
  auto bed = TestBed::Figure1();
  data::ConstantGenerator gen(sim::Figure1Readings());
  MintViews mint(bed.net.get(), &gen, SoundSpec(1));
  mint.RunEpoch(0);
  mint.RunEpoch(1);  // prune-tombstones flow once
  auto mark = bed.net->total();
  TopKResult result = mint.RunEpoch(2);
  auto steady = bed.net->total().Since(mark);
  EXPECT_EQ(steady.messages, 0u);
  ASSERT_EQ(result.items.size(), 1u);
  EXPECT_EQ(result.items[0].group, 2);
  // The first update epoch did transmit (the tombstones), so suppression is
  // doing the work, not a dead network.
  EXPECT_GT(bed.net->PhaseTotal("mint.update").messages, 0u);
}

// --------------------------------------------------------- pinned digests
//
// MINT keeps per-group cardinalities (n_g at the sink, c_g at every node) in
// flat tables indexed or sorted by group id. These digests pin answers and
// per-phase traffic on the cases those tables must get right: sparse room
// ids up to the codec's u16 limit, node grouping (a c_g entry per
// descendant), every aggregate kind, transient loss (counts max-merged over
// full waves) and incremental churn repair (counts re-derived over the
// survivors).

/// FNV-1a accumulator.
struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void Mix(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFF;
      h *= 1099511628211ULL;
    }
  }
};

/// One pinned run: `epochs` MINT epochs (with churn when `plan` has events),
/// digesting every answer and, at the end, every phase's integer counters.
struct DigestRun {
  QuerySpec spec;
  MintViews::Options options;
  fault::FaultPlan plan;
  sim::Epoch epochs = 40;
  /// When set, every answer must also equal the oracle's over the alive,
  /// attached population (lossless runs).
  bool check_oracle = true;
};

uint64_t MintDigest(TestBed& bed, const std::function<std::unique_ptr<data::DataGenerator>()>& gen,
                    const DigestRun& run, int* incremental_repairs = nullptr) {
  auto data = gen();
  auto oracle_data = gen();
  MintViews mint(bed.net.get(), data.get(), run.spec, run.options);
  Oracle oracle(&bed.topology, oracle_data.get(), run.spec);
  fault::ChurnEngine churn(bed.net.get(), &bed.tree, run.plan);
  Fnv fnv;
  for (sim::Epoch e = 0; e < run.epochs; ++e) {
    fault::ChurnReport report = churn.BeginEpoch(e);
    if (report.topology_changed) mint.OnTopologyChanged(report.delta);
    TopKResult got = mint.RunEpoch(e);
    if (run.check_oracle) {
      TopKResult want = oracle.TopKOver(
          e, [&](sim::NodeId id) { return bed.net->NodeAlive(id) && bed.tree.attached(id); });
      EXPECT_TRUE(got.Matches(want)) << "epoch " << e << "\ngot:\n"
                                     << got.ToString() << "want:\n" << want.ToString();
    }
    fnv.Mix(got.items.size());
    for (const agg::RankedItem& item : got.items) {
      fnv.Mix(static_cast<uint64_t>(static_cast<uint32_t>(item.group)));
      fnv.Mix(static_cast<uint64_t>(util::fixed_point::Encode(item.value)));
    }
  }
  for (const auto& [name, counters] : bed.net->by_phase()) {
    for (char c : name) fnv.Mix(static_cast<uint8_t>(c));
    fnv.Mix(counters.messages);
    fnv.Mix(counters.payload_bytes);
  }
  if (incremental_repairs != nullptr) *incremental_repairs = mint.incremental_repair_count();
  return fnv.h;
}

std::function<std::unique_ptr<data::DataGenerator>()> RoomData(const sim::Topology& topology,
                                                               uint64_t seed) {
  std::vector<sim::GroupId> rooms;
  for (sim::NodeId id = 0; id < topology.num_nodes(); ++id) rooms.push_back(topology.room(id));
  return [rooms, seed] {
    return std::make_unique<data::RoomCorrelatedGenerator>(
        rooms, data::Modality::kSound, 1.5, 1.0, util::Rng(seed), /*global_sigma=*/1.0,
        /*quantize_step=*/1.0);
  };
}

TEST(MintDigestTest, SparseRoomIdsUpToTheCodecLimit) {
  const sim::GroupId kSparse[] = {0, 7, 300, 65535};
  auto bed = TestBed::Clustered(100, 4, 307);
  for (sim::NodeId id = 1; id < bed.topology.num_nodes(); ++id) {
    bed.topology.set_room(id, kSparse[bed.topology.room(id) % 4]);
  }
  DigestRun run;
  run.spec = SoundSpec(2);
  EXPECT_EQ(MintDigest(bed, RoomData(bed.topology, 11), run), 0xb6bb99c019398e94ULL);
}

TEST(MintDigestTest, NodeGroupingKeepsOneCountPerDescendant) {
  auto bed = TestBed::Clustered(81, 6, 311);
  DigestRun run;
  run.spec = SoundSpec(3, agg::AggKind::kAvg, Grouping::kNode);
  auto gen = [] {
    return std::make_unique<data::RandomWalkGenerator>(81, data::Modality::kSound, 0.8,
                                                       util::Rng(13), /*quantize_step=*/1.0);
  };
  EXPECT_EQ(MintDigest(bed, gen, run), 0xd9fa277497577013ULL);
}

TEST(MintDigestTest, EveryAggregateKind) {
  const std::pair<agg::AggKind, uint64_t> kPins[] = {
      {agg::AggKind::kMin, 0x24d423bf790eadaaULL},
      {agg::AggKind::kMax, 0x4190487ee4c7c925ULL},
      {agg::AggKind::kSum, 0x1649020f1e083d4cULL},
      {agg::AggKind::kCount, 0xe15ae7f04b96f3fcULL},
  };
  for (const auto& [kind, pin] : kPins) {
    auto bed = TestBed::Clustered(90, 6, 313);
    DigestRun run;
    run.spec = SoundSpec(2, kind);
    run.epochs = 30;
    EXPECT_EQ(MintDigest(bed, RoomData(bed.topology, 17), run), pin) << agg::AggKindName(kind);
  }
}

TEST(MintDigestTest, LossyLinksMaxMergeCardinalities) {
  // Volatile rooms under 10% loss: frequent probe/repair rounds re-record
  // counts a lossy earlier wave under-counted or missed.
  sim::NetworkOptions opt;
  opt.loss_prob = 0.1;
  auto bed = TestBed::Clustered(90, 6, 317, opt);
  std::vector<sim::GroupId> rooms;
  for (sim::NodeId id = 0; id < bed.topology.num_nodes(); ++id) rooms.push_back(bed.topology.room(id));
  auto gen = [rooms] {
    return std::make_unique<data::RoomCorrelatedGenerator>(
        rooms, data::Modality::kSound, 6.0, 2.0, util::Rng(7), /*global_sigma=*/4.0,
        /*quantize_step=*/1.0);
  };
  DigestRun run;
  run.spec = SoundSpec(2);
  run.epochs = 60;
  run.check_oracle = false;  // best-effort under loss
  EXPECT_EQ(MintDigest(bed, gen, run), 0x272967a296821bd1ULL);
}

TEST(MintDigestTest, IncrementalChurnRepairRecountsCardinalities) {
  auto bed = TestBed::Clustered(120, 8, 331);
  // Crash relay nodes so whole subtrees re-attach, then bring them back.
  std::vector<sim::NodeId> relays;
  for (sim::NodeId id = 1; id < bed.tree.num_nodes(); ++id) {
    if (!bed.tree.children(id).empty()) relays.push_back(id);
  }
  ASSERT_GE(relays.size(), 6u);
  DigestRun run;
  run.spec = SoundSpec(3);
  run.epochs = 50;
  run.plan.seed = 331;
  run.plan.events = {{5, fault::FaultEvent::Kind::kCrash, relays[1], 0.0},
                     {9, fault::FaultEvent::Kind::kCrash, relays[3], 0.0},
                     {14, fault::FaultEvent::Kind::kRecover, relays[1], 0.0},
                     {22, fault::FaultEvent::Kind::kCrash, relays[5], 0.0},
                     {30, fault::FaultEvent::Kind::kRecover, relays[3], 0.0},
                     {38, fault::FaultEvent::Kind::kRecover, relays[5], 0.0}};
  int incremental = 0;
  EXPECT_EQ(MintDigest(bed, RoomData(bed.topology, 23), run, &incremental), 0xe009160a30ae9dc2ULL);
  EXPECT_GT(incremental, 0);
}

}  // namespace
}  // namespace kspot::core
