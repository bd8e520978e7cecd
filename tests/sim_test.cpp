#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numbers>
#include <set>
#include <string>

#include "sim/clock.hpp"
#include "sim/energy_model.hpp"
#include "sim/network.hpp"
#include "sim/radio_model.hpp"
#include "sim/routing_tree.hpp"
#include "sim/topology.hpp"
#include "sim/waves.hpp"
#include "test_util.hpp"

namespace kspot::sim {
namespace {

// ---------------------------------------------------------------- SimClock

TEST(SimClockTest, AdvancesForwardAndJumpsExactly) {
  SimClock clock;
  EXPECT_EQ(clock.now(), 0u);
  clock.AdvanceTo(100);
  EXPECT_EQ(clock.now(), 100u);
  clock.AdvanceTo(40);  // never backwards
  EXPECT_EQ(clock.now(), 100u);
  clock.JumpTo(40);     // exactly, backwards included
  EXPECT_EQ(clock.now(), 40u);
}

// ---------------------------------------------------------------- Topology

TEST(TopologyTest, GridIsConnectedAndRoomed) {
  TopologyOptions opt;
  opt.num_nodes = 100;
  opt.num_rooms = 16;
  Topology t = MakeGrid(opt);
  EXPECT_EQ(t.num_nodes(), 100u);
  EXPECT_TRUE(t.IsConnected());
  EXPECT_EQ(t.DistinctRooms().size(), 16u);
}

TEST(TopologyTest, UniformRandomConnected) {
  TopologyOptions opt;
  opt.num_nodes = 60;
  opt.num_rooms = 9;
  util::Rng rng(7);
  Topology t = MakeUniformRandom(opt, rng);
  EXPECT_EQ(t.num_nodes(), 60u);
  EXPECT_TRUE(t.IsConnected());
}

TEST(TopologyTest, ClusteredRoomsBalancedAndConnected) {
  TopologyOptions opt;
  opt.num_nodes = 61;  // sink + 60 sensors over 6 rooms
  opt.num_rooms = 6;
  util::Rng rng(11);
  Topology t = MakeClusteredRooms(opt, rng);
  EXPECT_TRUE(t.IsConnected());
  for (GroupId r : t.DistinctRooms()) {
    EXPECT_EQ(t.NodesInRoom(r).size(), 10u);
  }
}

TEST(TopologyTest, AdjacencyIsSymmetric) {
  TopologyOptions opt;
  opt.num_nodes = 30;
  util::Rng rng(13);
  Topology t = MakeUniformRandom(opt, rng);
  auto adj = t.BuildAdjacency();
  for (size_t u = 0; u < adj.size(); ++u) {
    for (NodeId v : adj[u]) {
      EXPECT_NE(std::find(adj[v].begin(), adj[v].end(), static_cast<NodeId>(u)), adj[v].end());
    }
  }
}

/// All-pairs oracle: neighbour lists straight from the disc predicate.
std::vector<std::vector<NodeId>> BruteForceAdjacency(const Topology& t) {
  std::vector<std::vector<NodeId>> adj(t.num_nodes());
  for (NodeId i = 0; i < t.num_nodes(); ++i) {
    for (NodeId j = 0; j < t.num_nodes(); ++j) {
      if (i != j && Distance(t.position(i), t.position(j)) <= t.comm_range()) {
        adj[i].push_back(j);
      }
    }
  }
  return adj;
}

/// BuildAdjacency and ForEachNeighbor both agree with the all-pairs scan;
/// adjacency lists are ascending and sized exactly.
void ExpectNeighborSearchMatchesOracle(const Topology& t, const std::string& label) {
  SCOPED_TRACE(label);
  auto want = BruteForceAdjacency(t);
  auto got = t.BuildAdjacency();
  ASSERT_EQ(got.size(), want.size());
  for (NodeId i = 0; i < t.num_nodes(); ++i) {
    EXPECT_TRUE(std::is_sorted(got[i].begin(), got[i].end())) << "node " << i;
    EXPECT_EQ(got[i].capacity(), got[i].size()) << "node " << i;
    EXPECT_EQ(got[i], want[i]) << "node " << i;
    std::vector<NodeId> visited;
    t.ForEachNeighbor(i, [&](NodeId j) { visited.push_back(j); });
    std::sort(visited.begin(), visited.end());  // duplicates would survive the sort
    EXPECT_EQ(visited, want[i]) << "node " << i;
  }
  // Connectivity over the index agrees with connectivity over the oracle.
  std::vector<uint8_t> seen(t.num_nodes(), 0);
  std::vector<NodeId> stack;
  if (t.num_nodes() > 0) {
    stack.push_back(kSinkId);
    seen[kSinkId] = 1;
  }
  size_t reached = 0;
  while (!stack.empty()) {
    NodeId u = stack.back();
    stack.pop_back();
    ++reached;
    for (NodeId v : want[u]) {
      if (!seen[v]) {
        seen[v] = 1;
        stack.push_back(v);
      }
    }
  }
  EXPECT_EQ(t.IsConnected(), t.num_nodes() > 0 && reached == t.num_nodes());
}

TEST(TopologyTest, NeighborSearchMatchesAllPairsOracle) {
  TopologyOptions opt;
  opt.num_nodes = 400;
  opt.num_rooms = 16;
  ExpectNeighborSearchMatchesOracle(MakeGrid(opt), "grid");
  opt.num_nodes = 300;
  util::Rng rng(17);
  ExpectNeighborSearchMatchesOracle(MakeUniformRandom(opt, rng), "uniform");
  ExpectNeighborSearchMatchesOracle(MakeClusteredRooms(opt, rng), "clustered");
  ExpectNeighborSearchMatchesOracle(MakeFigure1(), "figure1");

  // Coincident nodes: a stack of five at one point, two at another.
  std::vector<Position> pos = {{5, 5}, {5, 5}, {5, 5}, {5, 5}, {5, 5}, {9, 5}, {9, 5}, {30, 30}};
  ExpectNeighborSearchMatchesOracle(Topology(pos, {}, 4.0), "coincident");
  // Range 0: only coincident nodes hear each other.
  ExpectNeighborSearchMatchesOracle(Topology(pos, {}, 0.0), "range_zero");

  // Negative coordinates, straddling and entirely below the origin.
  std::vector<Position> negative;
  for (int i = 0; i < 200; ++i) {
    negative.push_back({rng.NextDouble(-50, 50), rng.NextDouble(-50, 50)});
    negative.push_back({rng.NextDouble(-1000, -900), rng.NextDouble(-1000, -990)});
  }
  ExpectNeighborSearchMatchesOracle(Topology(negative, {}, 12.0), "negative");

  // Pairs exactly at the range (3-4-5 triangles on an integer lattice), and
  // a ring whose computed distances land within ulps either side of it.
  std::vector<Position> exact;
  for (int x = -10; x <= 10; ++x) {
    for (int y = -10; y <= 10; ++y) exact.push_back({3.0 * x, 4.0 * y});
  }
  ExpectNeighborSearchMatchesOracle(Topology(exact, {}, 5.0), "exact_range");
  std::vector<Position> ring = {{0.0, 0.0}};
  for (int i = 0; i < 720; ++i) {
    double angle = 2.0 * std::numbers::pi * i / 720.0;
    ring.push_back({0.3 * std::cos(angle), 0.3 * std::sin(angle)});
  }
  ExpectNeighborSearchMatchesOracle(Topology(ring, {}, 0.3), "ring");
  // Squared distances stepping one ulp at a time across range^2, so the
  // last in-range value and the first out-of-range one both occur.
  for (double range : {5.0, 0.3, 18.0, 1.0 / 3.0, 1e-3}) {
    double ulp = std::nextafter(range * range, INFINITY) - range * range;
    std::vector<Position> steps = {{0.0, 0.0}};
    for (int k = 0; k <= 8; ++k) steps.push_back({range, std::sqrt(k * ulp)});
    ExpectNeighborSearchMatchesOracle(Topology(steps, {}, range),
                                      "ulp_steps_" + std::to_string(range));
  }

  // A single node has no neighbours and is trivially connected.
  ExpectNeighborSearchMatchesOracle(Topology({{-3.0, 7.0}}, {}, 10.0), "single");

  // A huge extent with a tiny range: the grid would need ~10^25 cells, so
  // the cell-count cap must widen the cells instead.
  std::vector<Position> sparse;
  for (int i = 0; i < 100; ++i) {
    Position p{rng.NextDouble(-1e9, 1e9), rng.NextDouble(-1e9, 1e9)};
    sparse.push_back(p);
    sparse.push_back({p.x + 4e-4, p.y - 3e-4});  // at the range
    sparse.push_back({p.x + 1e-3, p.y});         // beyond it
  }
  ExpectNeighborSearchMatchesOracle(Topology(sparse, {}, 5e-4), "huge_extent");

  // Near a cell boundary: with cells exactly one range wide, x = 1 - 2^-53
  // floors into cell 0 and x = 2 into cell 2, yet the computed distance
  // 2 - (1 - 2^-53) rounds to exactly 1.0, in range. The cells must be a
  // little wider than the range for the 3x3 block to hold both.
  double below_one = std::nextafter(1.0, 0.0);
  std::vector<Position> boundary = {{0, 0}, {below_one, 0}, {2, 0}, {0, below_one}, {0, 2}};
  ExpectNeighborSearchMatchesOracle(Topology(boundary, {}, 1.0), "cell_boundary");
}

TEST(TopologyTest, Figure1MatchesPaper) {
  Topology t = MakeFigure1();
  EXPECT_EQ(t.num_nodes(), 10u);
  EXPECT_EQ(t.DistinctRooms().size(), 4u);
  // Room D holds s7, s8, s9.
  EXPECT_EQ(t.NodesInRoom(3), (std::vector<NodeId>{7, 8, 9}));
  // Readings from the figure.
  auto readings = Figure1Readings();
  EXPECT_DOUBLE_EQ(readings[7], 78.0);
  EXPECT_DOUBLE_EQ(readings[9], 39.0);
  EXPECT_EQ(Figure1RoomName(2), "C");
}

// ------------------------------------------------------------- RoutingTree

TEST(RoutingTreeTest, MinHopDepthsAreShortestPaths) {
  TopologyOptions opt;
  opt.num_nodes = 49;
  Topology t = MakeGrid(opt);
  RoutingTree tree = RoutingTree::BuildMinHop(t);
  EXPECT_EQ(tree.depth(kSinkId), 0);
  // Every non-sink node's parent is exactly one hop shallower.
  for (NodeId id = 1; id < t.num_nodes(); ++id) {
    EXPECT_EQ(tree.depth(id), tree.depth(tree.parent(id)) + 1);
    EXPECT_LE(Distance(t.position(id), t.position(tree.parent(id))), t.comm_range());
  }
}

TEST(RoutingTreeTest, FirstHeardCoversAllNodes) {
  TopologyOptions opt;
  opt.num_nodes = 80;
  util::Rng topo_rng(3);
  Topology t = MakeUniformRandom(opt, topo_rng);
  util::Rng rng(5);
  RoutingTree tree = RoutingTree::BuildFirstHeard(t, rng);
  for (NodeId id = 1; id < t.num_nodes(); ++id) {
    EXPECT_NE(tree.parent(id), kNoNode) << "node " << id << " not joined";
  }
}

TEST(RoutingTreeTest, PostOrderVisitsChildrenBeforeParents) {
  auto bed = kspot::testing::TestBed::Grid(64, 8, 17);
  const RoutingTree& tree = bed.tree;
  std::vector<int> position(tree.num_nodes(), -1);
  const auto& post = tree.post_order();
  for (size_t i = 0; i < post.size(); ++i) position[post[i]] = static_cast<int>(i);
  for (NodeId id = 1; id < tree.num_nodes(); ++id) {
    EXPECT_LT(position[id], position[tree.parent(id)]);
  }
  EXPECT_EQ(post.back(), kSinkId);
}

TEST(RoutingTreeTest, SubtreeSizesSumCorrectly) {
  auto bed = kspot::testing::TestBed::Grid(36, 4, 19);
  const RoutingTree& tree = bed.tree;
  EXPECT_EQ(tree.SubtreeSize(kSinkId), tree.num_nodes());
  size_t child_sum = 0;
  for (NodeId c : tree.children(kSinkId)) child_sum += tree.SubtreeSize(c);
  EXPECT_EQ(child_sum + 1, tree.num_nodes());
}

TEST(RoutingTreeTest, Figure1TreeShape) {
  RoutingTree tree = RoutingTree::FromParents(MakeFigure1Parents());
  EXPECT_EQ(tree.children(kSinkId), (std::vector<NodeId>{2, 4, 6}));
  EXPECT_EQ(tree.parent(9), 4);
  EXPECT_EQ(tree.parent(1), 4);
  EXPECT_EQ(tree.children(6), (std::vector<NodeId>{5, 7, 8}));
  EXPECT_EQ(tree.max_depth(), 2);
}

// -------------------------------------------------------------- RadioModel

TEST(RadioModelTest, FrameMath) {
  RadioModel r;
  EXPECT_EQ(r.FramesForPayload(0), 1u);
  EXPECT_EQ(r.FramesForPayload(29), 1u);
  EXPECT_EQ(r.FramesForPayload(30), 2u);
  EXPECT_EQ(r.FramesForPayload(58), 2u);
  EXPECT_EQ(r.FramesForPayload(59), 3u);
}

TEST(RadioModelTest, OnAirBytesIncludeOverheadPerFrame) {
  RadioModel r;
  size_t one = r.OnAirBytes(10);
  size_t two = r.OnAirBytes(40);
  EXPECT_EQ(one, 10 + r.frame_overhead_bytes + r.preamble_bytes);
  EXPECT_EQ(two, 40 + 2 * (r.frame_overhead_bytes + r.preamble_bytes));
}

TEST(RadioModelTest, AirtimeMatchesBitrate) {
  RadioModel r;
  // 38.4 kbit/s: 48 on-air bytes = 10 ms.
  double t = r.AirtimeSeconds(48 - r.frame_overhead_bytes - r.preamble_bytes);
  EXPECT_NEAR(t, 48.0 * 8.0 / 38400.0, 1e-12);
}

// -------------------------------------------------------------- EnergyModel

TEST(EnergyModelTest, TxCostsMoreThanRx) {
  EnergyModel e;
  EXPECT_GT(e.TxEnergy(0.01), e.RxEnergy(0.01));
  EXPECT_NEAR(e.TxEnergy(1.0), 3.0 * 0.027, 1e-12);
}

TEST(EnergyMeterTest, BatteryDepletionKillsNode) {
  EnergyMeter m(1.0);
  EXPECT_TRUE(m.alive());
  m.AddTx(0.6);
  EXPECT_TRUE(m.alive());
  EXPECT_NEAR(m.remaining_fraction(), 0.4, 1e-12);
  m.AddRx(0.5);
  EXPECT_FALSE(m.alive());
  EXPECT_EQ(m.remaining_fraction(), 0.0);
}

TEST(EnergyMeterTest, UnlimitedBatteryNeverDies) {
  EnergyMeter m(0.0);
  m.AddTx(1e9);
  EXPECT_TRUE(m.alive());
  EXPECT_EQ(m.remaining_fraction(), 1.0);
}

// ------------------------------------------------------------------ Network

TEST(NetworkTest, UnicastChargesBothEndsAndCounts) {
  auto bed = kspot::testing::TestBed::Grid(9, 4, 23);
  NodeId leaf = 0;
  for (NodeId id = 1; id < bed.tree.num_nodes(); ++id) {
    if (bed.tree.children(id).empty()) leaf = id;
  }
  ASSERT_NE(leaf, 0);
  EXPECT_TRUE(bed.net->UnicastToParent(leaf, 20));
  EXPECT_EQ(bed.net->total().messages, 1u);
  EXPECT_EQ(bed.net->total().payload_bytes, 20u);
  EXPECT_GT(bed.net->meter(leaf).tx_joules(), 0.0);
  EXPECT_GT(bed.net->meter(bed.tree.parent(leaf)).rx_joules(), 0.0);
}

TEST(NetworkTest, PhaseAttribution) {
  auto bed = kspot::testing::TestBed::Grid(9, 4, 29);
  bed.net->SetPhase("alpha");
  bed.net->UnicastToParent(5, 10);
  bed.net->SetPhase("beta");
  bed.net->UnicastToParent(5, 30);
  EXPECT_EQ(bed.net->PhaseTotal("alpha").payload_bytes, 10u);
  EXPECT_EQ(bed.net->PhaseTotal("beta").payload_bytes, 30u);
  EXPECT_EQ(bed.net->total().payload_bytes, 40u);
}

TEST(NetworkTest, TotalLossDropsEverything) {
  NetworkOptions opt;
  opt.loss_prob = 1.0;
  auto bed = kspot::testing::TestBed::Grid(9, 4, 31, opt);
  EXPECT_FALSE(bed.net->UnicastToParent(5, 10));
  // Transmission cost is still charged.
  EXPECT_EQ(bed.net->total().messages, 1u);
  EXPECT_EQ(bed.net->total().rx_energy_j, 0.0);
}

TEST(NetworkTest, RetriesImproveDelivery) {
  NetworkOptions lossy;
  lossy.loss_prob = 0.5;
  NetworkOptions retried = lossy;
  retried.max_retries = 5;
  int no_retry_ok = 0, retry_ok = 0;
  for (uint64_t seed = 0; seed < 40; ++seed) {
    auto a = kspot::testing::TestBed::Grid(9, 4, seed, lossy);
    auto b = kspot::testing::TestBed::Grid(9, 4, seed, retried);
    no_retry_ok += a.net->UnicastToParent(5, 10);
    retry_ok += b.net->UnicastToParent(5, 10);
  }
  EXPECT_GT(retry_ok, no_retry_ok);
  EXPECT_GE(retry_ok, 38);  // 1 - 0.5^6 per attempt
}

TEST(NetworkTest, BroadcastReachesAllChildrenWhenLossless) {
  auto bed = kspot::testing::TestBed::Grid(16, 4, 37);
  auto delivered = bed.net->BroadcastToChildren(kSinkId, 12);
  EXPECT_EQ(delivered.size(), bed.tree.children(kSinkId).size());
  EXPECT_EQ(bed.net->total().messages, 1u);  // one tx regardless of fan-out
}

TEST(NetworkTest, PathPrimitivesTraverseHops) {
  auto bed = kspot::testing::TestBed::Grid(25, 4, 41);
  NodeId deep = 0;
  for (NodeId id = 1; id < bed.tree.num_nodes(); ++id) {
    if (bed.tree.depth(id) > bed.tree.depth(deep)) deep = id;
  }
  ASSERT_GT(bed.tree.depth(deep), 1);
  auto before = bed.net->total();
  EXPECT_TRUE(bed.net->UnicastUpPath(deep, 8));
  auto up = bed.net->total().Since(before);
  EXPECT_EQ(up.messages, static_cast<uint64_t>(bed.tree.depth(deep)));
  before = bed.net->total();
  EXPECT_TRUE(bed.net->UnicastDownPath(deep, 8));
  auto down = bed.net->total().Since(before);
  EXPECT_EQ(down.messages, static_cast<uint64_t>(bed.tree.depth(deep)));
}

// -------------------------------------------------------------------- Waves

TEST(WaveTest, UpWaveAggregatesWholeTree) {
  auto bed = kspot::testing::TestBed::Grid(49, 4, 43);
  using Msg = int;  // subtree node count
  auto produce = [&](NodeId, std::vector<Msg>&& inbox) -> std::optional<Msg> {
    int total = 1;
    for (int c : inbox) total += c;
    return total;
  };
  auto bytes = [](const Msg&) -> size_t { return 4; };
  auto sink = UpWave<Msg>::Run(*bed.net, produce, bytes);
  ASSERT_TRUE(sink.has_value());
  EXPECT_EQ(*sink, 49);
  // Every non-sink node transmitted exactly once.
  EXPECT_EQ(bed.net->total().messages, 48u);
}

TEST(WaveTest, UpWaveSuppressionCostsNothing) {
  auto bed = kspot::testing::TestBed::Grid(49, 4, 47);
  using Msg = int;
  auto produce = [&](NodeId node, std::vector<Msg>&&) -> std::optional<Msg> {
    if (node != kSinkId) return std::nullopt;  // everyone suppresses
    return 0;
  };
  auto bytes = [](const Msg&) -> size_t { return 4; };
  UpWave<Msg>::Run(*bed.net, produce, bytes);
  EXPECT_EQ(bed.net->total().messages, 0u);
}

TEST(WaveTest, DownWaveReachesEveryNode) {
  auto bed = kspot::testing::TestBed::Grid(49, 4, 53);
  using Msg = int;
  size_t received = 0;
  auto produce = [&](NodeId node, const Msg* incoming) -> std::optional<Msg> {
    if (node != kSinkId) {
      EXPECT_NE(incoming, nullptr);
      ++received;
    }
    return 1;
  };
  auto bytes = [](const Msg&) -> size_t { return 2; };
  size_t reached = DownWave<Msg>::Run(*bed.net, produce, bytes);
  EXPECT_EQ(reached, 49u);
  EXPECT_EQ(received, 48u);
  // Only nodes with children transmit.
  size_t inner = 0;
  for (NodeId id = 0; id < bed.tree.num_nodes(); ++id) {
    if (!bed.tree.children(id).empty()) ++inner;
  }
  EXPECT_EQ(bed.net->total().messages, inner);
}

TEST(WaveTest, DeadNodesSilenceSubtree) {
  NetworkOptions opt;
  opt.battery_j = 0.5;  // generous for radio traffic; drained manually below
  auto bed = kspot::testing::TestBed::Grid(9, 4, 59, opt);
  // Drain one of the sink's children.
  NodeId victim = bed.tree.children(kSinkId)[0];
  bed.net->meter(victim).AddTx(1.0);
  ASSERT_FALSE(bed.net->NodeAlive(victim));
  using Msg = int;
  auto produce = [&](NodeId, std::vector<Msg>&& inbox) -> std::optional<Msg> {
    int total = 1;
    for (int c : inbox) total += c;
    return total;
  };
  auto bytes = [](const Msg&) -> size_t { return 4; };
  auto sink = UpWave<Msg>::Run(*bed.net, produce, bytes);
  ASSERT_TRUE(sink.has_value());
  EXPECT_EQ(static_cast<size_t>(*sink), 9 - bed.tree.SubtreeSize(victim));
}

}  // namespace
}  // namespace kspot::sim
