/// Tests for the sharded-execution stack: util::TaskPool (the fork-join
/// worker pool), sim::ShardPlanner (the cluster-head tree cut), Network's
/// value-type state ownership, and the end-to-end contract of sharded epoch
/// waves — bit-identical to the serial path on lossless beds, and invariant
/// across shard/thread counts everywhere (per-node loss substreams).
#include <gtest/gtest.h>

#include <atomic>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "core/mint.hpp"
#include "fault/churn_engine.hpp"
#include "fault/fault_plan.hpp"
#include "sim/shard_planner.hpp"
#include "sim/shard_runtime.hpp"
#include "util/task_pool.hpp"

namespace kspot {
namespace {

// ---------------------------------------------------------------- TaskPool

TEST(TaskPoolTest, RunsEveryIndexExactlyOnce) {
  util::TaskPool pool(4);
  constexpr size_t kCount = 1000;
  std::vector<std::atomic<int>> hits(kCount);
  pool.ParallelFor(kCount, [&](size_t i) { hits[i].fetch_add(1); });
  for (size_t i = 0; i < kCount; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(TaskPoolTest, ZeroCountIsANoop) {
  util::TaskPool pool(4);
  pool.ParallelFor(0, [&](size_t) { FAIL() << "fn must not run for count 0"; });
}

TEST(TaskPoolTest, PoolOfOneRunsInlineOnCaller) {
  util::TaskPool pool(1);
  EXPECT_EQ(pool.thread_count(), 1u);
  std::thread::id caller = std::this_thread::get_id();
  pool.ParallelFor(16, [&](size_t) { EXPECT_EQ(std::this_thread::get_id(), caller); });
}

TEST(TaskPoolTest, ExceptionPropagatesToCaller) {
  util::TaskPool pool(4);
  EXPECT_THROW(pool.ParallelFor(64,
                                [&](size_t i) {
                                  if (i == 13) throw std::runtime_error("boom");
                                }),
               std::runtime_error);
  // The pool survives a throwing job and serves the next one.
  std::atomic<size_t> count{0};
  pool.ParallelFor(64, [&](size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 64u);
}

TEST(TaskPoolTest, ReusableAcrossManyJobs) {
  util::TaskPool pool(3);
  for (int round = 0; round < 50; ++round) {
    std::atomic<size_t> sum{0};
    pool.ParallelFor(10, [&](size_t i) { sum.fetch_add(i); });
    EXPECT_EQ(sum.load(), 45u);
  }
}

// ------------------------------------------------------------ ShardPlanner

/// A real cluster-aware routing tree to cut.
bench::Bed PlannerBed() { return bench::Bed::Grid(200, 12, 99); }

TEST(ShardPlannerTest, PartitionsWaveOrderWithoutSink) {
  bench::Bed bed = PlannerBed();
  sim::ShardPlan plan = sim::ShardPlanner::Build(bed.tree, 4);
  ASSERT_GT(plan.lane_count(), 1u);

  std::set<sim::NodeId> seen;
  size_t members = 0;
  for (const auto& lane : plan.lanes) {
    for (sim::NodeId node : lane) {
      EXPECT_NE(node, sim::kSinkId);
      EXPECT_TRUE(seen.insert(node).second) << "node " << node << " in two lanes";
      ++members;
    }
  }
  // Exactly the wave order minus the sink.
  EXPECT_EQ(members, bed.tree.wave_order().size() - 1);
  for (sim::NodeId node : bed.tree.wave_order()) {
    if (node == sim::kSinkId) continue;
    EXPECT_EQ(seen.count(node), 1u) << node;
    ASSERT_LT(plan.lane_of[node], plan.lane_count());
  }
  EXPECT_EQ(plan.lane_of[sim::kSinkId], sim::kNoLane);
}

TEST(ShardPlannerTest, LanesAreWaveOrderSlices) {
  bench::Bed bed = PlannerBed();
  sim::ShardPlan plan = sim::ShardPlanner::Build(bed.tree, 4);
  // Position of each node in the canonical wave order.
  std::vector<size_t> pos(bed.tree.num_nodes(), 0);
  const auto& wave = bed.tree.wave_order();
  for (size_t i = 0; i < wave.size(); ++i) pos[wave[i]] = i;
  for (const auto& lane : plan.lanes) {
    for (size_t i = 1; i < lane.size(); ++i) {
      EXPECT_LT(pos[lane[i - 1]], pos[lane[i]]) << "lane order diverged from wave order";
    }
  }
  // roots_in_order: the depth-1 subtree roots, in wave order.
  std::vector<sim::NodeId> expected_roots;
  for (sim::NodeId node : wave) {
    if (node != sim::kSinkId && bed.tree.parent(node) == sim::kSinkId) {
      expected_roots.push_back(node);
    }
  }
  EXPECT_EQ(plan.roots_in_order, expected_roots);
}

TEST(ShardPlannerTest, EveryNodeSharesItsClusterHeadLane) {
  bench::Bed bed = PlannerBed();
  sim::ShardPlan plan = sim::ShardPlanner::Build(bed.tree, 8);
  for (sim::NodeId node : bed.tree.wave_order()) {
    if (node == sim::kSinkId) continue;
    sim::NodeId head = node;
    while (bed.tree.parent(head) != sim::kSinkId) head = bed.tree.parent(head);
    EXPECT_EQ(plan.lane_of[node], plan.lane_of[head])
        << "node " << node << " split from its subtree";
  }
}

TEST(ShardPlannerTest, DeterministicAndClamped) {
  bench::Bed bed = PlannerBed();
  sim::ShardPlan a = sim::ShardPlanner::Build(bed.tree, 4);
  sim::ShardPlan b = sim::ShardPlanner::Build(bed.tree, 4);
  EXPECT_EQ(a.lanes, b.lanes);
  EXPECT_EQ(a.lane_of, b.lane_of);
  EXPECT_EQ(a.roots_in_order, b.roots_in_order);

  // Requests beyond the cluster-head count clamp to it.
  size_t heads = bed.tree.children(sim::kSinkId).size();
  sim::ShardPlan wide = sim::ShardPlanner::Build(bed.tree, 100000);
  EXPECT_EQ(wide.lane_count(), heads);
  // 0 and 1 both mean one lane (the serial cut).
  EXPECT_EQ(sim::ShardPlanner::Build(bed.tree, 0).lane_count(), 1u);
  EXPECT_EQ(sim::ShardPlanner::Build(bed.tree, 1).lane_count(), 1u);
}

// ------------------------------------------------- Network value semantics

TEST(NetworkCopyTest, CopiesEvolveIndependently) {
  bench::Bed bed = bench::Bed::Grid(49, 8, 7);
  // Attach a runtime to the original: the copy must not inherit it.
  sim::ShardRuntime rt(bed.net.get(), sim::ShardRuntime::Options{2, 1});

  sim::Network copy = *bed.net;
  EXPECT_EQ(copy.shard_runtime(), nullptr);
  EXPECT_EQ(bed.net->shard_runtime(), &rt);
  EXPECT_EQ(copy.total().messages, bed.net->total().messages);

  // Traffic on the original is invisible to the copy, and vice versa.
  sim::NodeId leaf = bed.tree.wave_order().front();
  ASSERT_NE(leaf, sim::kSinkId);
  uint64_t before = copy.total().messages;
  bed.net->SetPhase("copy.test");
  bed.net->UnicastToParent(leaf, 10);
  EXPECT_EQ(copy.total().messages, before);
  EXPECT_GT(bed.net->total().messages, before);

  copy.SetPhase("copy.test");
  copy.UnicastToParent(leaf, 10);
  copy.UnicastToParent(leaf, 10);
  EXPECT_EQ(copy.total().messages, before + 2);
  EXPECT_EQ(copy.MessagesSentBy(leaf), bed.net->MessagesSentBy(leaf) + 1);
}

// -------------------------------------------- sharded-wave epoch execution

/// Everything observable about a finished run, for exact comparison.
struct RunSummary {
  std::vector<std::string> answers;
  uint64_t messages = 0;
  uint64_t payload_bytes = 0;
  double tx_energy_j = 0.0;
  double rx_energy_j = 0.0;
  std::vector<uint64_t> sent_by;
  sim::TimeUs now = 0;

  bool operator==(const RunSummary& o) const {
    return answers == o.answers && messages == o.messages &&
           payload_bytes == o.payload_bytes && tx_energy_j == o.tx_energy_j &&
           rx_energy_j == o.rx_energy_j && sent_by == o.sent_by && now == o.now;
  }
};

RunSummary Summarize(const bench::Bed& bed, std::vector<std::string> answers) {
  RunSummary s;
  s.answers = std::move(answers);
  s.messages = bed.net->total().messages;
  s.payload_bytes = bed.net->total().payload_bytes;
  s.tx_energy_j = bed.net->total().tx_energy_j;
  s.rx_energy_j = bed.net->total().rx_energy_j;
  for (sim::NodeId id = 0; id < bed.topology.num_nodes(); ++id) {
    s.sent_by.push_back(bed.net->MessagesSentBy(id));
  }
  s.now = bed.net->clock().now();
  return s;
}

/// MINT on a lossless grid: serial and every sharded configuration must be
/// bit-identical (no losses are drawn, so the substream switch is inert).
RunSummary RunMintGrid(size_t shards, size_t threads, bool with_churn) {
  constexpr uint64_t kSeed = 515;
  constexpr size_t kEpochs = 30;
  bench::Bed bed = bench::Bed::Grid(200, 12, kSeed);
  bed.EnableSharding(shards, threads);
  auto gen = bed.RoomData(kSeed);
  core::MintViews mint(bed.net.get(), gen.get(), bench::RoomAvgSpec(3));

  std::unique_ptr<fault::ChurnEngine> churn;
  if (with_churn) {
    fault::FaultPlanOptions fopt;
    fopt.horizon = kEpochs;
    fopt.crash_prob = 0.02;
    fopt.mean_downtime = 6;
    fault::FaultPlan plan = fault::FaultPlan::Generate(bed.topology, fopt, kSeed ^ 0xFA11);
    churn = std::make_unique<fault::ChurnEngine>(bed.net.get(), &bed.tree, std::move(plan));
  }

  std::vector<std::string> answers;
  for (size_t e = 0; e < kEpochs; ++e) {
    auto epoch = static_cast<sim::Epoch>(e);
    if (churn) {
      fault::ChurnReport report = churn->BeginEpoch(epoch);
      if (report.topology_changed) mint.OnTopologyChanged(report.delta);
    }
    answers.push_back(mint.RunEpoch(epoch).ToString());
  }
  return Summarize(bed, std::move(answers));
}

TEST(ShardedWaveTest, MintBitIdenticalToSerialOnLosslessBed) {
  RunSummary serial = RunMintGrid(1, 1, /*with_churn=*/false);
  for (size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) + " threads=" + std::to_string(threads));
      EXPECT_TRUE(serial == RunMintGrid(shards, threads, false));
    }
  }
}

/// Crash/recover churn re-cuts the tree mid-run (ChurnEngine invalidates the
/// cached shard plan after every repair); the runs must still agree exactly —
/// churn here is lossless, so serial is comparable too.
TEST(ShardedWaveTest, MintBitIdenticalUnderChurnRecut) {
  RunSummary serial = RunMintGrid(1, 1, /*with_churn=*/true);
  EXPECT_FALSE(serial.answers.empty());
  for (size_t shards : {size_t{2}, size_t{4}}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    EXPECT_TRUE(serial == RunMintGrid(shards, 4, true));
  }
}

/// TAG exercises the other lane-aware producer (full converge-cast every
/// epoch, no MINT thresholds).
TEST(ShardedWaveTest, TagBitIdenticalToSerialOnLosslessBed) {
  auto run = [](size_t shards) {
    constexpr uint64_t kSeed = 77;
    bench::Bed bed = bench::Bed::Grid(150, 10, kSeed);
    bed.EnableSharding(shards, 4);
    auto gen = bed.RoomData(kSeed);
    auto tag = bench::MakeSnapshotAlgo(bench::SnapshotAlgo::kTag, bed.net.get(), gen.get(),
                                       bench::RoomAvgSpec(2));
    std::vector<std::string> answers;
    for (size_t e = 0; e < 12; ++e) {
      answers.push_back(tag->RunEpoch(static_cast<sim::Epoch>(e)).ToString());
    }
    return Summarize(bed, std::move(answers));
  };
  RunSummary serial = run(1);
  EXPECT_TRUE(serial == run(2));
  EXPECT_TRUE(serial == run(8));
}

/// Under real loss the sharded path draws from per-node substreams, so it is
/// not comparable to the serial single-stream path — but it IS invariant
/// across shard and thread counts: the substream a sender draws from depends
/// only on its node id, never on the lane layout or scheduling.
TEST(ShardedWaveTest, LossyRunsInvariantAcrossShardAndThreadCounts) {
  auto run = [](size_t shards, size_t threads) {
    constexpr uint64_t kSeed = 33;
    sim::NetworkOptions opt;
    opt.loss_prob = 0.05;
    opt.max_retries = 1;
    bench::Bed bed = bench::Bed::Grid(150, 10, kSeed, opt);
    bed.EnableSharding(shards, threads);
    auto gen = bed.RoomData(kSeed);
    core::MintViews mint(bed.net.get(), gen.get(), bench::RoomAvgSpec(3));
    std::vector<std::string> answers;
    for (size_t e = 0; e < 20; ++e) {
      answers.push_back(mint.RunEpoch(static_cast<sim::Epoch>(e)).ToString());
    }
    return Summarize(bed, std::move(answers));
  };
  RunSummary base = run(2, 1);
  EXPECT_GT(base.messages, 0u);
  for (size_t shards : {size_t{2}, size_t{4}, size_t{8}}) {
    for (size_t threads : {size_t{1}, size_t{4}}) {
      if (shards == 2 && threads == 1) continue;
      SCOPED_TRACE("shards=" + std::to_string(shards) + " threads=" + std::to_string(threads));
      EXPECT_TRUE(base == run(shards, threads));
    }
  }
}

/// ShouldShard is a cheap gate: 1 shard (or a tree with one cluster head)
/// keeps the serial path; InvalidateTopology forces a re-cut on next use.
TEST(ShardRuntimeTest, GatesAndRecutsPlans) {
  bench::Bed bed = bench::Bed::Grid(100, 8, 5);
  {
    sim::ShardRuntime serial_rt(bed.net.get(), sim::ShardRuntime::Options{1, 1});
    EXPECT_FALSE(serial_rt.ShouldShard());
  }
  EXPECT_EQ(bed.net->shard_runtime(), nullptr) << "runtime must detach on destruction";

  sim::ShardRuntime rt(bed.net.get(), sim::ShardRuntime::Options{4, 1});
  ASSERT_TRUE(rt.ShouldShard());
  const sim::ShardPlan* before = &rt.plan();
  EXPECT_GT(before->lane_count(), 1u);
  rt.InvalidateTopology();
  // Rebuilt plan for the unchanged tree is identical in content.
  const sim::ShardPlan& after = rt.plan();
  EXPECT_EQ(after.lanes, sim::ShardPlanner::Build(bed.tree, 4).lanes);
}

}  // namespace
}  // namespace kspot
