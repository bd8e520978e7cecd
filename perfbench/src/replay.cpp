#include "replay.hpp"

#include <algorithm>
#include <cstdio>
#include <deque>
#include <memory>

#include "agg/aggregate.hpp"
#include "core/historic_stream.hpp"
#include "core/mint.hpp"
#include "core/select.hpp"
#include "core/tag.hpp"
#include "fault/churn_engine.hpp"
#include "kspot/deployment.hpp"
#include "query/parser.hpp"
#include "sim/routing_tree.hpp"
#include "util/rng.hpp"

namespace perfbench {

namespace {

namespace core = kspot::core;
namespace sim = kspot::sim;
namespace system = kspot::system;
namespace query = kspot::query;

// Seed salts the Deployment constructor and a coordinator session apply to
// the workload seed (kspot/deployment.cpp, kspot/coordinator.cpp). The
// replay uses the same ones so it does the same work; a traced run fails
// when the replay's message count differs from the coordinator's.
constexpr uint64_t kTreeSalt = 0xA5A5A5A5ULL;
constexpr uint64_t kFaultPlanSalt = 0xFA11;

enum class Kind { kMint, kTag, kSelect, kHistoric };

/// One operator of the replayed data plane and the queries riding it.
struct Op {
  std::string key;
  Kind kind = Kind::kMint;
  std::unique_ptr<core::EpochAlgorithm> algo;
  std::unique_ptr<core::BasicSelect> select;
  size_t members = 0;
  bool alive = true;
};

/// The operator a query runs on and the key of the queries that may share
/// it: the same classification a coordinator applies to admitted SQL.
bool PlanOp(const std::string& sql, const Workload& workload, const system::Deployment& dep,
            sim::Network* net, kspot::data::DataGenerator* gen, Op* op, std::string* error) {
  auto parsed = query::Parse(sql);
  if (!parsed.ok()) {
    *error = parsed.status().message();
    return false;
  }
  const query::ParsedQuery& q = parsed.value();
  core::QuerySpec spec = system::SpecFromQuery(q, dep.scenario);
  char key[160];
  switch (query::Classify(q)) {
    case query::QueryClass::kBasicSelect:
      if (q.FirstAggregate() != nullptr && !q.group_by.empty()) {
        op->kind = Kind::kTag;
        std::snprintf(key, sizeof key, "tag|%d|%d|%d", spec.k, static_cast<int>(spec.agg),
                      static_cast<int>(spec.grouping));
        op->algo = std::make_unique<core::TagTopK>(net, gen, spec);
      } else {
        op->kind = Kind::kSelect;
        std::snprintf(key, sizeof key, "select|%d|%s|%d|%.17g", q.has_where ? 1 : 0,
                      q.where.attribute.c_str(), static_cast<int>(q.where.op),
                      q.where.literal);
        op->select = std::make_unique<core::BasicSelect>(net, gen, q.has_where, q.where);
      }
      break;
    case query::QueryClass::kSnapshotTopK:
      op->kind = Kind::kMint;
      std::snprintf(key, sizeof key, "mint|%d|%d|%d", spec.k, static_cast<int>(spec.agg),
                    static_cast<int>(spec.grouping));
      op->algo = std::make_unique<core::MintViews>(net, gen, spec);
      break;
    case query::QueryClass::kHistoricVertical: {
      if (!workload.options.historic.continuous) {
        *error = "the replay covers continuous historic queries only";
        return false;
      }
      const system::HistoricPathConfig& h = workload.options.historic;
      core::HistoricStreamOptions hopt;
      hopt.k = std::max(1, q.top_k);
      const query::SelectItem* item = q.FirstAggregate();
      if (item != nullptr) kspot::agg::ParseAggKind(item->aggregate, &hopt.agg);
      hopt.window =
          q.history > 0 ? static_cast<size_t>(q.history) : system::Deployment::kDefaultWindow;
      hopt.incremental = h.incremental;
      hopt.archive_to_flash = h.archive_to_flash;
      hopt.flash_accounting = h.flash_accounting;
      hopt.suppression = h.suppression;
      hopt.suppression_eps = h.suppression_eps;
      op->kind = Kind::kHistoric;
      std::snprintf(key, sizeof key, "hist|%d|%d|%zu", hopt.k, static_cast<int>(hopt.agg),
                    hopt.window);
      op->algo = std::make_unique<core::HistoricStream>(net, gen, hopt);
      break;
    }
    default:
      *error = "the replay does not cover horizontal historic queries";
      return false;
  }
  op->key = key;
  return true;
}

const char* RunSpanName(Kind kind) {
  switch (kind) {
    case Kind::kMint: return "core.mint.epoch";
    case Kind::kTag: return "core.tag.epoch";
    case Kind::kSelect: return "core.select.epoch";
    case Kind::kHistoric: return "core.historic.epoch";
  }
  return "core.epoch";
}

const char* RepairSpanName(Kind kind) {
  switch (kind) {
    case Kind::kMint: return "core.mint.repair";
    case Kind::kTag: return "core.tag.repair";
    case Kind::kSelect: return "core.select.repair";
    case Kind::kHistoric: return "core.historic.repair";
  }
  return "core.repair";
}

}  // namespace

void ReplayDeploymentBuild(const Workload& workload, Tracer& tracer, LayerReplay* out) {
  tracer.Begin("replay.deployment_build");
  sim::Topology topology;
  out->topology_s =
      tracer.Time("sim.topology", [&] { topology = workload.scenario.BuildTopology(); });
  std::vector<std::vector<sim::NodeId>> adjacency;
  out->adjacency_s =
      tracer.Time("sim.adjacency", [&] { adjacency = topology.BuildAdjacency(); });
  size_t links = 0;
  for (const auto& neighbours : adjacency) links += neighbours.size();
  out->degree_mean = adjacency.empty() ? 0.0
                                       : static_cast<double>(links) /
                                             static_cast<double>(adjacency.size());
  sim::RoutingTree tree;
  out->tree_build_s = tracer.Time("sim.tree_build", [&] {
    kspot::util::Rng rng(workload.options.seed ^ kTreeSalt);
    tree = sim::RoutingTree::BuildClusterAware(topology, rng);
  });
  tracer.Time("replay.release", [&] {
    adjacency = {};
    tree = sim::RoutingTree();
    topology = sim::Topology();
  });
  tracer.End();
}

void ReplayDataPlane(const Workload& workload, Tracer& tracer, LayerReplay* out) {
  const system::QueryCoordinator::Options& opts = workload.options;
  const uint64_t seed = opts.seed;
  Failures& f = out->failures;

  std::unique_ptr<system::Deployment> dep;
  std::unique_ptr<sim::RoutingTree> tree;
  std::unique_ptr<sim::Network> net;
  std::unique_ptr<kspot::data::DataGenerator> gen;
  std::unique_ptr<kspot::fault::ChurnEngine> churn;
  std::vector<Op> ops;
  std::deque<std::string> midrun_keys;
  size_t midrun_next = 0;

  // Mirrors a coordinator's Admit/Cancel: a query joins the live operator
  // with its key, or gets a fresh one appended in creation order; the last
  // member leaving releases the operator.
  auto admit = [&](const std::string& sql) -> std::string {
    Op op;
    std::string error;
    if (!PlanOp(sql, workload, *dep, net.get(), gen.get(), &op, &error)) {
      f.Fail("replay: " + error);
      return "";
    }
    for (Op& live : ops) {
      if (live.alive && live.key == op.key) {
        ++live.members;
        return live.key;
      }
    }
    op.members = 1;
    ops.push_back(std::move(op));
    return ops.back().key;
  };
  auto cancel = [&](const std::string& key) {
    for (Op& live : ops) {
      if (!live.alive || live.key != key) continue;
      if (--live.members == 0) {
        live.alive = false;
        live.algo.reset();
        live.select.reset();
      }
      return;
    }
  };

  tracer.Begin("replay.plane_setup");
  tracer.Time("replay.deployment",
              [&] { dep = std::make_unique<system::Deployment>(workload.scenario, seed); });
  tree = std::make_unique<sim::RoutingTree>(dep->tree);
  net = std::make_unique<sim::Network>(&dep->topology, tree.get(),
                                       system::RadioOptionsFrom(opts),
                                       kspot::util::Rng(seed ^ opts.net_salt));
  gen = dep->DefaultGenerator(seed);
  if (opts.enable_churn) {
    kspot::fault::FaultPlanOptions churn_opt = opts.churn;
    if (churn_opt.horizon == 0 || churn_opt.horizon > opts.epochs) {
      churn_opt.horizon = static_cast<sim::Epoch>(opts.epochs);
    }
    kspot::fault::FaultPlan plan =
        kspot::fault::FaultPlan::Generate(dep->topology, churn_opt, seed ^ kFaultPlanSalt);
    churn = std::make_unique<kspot::fault::ChurnEngine>(net.get(), tree.get(), std::move(plan));
  }
  for (const QueryDef& def : workload.initial) admit(def.sql);
  tracer.End();

  for (size_t e = 0; e < opts.epochs && f.failed == 0; ++e) {
    if (e > 0 && (workload.cancel_every != 0 || workload.admit_every != 0)) {
      tracer.Time("replay.schedule", [&] {
        if (workload.cancel_every != 0 && e % workload.cancel_every == 0 &&
            !midrun_keys.empty()) {
          cancel(midrun_keys.front());
          midrun_keys.pop_front();
        }
        if (workload.admit_every != 0 && e % workload.admit_every == 0 &&
            !workload.midrun_pool.empty()) {
          const QueryDef& def =
              workload.midrun_pool[midrun_next++ % workload.midrun_pool.size()];
          midrun_keys.push_back(admit(def.sql));
        }
      });
    }

    const auto epoch = static_cast<sim::Epoch>(e);
    double epoch_sum = 0.0;
    double mint_s = 0.0, tag_s = 0.0, select_s = 0.0, historic_s = 0.0;
    bool ran_mint = false, ran_tag = false, ran_select = false, ran_historic = false;
    tracer.Begin("replay.epoch", tracer.NewGroup());
    if (opts.reliability.enabled) {
      epoch_sum += tracer.Time("sim.begin_reliability", [&] { net->BeginReliabilityEpoch(); });
    }
    kspot::fault::ChurnReport report;
    if (churn) {
      double s = tracer.Time("fault.begin_epoch", [&] { report = churn->BeginEpoch(epoch); });
      out->begin_epoch_s.push_back(s);
      epoch_sum += s;
    }
    for (Op& op : ops) {
      if (!op.alive) continue;
      if (report.topology_changed && op.algo) {
        double s = tracer.Time(RepairSpanName(op.kind),
                               [&] { op.algo->OnTopologyChanged(report.delta); });
        if (op.kind == Kind::kMint) out->mint_repair_s.push_back(s);
        epoch_sum += s;
      }
      double s = tracer.Time(RunSpanName(op.kind), [&] {
        if (op.algo) {
          op.algo->RunEpoch(epoch);
        } else {
          op.select->RunEpoch(epoch);
        }
      });
      epoch_sum += s;
      switch (op.kind) {
        case Kind::kMint: mint_s += s; ran_mint = true; break;
        case Kind::kTag: tag_s += s; ran_tag = true; break;
        case Kind::kSelect: select_s += s; ran_select = true; break;
        case Kind::kHistoric: historic_s += s; ran_historic = true; break;
      }
    }
    tracer.End();
    ++out->epochs;
    if (e == 0) {
      out->mint_create_s = mint_s;
      continue;
    }
    out->steady_epoch_s.push_back(epoch_sum);
    if (ran_mint) out->mint_epoch_s.push_back(mint_s);
    if (ran_tag) out->tag_epoch_s.push_back(tag_s);
    if (ran_select) out->select_epoch_s.push_back(select_s);
    if (ran_historic) out->historic_epoch_s.push_back(historic_s);
  }
  out->total = net->total();
  out->by_phase = net->by_phase();

  tracer.Time("replay.release", [&] {
    ops.clear();
    churn.reset();
    gen.reset();
    net.reset();
    tree.reset();
    dep.reset();
  });
}

}  // namespace perfbench
