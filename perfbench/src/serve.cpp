#include "serve.hpp"

#include <cstring>
#include <deque>
#include <map>
#include <optional>

#include "core/oracle.hpp"
#include "core/select.hpp"
#include "kspot/fanout.hpp"
#include "query/parser.hpp"

namespace perfbench {

namespace {

namespace core = kspot::core;
namespace data = kspot::data;
namespace sim = kspot::sim;
namespace system = kspot::system;

/// Times the program's data generation from outside: the first Value() of a
/// new epoch is preceded by PrepareEpoch(), which performs exactly the
/// advance that Value() would have, so readings are unchanged.
class TimedGenerator : public data::DataGenerator {
 public:
  TimedGenerator(std::unique_ptr<data::DataGenerator> inner, Tracer* tracer, DataStats* stats)
      : inner_(std::move(inner)), tracer_(tracer), stats_(stats) {}

  double Value(sim::NodeId id, sim::Epoch epoch) override {
    if (!primed_ || epoch != epoch_) Prepare(epoch);
    ++stats_->value_calls;
    return inner_->Value(id, epoch);
  }
  void PrepareEpoch(sim::Epoch epoch) override {
    if (!primed_ || epoch != epoch_) Prepare(epoch);
  }
  const data::ModalityInfo& modality() const override { return inner_->modality(); }

 private:
  void Prepare(sim::Epoch epoch) {
    stats_->prepare_s.push_back(
        tracer_->Time("data.prepare", [&] { inner_->PrepareEpoch(epoch); }));
    epoch_ = epoch;
    primed_ = true;
  }

  std::unique_ptr<data::DataGenerator> inner_;
  Tracer* tracer_;
  DataStats* stats_;
  sim::Epoch epoch_ = 0;
  bool primed_ = false;
};

/// FNV-1a, folded field by field.
struct Digest {
  uint64_t h = 1469598103934665603ULL;
  void Bytes(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  void U64(uint64_t v) { Bytes(&v, sizeof v); }
  void F64(double v) {
    uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    U64(bits);
  }
};

void FoldUpdate(Digest& d, const system::EpochUpdate& u) {
  d.U64(u.epoch);
  const sim::TrafficCounters& c = u.epoch_cost;
  for (uint64_t v : {c.messages, c.frames, c.payload_bytes, c.onair_bytes, c.retries,
                     c.backoff_us, c.flash_reads, c.flash_writes, c.flash_bytes}) {
    d.U64(v);
  }
  d.F64(c.energy_j());
  d.U64(u.alive);
  d.U64(u.detached);
  d.U64(u.degraded ? 1 : 0);
  for (const system::GroupUpdate& g : u.groups) {
    d.U64(g.group_id);
    d.U64(g.ran ? 1 : 0);
    for (system::QueryId q : g.members) d.U64(q);
    if (g.result) {
      d.U64(g.result->epoch);
      for (const auto& item : g.result->items) {
        d.U64(item.group);
        d.F64(item.value);
      }
      d.U64(g.result->contributors);
      d.F64(g.result->completeness);
      d.U64(g.result->degraded ? 1 : 0);
    }
    if (g.rows) {
      for (const core::SelectTuple& t : *g.rows) {
        d.U64(t.node);
        d.U64(t.room);
        d.F64(t.value);
      }
    }
  }
}

/// The answer checks of one workload: an oracle per ranked query spec on
/// the lossless workloads, invariants everywhere.
class AnswerChecker {
 public:
  AnswerChecker(const Workload& workload, const system::Deployment& deployment)
      : deployment_(deployment) {
    if (workload.oracle_check) truth_gen_ = deployment.DefaultGenerator(workload.options.seed);
  }

  /// Registers an admitted query so its group's answers can be checked.
  void Track(system::QueryId id, const std::string& sql) {
    auto parsed = kspot::query::Parse(sql);
    if (!parsed.ok()) return;
    const kspot::query::ParsedQuery& q = parsed.value();
    if (q.has_where) where_[id] = q.where;
    if (!truth_gen_ || q.top_k <= 0 || q.history > 0) return;
    core::QuerySpec spec = system::SpecFromQuery(q, deployment_.scenario);
    oracles_.emplace(id, std::make_unique<core::Oracle>(&deployment_.topology,
                                                        truth_gen_.get(), spec));
  }

  /// Returns an empty string when every answer of `u` passes, else the
  /// first problem.
  std::string Check(const system::EpochUpdate& u) {
    for (const system::GroupUpdate& g : u.groups) {
      if (!g.ran) continue;
      if (g.result) {
        double c = g.result->completeness;
        if (!(c >= 0.0 && c <= 1.0)) return "completeness out of [0,1]";
        if (g.members.empty()) continue;
        auto it = oracles_.find(g.members.front());
        if (it != oracles_.end() && !g.result->Matches(it->second->TopK(u.epoch))) {
          return "answer differs from the oracle at epoch " + std::to_string(u.epoch) +
                 " (" + g.algorithm + ")";
        }
      }
      if (g.rows && !g.members.empty()) {
        auto it = where_.find(g.members.front());
        if (it == where_.end()) continue;
        for (const core::SelectTuple& t : *g.rows) {
          if (!core::EvalPredicate(it->second, t.value)) {
            return "select row violates its WHERE clause at epoch " + std::to_string(u.epoch);
          }
        }
      }
    }
    return "";
  }

 private:
  const system::Deployment& deployment_;
  std::unique_ptr<data::DataGenerator> truth_gen_;
  std::map<system::QueryId, std::unique_ptr<core::Oracle>> oracles_;
  std::map<system::QueryId, kspot::query::Predicate> where_;
};

}  // namespace

RoundResult ServeRound(const Workload& workload, size_t epochs, Tracer& tracer,
                       DataStats* data, HostGauge& gauge) {
  RoundResult r;
  Failures& f = r.failures;
  system::QueryCoordinator::Options options = workload.options;
  system::QueryCoordinator* self = nullptr;
  if (data != nullptr) {
    // Open() is the only caller, and it runs while `self` is in scope.
    options.make_generator = [&self, &tracer, data](const system::Scenario&, uint64_t seed) {
      return std::unique_ptr<data::DataGenerator>(std::make_unique<TimedGenerator>(
          self->deployment().DefaultGenerator(seed), &tracer, data));
    };
  }

  std::unique_ptr<system::QueryCoordinator> coord;
  std::vector<std::pair<system::QueryId, size_t>> to_subscribe;
  auto admit = [&](const QueryDef& def) -> std::optional<system::QueryId> {
    ++f.attempted;
    std::optional<kspot::util::StatusOr<system::QueryId>> id;
    r.admit_s.push_back(tracer.Time("query.admit", [&] { id.emplace(coord->Admit(def.sql)); }));
    if (!id->ok()) {
      f.Fail("Admit: " + id->status().message());
      return std::nullopt;
    }
    to_subscribe.emplace_back(id->value(), def.subscribers);
    return id->value();
  };

  // ------------------------------------------------------------- set-up
  std::vector<std::pair<system::QueryId, std::string>> initial_ids;
  tracer.Begin("setup");
  r.deployment_s = tracer.Time("kspot.deployment", [&] {
    coord = std::make_unique<system::QueryCoordinator>(workload.scenario, options);
  });
  self = coord.get();
  for (const QueryDef& def : workload.initial) {
    if (auto id = admit(def)) initial_ids.emplace_back(*id, def.sql);
  }
  kspot::util::Status opened;
  r.open_s = tracer.Time("kspot.open", [&] { opened = coord->Open(); });
  r.setup_s = tracer.End();
  if (!opened.ok()) {
    f.Fail("Open: " + opened.message());
    return r;
  }
  r.tree_depth_max = coord->deployment().tree.max_depth();

  auto hub = std::make_unique<system::FanOutHub>(coord.get());
  std::map<system::QueryId, uint64_t> subscribers;
  auto subscribe_pending = [&] {
    tracer.Begin("kspot.subscribe");
    for (auto [id, count] : to_subscribe) {
      for (size_t i = 0; i < count; ++i) {
        if (!hub->Subscribe(id).ok()) {
          f.Fail("Subscribe failed");
          break;
        }
        ++subscribers[id];
      }
    }
    to_subscribe.clear();
    tracer.End();
  };
  subscribe_pending();

  std::optional<AnswerChecker> checker;
  tracer.Time("check", [&] {
    checker.emplace(workload, coord->deployment());
    for (const auto& [id, sql] : initial_ids) checker->Track(id, sql);
  });

  // ------------------------------------------------------ serving loop
  std::deque<system::QueryId> midrun_live;
  size_t midrun_next = 0;
  Digest digest;
  uint64_t expected_total = 0;
  for (size_t e = 0; e < epochs; ++e) {
    if (e > 0 && workload.cancel_every != 0 && e % workload.cancel_every == 0 &&
        !midrun_live.empty()) {
      ++f.attempted;
      kspot::util::Status st;
      r.cancel_s.push_back(
          tracer.Time("kspot.cancel", [&] { st = coord->Cancel(midrun_live.front()); }));
      if (!st.ok()) f.Fail("Cancel: " + st.message());
      midrun_live.pop_front();
    }
    if (e > 0 && workload.admit_every != 0 && e % workload.admit_every == 0 &&
        !workload.midrun_pool.empty()) {
      const QueryDef& def = workload.midrun_pool[midrun_next++ % workload.midrun_pool.size()];
      if (auto id = admit(def)) {
        midrun_live.push_back(*id);
        tracer.Time("check", [&] { checker->Track(*id, def.sql); });
      }
      subscribe_pending();
    }

    ++f.attempted;
    std::optional<kspot::util::StatusOr<system::EpochUpdate>> update;
    size_t delivered = 0;
    const uint64_t epoch_group = tracer.NewGroup();
    tracer.Begin("epoch", epoch_group);
    double step_s = tracer.Time("kspot.step", [&] { update.emplace(coord->StepEpoch()); });
    double publish_s = 0.0;
    if (update->ok()) {
      publish_s = tracer.Time("kspot.publish", [&] { delivered = hub->Publish(update->value()); });
    }
    double epoch_s = tracer.End();
    if (!update->ok()) {
      f.Fail("StepEpoch: " + update->status().message());
      break;
    }
    ++r.epochs;
    if (e == 0) {
      r.first_epoch_s = epoch_s;
    } else {
      r.steady_epoch_s.push_back(epoch_s);
      r.steady_step_s.push_back(step_s);
      r.steady_publish_s.push_back(publish_s);
      r.steady_deliveries += delivered;
    }

    tracer.Time("check", [&] {
      const system::EpochUpdate& u = update->value();
      r.total.Add(u.epoch_cost);
      r.repair_messages = u.repair_messages;
      uint64_t expected = 0;
      for (const system::GroupUpdate& g : u.groups) {
        if (!g.ran) continue;
        for (system::QueryId q : g.members) expected += subscribers[q];
        if (g.result) {
          r.completeness_sum += g.result->completeness;
          ++r.ranked_results;
        }
      }
      expected_total += expected;
      FoldUpdate(digest, u);
      std::string problem = checker->Check(u);
      if (!problem.empty()) {
        f.Fail(problem);
      } else if (delivered != expected) {
        f.Fail("Publish delivered " + std::to_string(delivered) + ", expected " +
               std::to_string(expected) + " at epoch " + std::to_string(e));
      }
      update.reset();
    }, epoch_group);
    if (e % kGaugeEvery == 0) {
      tracer.Time("host.gauge", [&] { r.gauge_s.push_back(gauge.Measure()); }, epoch_group);
    }
  }
  r.digest = digest.h;

  // -------------------------------------------------------------- close
  tracer.Begin("close");
  ++f.attempted;
  if (hub->total_deliveries() != expected_total) {
    f.Fail("FanOutHub::total_deliveries() " + std::to_string(hub->total_deliveries()) +
           " differs from the expected " + std::to_string(expected_total));
  }
  std::optional<kspot::util::StatusOr<system::CoordinatorReport>> report;
  r.close_s = tracer.Time("kspot.close", [&] { report.emplace(coord->Close()); });
  if (!report->ok()) f.Fail("Close: " + report->status().message());
  report.reset();
  checker.reset();
  hub.reset();
  coord.reset();
  tracer.End();
  return r;
}

}  // namespace perfbench
