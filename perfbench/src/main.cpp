// kspot_perfbench: runs one benchmark workload against the KSpot serving
// path and prints one JSON object on the last line of stdout.
//
//   kspot_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   [--trace-out FILE]
//
// A run serves full rounds (set-up, the epoch schedule, Close) while the
// next round fits in S seconds, each after the workload's set-up probes
// (set-up and first epoch only). Round k serves the k-th seed derived from
// N, cycling, and at least one round repeats a seed: every run of one seed
// must simulate the identical outcome. Timings are summarized per seed and
// then averaged, so every seed weighs the same however many rounds of it the
// run fitted in. With --trace 1 it also keeps its
// spans, replays the layers below the coordinator on the same seed, and
// reports per-layer metrics (perfbench/README.md lists them all).
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <vector>

#include "replay.hpp"
#include "serve.hpp"
#include "tracer.hpp"
#include "util/stats.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

constexpr size_t kMaxRounds = 64;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string flag = argv[i];
    std::string value = argv[i + 1];
    if (flag == "--workload") {
      args->workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--trace-out") {
      args->trace_out = value;
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

std::string JsonQuote(const std::string& value) {
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    quoted += (static_cast<unsigned char>(c) < 0x20) ? ' ' : c;
  }
  return quoted + "\"";
}

std::string JsonArray(const std::vector<double>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%s%.6g", i ? "," : "", values[i]);
    out += buf;
  }
  return out + "]";
}

/// Minimal JSON object writer: keys in insertion order, numbers printed with
/// all their digits.
class JsonObject {
 public:
  void Num(const std::string& key, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", value);
    Raw(key, buf);
  }
  void Int(const std::string& key, uint64_t value) { Raw(key, std::to_string(value)); }
  void Bool(const std::string& key, bool value) { Raw(key, value ? "true" : "false"); }
  void Str(const std::string& key, const std::string& value) { Raw(key, JsonQuote(value)); }
  void Raw(const std::string& key, const std::string& json) {
    body_ += body_.empty() ? "" : ",";
    body_ += "\"" + key + "\":" + json;
  }
  std::string str() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux.
}

std::string Hex(uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
  return buf;
}

/// Samples of one timing kept apart per derived seed.
class BySeed {
 public:
  BySeed() : seeds_(kSeeds) {}
  void Add(size_t seed_index, double value) { seeds_[seed_index % kSeeds].Add(value); }
  /// The mean over the seeds that have samples of each seed's q-quantile;
  /// 0 when there are none.
  double Quantile(double q) const {
    double sum = 0.0;
    size_t seeds = 0;
    for (const kspot::util::Percentiles& p : seeds_) {
      if (p.count() == 0) continue;
      sum += p.Quantile(q);
      ++seeds;
    }
    return seeds == 0 ? 0.0 : sum / static_cast<double>(seeds);
  }
  double Median() const { return Quantile(0.5); }
  /// The q-quantile of one seed's samples alone.
  double SeedQuantile(size_t seed_index, double q) const {
    return seeds_[seed_index % kSeeds].Quantile(q);
  }
  size_t count() const {
    size_t n = 0;
    for (const kspot::util::Percentiles& p : seeds_) n += p.count();
    return n;
  }

 private:
  std::vector<kspot::util::Percentiles> seeds_;
};

double SumOf(const std::vector<double>& samples) {
  return std::accumulate(samples.begin(), samples.end(), 0.0);
}

/// True when two rounds of one seed simulated the identical outcome.
bool SameOutcome(const RoundResult& a, const RoundResult& b) {
  return a.digest == b.digest && a.epochs == b.epochs &&
         a.total.messages == b.total.messages &&
         a.total.payload_bytes == b.total.payload_bytes &&
         a.total.energy_j() == b.total.energy_j() &&
         a.completeness_sum == b.completeness_sum && a.ranked_results == b.ranked_results &&
         a.repair_messages == b.repair_messages;
}

int Run(const Args& args) {
  const int64_t origin_ns = NowNs();
  HostGauge gauge;
  Tracer tracer(args.trace);
  Workload workload;
  bool known = false;
  tracer.Time("workload", [&] { known = MakeWorkload(args.workload, args.seed, &workload); });
  if (!known) {
    std::fprintf(stderr, "unknown workload '%s'\n", args.workload.c_str());
    return 2;
  }

  // ------------------------------------------------------------ rounds
  // Full rounds, each after the workload's set-up probes, while the next
  // one still fits in the time budget; spreading the probes over the run
  // lets their samples see the same machine as the rounds. Probe and round
  // k serve the k-th derived seed (cycled), and at least one round repeats
  // a seed. Whatever repeats a seed must simulate what its first run did.
  std::vector<Workload> seeded(kSeeds, workload);
  for (size_t k = 0; k < seeded.size(); ++k) {
    seeded[k].options.seed = DerivedSeed(args.seed, k);
  }
  DataStats data;
  DataStats* timed_data = args.trace ? &data : nullptr;
  std::vector<RoundResult> probes, rounds;
  Failures failures;
  auto absorb = [&](const std::vector<RoundResult>& done) {
    const RoundResult& r = done.back();
    failures.attempted += r.failures.attempted;
    failures.failed += r.failures.failed;
    for (const std::string& m : r.failures.messages) {
      if (failures.messages.size() < 8) failures.messages.push_back(m);
    }
    if (done.size() <= seeded.size()) return;
    ++failures.attempted;
    if (!SameOutcome(done[(done.size() - 1) % seeded.size()], r)) {
      failures.Fail("two runs of the same seed simulated different outcomes");
    }
  };
  const int64_t serve_start = NowNs();
  while (failures.failed == 0 && rounds.size() < kMaxRounds) {
    const int64_t round_start = NowNs();
    for (size_t i = 0; i < workload.probes_per_round && failures.failed == 0; ++i) {
      probes.push_back(ServeRound(seeded[probes.size() % seeded.size()], 1, tracer,
                                  timed_data, gauge));
      absorb(probes);
    }
    const Workload& w = seeded[rounds.size() % seeded.size()];
    rounds.push_back(ServeRound(w, w.options.epochs, tracer, timed_data, gauge));
    absorb(rounds);
    const double round_s = static_cast<double>(NowNs() - round_start) * 1e-9;
    const double elapsed = static_cast<double>(NowNs() - serve_start) * 1e-9;
    if (rounds.size() > seeded.size() && elapsed + round_s > args.seconds) break;
  }
  const double peak_rss_mb = PeakRssMb();

  // The simulated outcome over one round of every derived seed.
  const RoundResult first = rounds.empty() ? RoundResult{} : rounds.front();
  kspot::sim::TrafficCounters total;
  uint64_t sim_epochs = 0, ranked = 0, repair_messages = 0, digest = 0;
  double completeness_sum = 0.0;
  for (size_t k = 0; k < seeded.size() && k < rounds.size(); ++k) {
    const RoundResult& r = rounds[k];
    total.Add(r.total);
    sim_epochs += r.epochs;
    ranked += r.ranked_results;
    repair_messages += r.repair_messages;
    completeness_sum += r.completeness_sum;
    digest = digest * 1099511628211ULL ^ r.digest;
  }

  // ------------------------------------------------------- host speed
  // Block k is round k with the set-up probes made just before it. The
  // block's speed factor, the reference gauge time over the median of the
  // gauge passes made inside it, scales its timings to the reference host
  // speed.
  const size_t per_block = std::max<size_t>(workload.probes_per_round, 1);
  auto probe_block = [&](size_t j) { return std::min(j / per_block, rounds.size()); };
  std::vector<kspot::util::Percentiles> block_gauge(rounds.size() + 1);
  kspot::util::Percentiles gauge_us;
  auto add_gauge = [&](size_t block, const RoundResult& r) {
    for (double s : r.gauge_s) {
      block_gauge[block].Add(s);
      gauge_us.Add(s * 1e6);
    }
  };
  for (size_t j = 0; j < probes.size(); ++j) add_gauge(probe_block(j), probes[j]);
  for (size_t i = 0; i < rounds.size(); ++i) add_gauge(i, rounds[i]);
  std::vector<double> speed;
  for (const kspot::util::Percentiles& g : block_gauge) {
    speed.push_back(g.count() == 0 ? 1.0 : kGaugeReferenceS / g.Quantile(0.5));
  }

  // ------------------------------------------------------- end to end
  // Probe j serves seed j % kSeeds and round i seed i % kSeeds. A rate is
  // taken per round (every round of one seed does the same work). The
  // metrics are at the reference host speed; the same figures in plain
  // host time go to the log.
  struct EndToEnd {
    BySeed setup_s, first_ms, epoch_ms, epoch_rate;
  };
  auto end_to_end = [&](bool at_reference) {
    EndToEnd t;
    auto add = [&](size_t k, size_t block, const RoundResult& r) {
      const double f = at_reference ? speed[block] : 1.0;
      t.setup_s.Add(k, r.setup_s * f);
      t.first_ms.Add(k, r.first_epoch_s * 1e3 * f);
      for (double s : r.steady_epoch_s) t.epoch_ms.Add(k, s * 1e3 * f);
      const double steady_s = SumOf(r.steady_epoch_s) * f;
      if (steady_s > 0.0) {
        t.epoch_rate.Add(k, static_cast<double>(r.steady_epoch_s.size()) / steady_s);
      }
    };
    for (size_t j = 0; j < probes.size(); ++j) add(j, probe_block(j), probes[j]);
    for (size_t i = 0; i < rounds.size(); ++i) add(i, i, rounds[i]);
    return t;
  };
  auto write_end_to_end = [](const EndToEnd& t, JsonObject& out) {
    out.Num("setup_s", t.setup_s.Median());
    out.Num("first_epoch_ms", t.first_ms.Median());
    out.Num("epochs_per_s", t.epoch_rate.Median());
    out.Num("epoch_ms_p50", t.epoch_ms.Quantile(0.5));
    out.Num("epoch_ms_p90", t.epoch_ms.Quantile(0.9));
  };
  const EndToEnd reference = end_to_end(true);
  JsonObject metrics, host_time;
  write_end_to_end(reference, metrics);
  write_end_to_end(end_to_end(false), host_time);
  const double epochs = static_cast<double>(std::max<uint64_t>(sim_epochs, 1));
  metrics.Num("peak_rss_mb", peak_rss_mb);
  metrics.Num("msgs_per_epoch", static_cast<double>(total.messages) / epochs);
  metrics.Num("bytes_per_epoch", static_cast<double>(total.payload_bytes) / epochs);
  metrics.Num("energy_mj_per_epoch", 1e3 * total.energy_j() / epochs);
  metrics.Num("completeness_mean",
              ranked == 0 ? 1.0 : completeness_sum / static_cast<double>(ranked));

  // Per-layer timings stay in plain host time.
  BySeed step_ms, publish_us, delivery_rate, deploy_ms, open_ms, close_ms, admit_us, cancel_us;
  auto add_setup = [&](size_t k, const RoundResult& r) {
    deploy_ms.Add(k, r.deployment_s * 1e3);
    open_ms.Add(k, r.open_s * 1e3);
    for (double s : r.admit_s) admit_us.Add(k, s * 1e6);
  };
  for (size_t j = 0; j < probes.size(); ++j) add_setup(j, probes[j]);
  for (size_t i = 0; i < rounds.size(); ++i) {
    const RoundResult& r = rounds[i];
    add_setup(i, r);
    close_ms.Add(i, r.close_s * 1e3);
    for (double s : r.steady_step_s) step_ms.Add(i, s * 1e3);
    for (double s : r.steady_publish_s) publish_us.Add(i, s * 1e6);
    for (double s : r.cancel_s) cancel_us.Add(i, s * 1e6);
    const double publish_s = SumOf(r.steady_publish_s);
    if (publish_s > 0.0) {
      delivery_rate.Add(i, static_cast<double>(r.steady_deliveries) / publish_s);
    }
  }

  // The simulated outcome, compared across processes (traced vs untraced).
  JsonObject sim;
  sim.Str("digest", Hex(digest));
  sim.Int("epochs", sim_epochs);
  sim.Int("messages", total.messages);
  sim.Int("payload_bytes", total.payload_bytes);
  sim.Num("energy_j", total.energy_j());
  sim.Num("completeness_sum", completeness_sum);
  sim.Int("ranked_results", ranked);

  // --------------------------------------------------------- per layer
  JsonObject layers;
  if (args.trace) {
    LayerReplay replay;
    ReplayDeploymentBuild(workload, tracer, &replay);
    ReplayDataPlane(workload, tracer, &replay);
    failures.attempted += replay.failures.attempted;
    failures.failed += replay.failures.failed;
    for (const std::string& m : replay.failures.messages) failures.messages.push_back(m);
    // The replay copies the coordinator's seed salts and operator sharing;
    // a different message count on the same seed means the copy drifted.
    ++failures.attempted;
    if (replay.total.messages != first.total.messages) {
      failures.Fail("the layer replay sent " + std::to_string(replay.total.messages) +
                    " messages where the coordinator sent " +
                    std::to_string(first.total.messages));
    }

    const double replay_epochs = static_cast<double>(std::max<size_t>(replay.epochs, 1));
    layers.Num("sim.topology_ms", replay.topology_s * 1e3);
    layers.Num("sim.adjacency_ms", replay.adjacency_s * 1e3);
    layers.Num("sim.degree_mean", replay.degree_mean);
    layers.Num("sim.tree_build_ms", replay.tree_build_s * 1e3);
    layers.Num("sim.tree_depth_max", first.tree_depth_max);
    layers.Num("kspot.deployment_ms", deploy_ms.Median());
    layers.Num("kspot.open_ms", open_ms.Median());
    layers.Num("query.admit_us", admit_us.Median());
    layers.Num("kspot.cancel_us", cancel_us.Median());
    layers.Num("kspot.step_ms_p50", step_ms.Quantile(0.5));
    layers.Num("kspot.step_ms_p90", step_ms.Quantile(0.9));
    layers.Num("kspot.publish_us_p50", publish_us.Quantile(0.5));
    layers.Num("kspot.deliveries_per_s", delivery_rate.Median());
    layers.Num("kspot.close_ms", close_ms.Median());
    kspot::util::Percentiles prepare_us;
    for (double s : data.prepare_s) prepare_us.Add(s * 1e6);
    double served_epochs = 0.0;
    for (const RoundResult& r : probes) served_epochs += static_cast<double>(r.epochs);
    for (const RoundResult& r : rounds) served_epochs += static_cast<double>(r.epochs);
    layers.Num("data.prepare_us", prepare_us.Quantile(0.5));
    layers.Num("data.value_calls_per_epoch",
               served_epochs > 0.0 ? static_cast<double>(data.value_calls) / served_epochs
                                   : 0.0);
    // The replay's per-call samples are in seconds; medians scale linearly.
    auto median_of = [](const std::vector<double>& samples) {
      kspot::util::Percentiles p;
      for (double s : samples) p.Add(s);
      return p.Quantile(0.5);
    };
    layers.Num("fault.begin_epoch_us", median_of(replay.begin_epoch_s) * 1e6);
    layers.Num("core.mint.create_ms", replay.mint_create_s * 1e3);
    layers.Num("core.mint.epoch_ms", median_of(replay.mint_epoch_s) * 1e3);
    layers.Num("core.mint.repair_us", median_of(replay.mint_repair_s) * 1e6);
    layers.Num("core.tag.epoch_ms", median_of(replay.tag_epoch_s) * 1e3);
    layers.Num("core.select.epoch_us", median_of(replay.select_epoch_s) * 1e6);
    layers.Num("core.historic.epoch_us", median_of(replay.historic_epoch_s) * 1e6);
    // The replay serves the first derived seed, so compare it with the
    // coordinator's steps on that seed only.
    layers.Num("kspot.coord_overhead_ms",
               step_ms.SeedQuantile(0, 0.5) - median_of(replay.steady_epoch_s) * 1e3);
    for (const char* phase : {"mint.create", "mint.update", "mint.beacon", "mint.repair",
                              "fault.repair", "tag.collect", "select.collect",
                              "historic.delta"}) {
      auto it = replay.by_phase.find(phase);
      double msgs = it == replay.by_phase.end() ? 0.0 : static_cast<double>(it->second.messages);
      layers.Num(std::string("sim.msgs.") + phase, msgs / replay_epochs);
    }
    layers.Num("sim.retries_per_epoch", static_cast<double>(total.retries) / epochs);
    layers.Num("sim.backoff_us_per_epoch", static_cast<double>(total.backoff_us) / epochs);
    layers.Num("storage.flash_writes_per_epoch",
               static_cast<double>(total.flash_writes) / epochs);
    layers.Num("storage.flash_bytes_per_epoch", static_cast<double>(total.flash_bytes) / epochs);
    layers.Num("fault.repair_msgs_per_epoch", static_cast<double>(repair_messages) / epochs);
    const int64_t wall_ns = NowNs() - origin_ns;
    layers.Num("trace.coverage",
               wall_ns > 0 ? static_cast<double>(tracer.top_level_ns()) /
                                 static_cast<double>(wall_ns)
                           : 0.0);
    // Logged by run.py; a ratio other than 1 already failed above.
    layers.Num("replay.msgs_ratio", static_cast<double>(replay.total.messages) /
                                        static_cast<double>(std::max<uint64_t>(
                                            first.total.messages, 1)));
    layers.Int("trace.spans", tracer.spans().size());
    if (!args.trace_out.empty() && !tracer.WriteChromeTrace(args.trace_out, origin_ns)) {
      std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    }
  }

  JsonObject host;
  host.Int("nproc", static_cast<uint64_t>(sysconf(_SC_NPROCESSORS_ONLN)));
  host.Str("compiler", PERFBENCH_COMPILER);
  host.Str("build_type", PERFBENCH_BUILD_TYPE);

  std::string errors = "[";
  for (size_t i = 0; i < failures.messages.size(); ++i) {
    if (i != 0) errors += ",";
    errors += JsonQuote(failures.messages[i]);
  }
  errors += "]";

  JsonObject out;
  out.Str("workload", workload.name);
  out.Int("seed", args.seed);
  out.Bool("trace", args.trace);
  out.Int("setup_probes", probes.size());
  out.Int("rounds", rounds.size());
  out.Int("seeds", kSeeds);
  out.Int("epochs_per_round", first.epochs);
  out.Int("epoch_samples", reference.epoch_ms.count());
  out.Int("gauge_samples", gauge_us.count());
  out.Num("gauge_us_p50", gauge_us.Quantile(0.5));
  std::vector<double> round_p50;
  for (const RoundResult& r : rounds) {
    kspot::util::Percentiles p;
    for (double s : r.steady_epoch_s) p.Add(s * 1e3);
    round_p50.push_back(p.Quantile(0.5));
  }
  out.Raw("round_epoch_ms_p50", JsonArray(round_p50));
  out.Raw("block_speed", JsonArray(speed));
  out.Bool("correct", failures.failed == 0);
  out.Int("attempted", failures.attempted);
  out.Int("failed", failures.failed);
  out.Raw("errors", errors);
  out.Raw("metrics", metrics.str());
  out.Raw("host_time", host_time.str());
  out.Raw("per_layer", layers.str());
  out.Raw("sim", sim.str());
  out.Raw("host", host.str());
  std::printf("%s\n", out.str().c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: kspot_perfbench --workload NAME --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n");
    return 2;
  }
  return perfbench::Run(args);
}
