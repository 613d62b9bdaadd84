/// @file main.cpp
/// @brief End-to-end benchmark of pdn3d: three workloads (coopt, policy,
/// serve) driven through the program's public API from one process.
///
///   perfbench --workload coopt|policy|serve --seed N --seconds S --trace 0|1
///             --reference FILE --metrics BENCHMARK.json [--out DIR]
///   perfbench --record FILE     (re-record the reference outputs)
///
/// The last line of standard output is the result object
/// {"correct", "attempted", "failed", "metrics"}; the line before it is a
/// details object with the host stamp, sample counts and traffic shares.
/// With --trace 0 the metrics are the end-to-end ones (untraced); with
/// --trace 1 they are the per-layer ones, from a traced pass whose spans are
/// written to DIR/spans-<workload>-<seed>.json. See README.md.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "api/api.hpp"
#include "bench_core.hpp"
#include "core/benchmarks.hpp"
#include "core/platform.hpp"
#include "exec/thread_pool.hpp"
#include "irdrop/analysis.hpp"
#include "memctrl/policy.hpp"
#include "obs/json.hpp"
#include "obs/metrics.hpp"
#include "opt/cooptimizer.hpp"
#include "pdn/stack_builder.hpp"
#include "service/protocol.hpp"
#include "service/server.hpp"

namespace pb = perfbench;
namespace api = pdn3d::api;
namespace core = pdn3d::core;
namespace json = pdn3d::obs::json;
namespace obs = pdn3d::obs;

namespace {

using Clock = std::chrono::steady_clock;
using core::BenchmarkKind;

constexpr BenchmarkKind kStudied[] = {BenchmarkKind::kWideIo,
                                      BenchmarkKind::kStackedDdr3OffChip};
/// Co-optimization objective exponents a coopt seed draws from.
constexpr double kAlphas[] = {0.2, 0.3, 0.5};
/// Designs per benchmark in the policy pool (and in the reference).
constexpr std::size_t kPolicyPool = 24;
constexpr int kMonteCarloSamples = 200;
constexpr double kIrConstraintMv = 24.0;
/// Setup is repeated this many times per run; the median is reported.
/// Serve's set-up (24 designs plus a warm batch) is 20x the others'.
constexpr int kSetupReps = 21;
constexpr int kServeSetupReps = 3;

// Serve traffic shape.
constexpr double kNominalRps = 400.0;
/// Offered rates of the ladder; the first is the nominal phase.
constexpr double kLadderRps[] = {400.0, 500.0, 550.0, 600.0, 650.0, 700.0, 750.0,
                                 800.0, 850.0, 900.0, 950.0, 1000.0, 1100.0, 1200.0};
static_assert(kLadderRps[0] == kNominalRps);
/// Length of the nominal phase (long enough for 1000 resident requests, so
/// its tail is a p99) and of each further ladder rung, as shares of
/// --seconds.
constexpr double kNominalShare = 0.15;
constexpr double kRungShare = 0.075;
/// Climbs up the ladder per run; sustained_rps is the median of their rates.
/// Near capacity a rung passes or fails by chance (its p99 rests on the few
/// requests queued behind a cold-design build, and on host stalls), so one
/// climb's rate swings by several rungs.
constexpr int kClimbs = 3;
/// Climbs after the first start this many rungs below the first one's
/// failing rung: the rungs further down pass on almost every run.
constexpr std::size_t kClimbBacktrack = 3;
/// A rung's resident p99 limit.
constexpr double kLatencyLimitMs = 50.0;
/// Growth of a rung's median latency from its first to its last quarter
/// that marks a growing backlog.
constexpr double kBacklogGrowthMs = 25.0;
/// Closed-loop batches: requests per batch (enough that each batch's p99 has
/// ten samples beyond it), batches per run, and ladder tries per batch.
constexpr std::size_t kBatchRequests = 1100;
constexpr int kBatchReps = 6;
constexpr std::size_t kTriesPerBatch = 3;
constexpr std::size_t kWarmRequests = 600;

/// Service workers: one core is left to the open-loop generator.
std::size_t service_workers() {
  return std::max(2u, std::thread::hardware_concurrency()) - 1;
}

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto tv = [](const timeval& t) { return static_cast<double>(t.tv_sec) + t.tv_usec * 1e-6; };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

json::Value number_array(const std::vector<double>& values) {
  auto a = json::Value::array();
  for (const double v : values) a.push_back(v);
  return a;
}

/// Program counters, read through obs and reported as deltas.
class Counters {
 public:
  Counters() : snap_(obs::MetricsRegistry::instance().snapshot()) {}
  [[nodiscard]] double since(const Counters& before, const std::string& name) const {
    return static_cast<double>(get(name)) - static_cast<double>(before.get(name));
  }
  [[nodiscard]] double gauge(const std::string& name) const {
    const auto it = snap_.gauges.find(name);
    return it == snap_.gauges.end() ? 0.0 : it->second;
  }

 private:
  [[nodiscard]] std::uint64_t get(const std::string& name) const {
    const auto it = snap_.counters.find(name);
    return it == snap_.counters.end() ? 0 : it->second;
  }
  obs::MetricsSnapshot snap_;
};

/// Everything a run reports: checks, metrics and details.
struct Report {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> errors;
  std::map<std::string, double> metrics;  ///< by name; units come from BENCHMARK.json
  json::Value details = json::Value::object();

  void attempt(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) fail(what);
  }
  void fail(const std::string& what) {
    ++failed;
    correct = false;
    if (errors.size() < 20) errors.push_back(what);
  }
  void metric(const std::string& name, double value) {
    metrics[name] = std::isfinite(value) ? value : 0.0;
  }
};

// ---------------------------------------------------------------- reference

std::string coopt_key(BenchmarkKind kind, double alpha) {
  char buf[16];
  std::snprintf(buf, sizeof(buf), "%.2f", alpha);
  return std::string(api::benchmark_token(kind)) + "|" + buf;
}

std::string policy_key(BenchmarkKind kind, const pb::Design& d, api::Operation op) {
  return std::string(api::benchmark_token(kind)) + "|" + d.label() + "|" + api::to_string(op);
}

api::EvaluateRequest facade_request(BenchmarkKind kind, api::Operation op,
                                    const pb::Design* design = nullptr) {
  api::EvaluateRequest req;
  req.benchmark = kind;
  req.op = op;
  if (design != nullptr) req.design = design->options();
  req.samples = kMonteCarloSamples;
  return req;
}

/// Bring @p designs of one benchmark into the Session's design cache: stack,
/// analyzer and the lazy factor (one solve of the default state). Returns
/// the milliseconds each design took.
std::vector<double> warm_designs(const api::Session& session, BenchmarkKind kind,
                                 const std::vector<pdn3d::pdn::PdnConfig>& designs) {
  std::vector<double> ms;
  const auto& platform = session.platform(kind);
  const auto& bench = platform.benchmark();
  const auto state = platform.parse_state(bench.default_state, bench.default_io_activity);
  for (const auto& cfg : designs) {
    const auto t0 = Clock::now();
    (void)platform.analyzer(cfg).analyze(state);
    ms.push_back(seconds_since(t0) * 1e3);
  }
  return ms;
}

/// Set-up of the coopt and policy workloads: a new Session whose platforms
/// are built and whose baseline designs are factored, i.e. the cold start the
/// first facade request on a new Session pays. Adds the seconds it took to
/// @p setup_s and each platform's construction time to @p platform_init_ms.
std::unique_ptr<api::Session> setup_session(std::vector<double>* setup_s,
                                            std::vector<double>* platform_init_ms) {
  const auto t0 = Clock::now();
  auto session = std::make_unique<api::Session>();
  for (const auto kind : kStudied) {
    const auto tp = Clock::now();
    const auto& platform = session->platform(kind);
    platform_init_ms->push_back(seconds_since(tp) * 1e3);
    (void)warm_designs(*session, kind, {platform.benchmark().baseline});
  }
  setup_s->push_back(seconds_since(t0));
  return session;
}

// -------------------------------------------------------------- co-optimize

/// Parse the "design  : M2=18% M3=30% TC=15 TL=E TD=N BD=F2F RL=none WB=Y"
/// line of a rendered co-optimization back into the design it names.
std::optional<pdn3d::pdn::PdnConfig> optimum_config(const core::Benchmark& bench,
                                                    const std::string& output) {
  const auto at = output.find("  design  : ");
  if (at == std::string::npos) return std::nullopt;
  std::istringstream line(output.substr(at + 12, output.find('\n', at) - at - 12));
  double m2 = 0.0, m3 = 0.0;
  int tc = 0;
  pdn3d::opt::DiscreteChoice choice;
  for (std::string tok; line >> tok;) {
    const auto eq = tok.find('=');
    if (eq == std::string::npos) continue;
    const std::string k = tok.substr(0, eq), v = tok.substr(eq + 1);
    if (k == "M2") m2 = std::stod(v) / 100.0;
    if (k == "M3") m3 = std::stod(v) / 100.0;
    if (k == "TC") tc = std::stoi(v);
    if (k == "TL") (void)api::parse_tsv_location(v, &choice.tsv_location);
    if (k == "TD") choice.dedicated = v == "Y";
    if (k == "BD") (void)api::parse_bonding(v, &choice.bonding);
    if (k == "RL") (void)api::parse_rdl(v, &choice.rdl);
    if (k == "WB") choice.wire_bonding = v == "Y";
  }
  return pdn3d::opt::make_config(bench.design_space, choice, m2, m3, tc);
}

/// The benchmark's own R-Mesh evaluator for the traced co-optimization: the
/// same build/construct/solve sequence as core::PlatformEvaluator, with a
/// span around each call. The parent span is read at measure() time, so
/// forks running on pool workers attach to the phase that launched them.
class TracedEvaluator final : public pdn3d::opt::Evaluator {
 public:
  struct Shared {
    const core::Benchmark* bench = nullptr;
    pdn3d::power::MemoryState state;
    pb::SpanRecorder* rec = nullptr;
    std::int64_t iteration = 0;
    std::atomic<std::uint64_t> parent{0};
    std::atomic<std::uint64_t> nodes{0};
  };
  explicit TracedEvaluator(Shared& shared) : shared_(&shared) {}

  [[nodiscard]] double measure(const pdn3d::pdn::PdnConfig& config) override {
    auto& s = *shared_;
    const auto parent = s.parent.load();
    std::optional<pdn3d::pdn::BuiltStack> built;
    {
      pb::SpanRecorder::Scope span(*s.rec, "pdn.build_stack", parent, s.iteration);
      built.emplace(pdn3d::pdn::build_stack(s.bench->stack, config));
    }
    s.nodes += built->model.node_count();
    pdn3d::irdrop::PowerBinding power;
    power.dram = s.bench->dram_power;
    power.logic = s.bench->logic_power;
    power.dram_scale = s.bench->power_scale;
    power.logic_active = true;
    std::optional<pdn3d::irdrop::IrAnalyzer> analyzer;
    {
      pb::SpanRecorder::Scope span(*s.rec, "irdrop.analyzer_init", parent, s.iteration);
      analyzer.emplace(built->model, s.bench->stack.dram_fp, s.bench->stack.logic_fp, power);
    }
    pb::SpanRecorder::Scope span(*s.rec, "irdrop.solve", parent, s.iteration);
    return analyzer->analyze(s.state).dram_max_mv;
  }
  [[nodiscard]] std::unique_ptr<pdn3d::opt::Evaluator> fork() const override {
    return std::make_unique<TracedEvaluator>(*shared_);
  }

 private:
  Shared* shared_;
};

/// Check each distinct co-optimization output: it matches the reference and
/// its optimum, re-measured on a fresh Platform, agrees to 0.01 mV. Returns
/// the failure reason per key; an empty reason is a pass.
std::map<std::string, std::string> check_coopt_outputs(
    const pb::Reference& ref, const std::map<std::string, api::EvaluateResult>& outputs) {
  std::map<std::string, std::string> verdicts;
  for (const auto& [key, r] : outputs) {
    const auto kind = key.rfind("wide-io", 0) == 0 ? BenchmarkKind::kWideIo
                                                   : BenchmarkKind::kStackedDdr3OffChip;
    std::string& why = verdicts[key];
    if (!r.ok()) {
      why = "cooptimize failed: " + r.status.to_string();
      continue;
    }
    if (!pb::matches(ref, "coopt", key, r)) why = "coopt " + key + ": output != reference";
    const core::Platform fresh(core::make_benchmark(kind));
    const auto cfg = optimum_config(fresh.benchmark(), r.output);
    if (!cfg || std::fabs(fresh.measure_ir_mv(*cfg) - r.headline_mv) > 0.01) {
      why = "coopt " + key + ": optimum does not re-measure to its reported IR";
    }
  }
  return verdicts;
}

void run_coopt(std::uint64_t seed, double seconds, bool trace, const pb::Reference& ref,
               pb::SpanRecorder& rec, Report* report) {
  pb::Rng rng(seed);
  std::vector<double> setup, platform_init_ms;
  for (int i = 0; i < kSetupReps; ++i) (void)setup_session(&setup, &platform_init_ms);

  std::vector<double> walls, cpus, points_per_iter, skipped_per_iter;
  std::map<BenchmarkKind, std::vector<double>> op_ms;
  std::map<std::string, api::EvaluateResult> outputs;  // distinct, checked after the clock
  std::vector<std::string> op_keys;
  // Untraced pass: the facade path a CLI user runs, a fresh Session per
  // co-optimization. In a traced run it covers half the time and is the
  // baseline of the tracing overhead.
  const double untraced_s = trace ? seconds / 2 : seconds;
  const auto phase0 = Clock::now();
  while (walls.empty() || seconds_since(phase0) < untraced_s) {
    const double alpha = kAlphas[rng.below(std::size(kAlphas))];
    const Counters before;
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    for (const auto kind : kStudied) {
      api::Session session;
      auto req = facade_request(kind, api::Operation::kCoOptimize);
      req.alpha = alpha;
      const auto t = Clock::now();
      auto r = session.evaluate(req);
      op_ms[kind].push_back(seconds_since(t) * 1e3);
      op_keys.push_back(coopt_key(kind, alpha));
      outputs.emplace(op_keys.back(), std::move(r));
    }
    walls.push_back(seconds_since(t0));
    cpus.push_back(cpu_seconds() - c0);
    const Counters after;
    points_per_iter.push_back(after.since(before, "cooptimizer.points_evaluated"));
    skipped_per_iter.push_back(after.since(before, "cooptimizer.points_skipped"));
  }
  const double measured_s = seconds_since(phase0);

  // Traced pass: the same co-optimizations through opt::CoOptimizer with the
  // benchmark's own evaluator, so each layer call gets a span.
  std::vector<double> traced_walls, traced_cpus, fit_s, optimize_s, nodes, rmse, r2;
  std::map<std::string, std::vector<double>> deltas;
  if (trace) {
    const auto phase1 = Clock::now();
    for (std::int64_t it = 0; traced_walls.empty() || seconds_since(phase1) < seconds / 2;
         ++it) {
      const double alpha = kAlphas[rng.below(std::size(kAlphas))];
      const Counters before;
      const double c0 = cpu_seconds();
      const auto t0 = Clock::now();
      double fit = 0.0, optimize = 0.0, worst_rmse = 0.0, worst_r2 = 1.0;
      std::uint64_t built_nodes = 0;
      {
        pb::SpanRecorder::Scope root(rec, "bench.iteration", 0, it);
        for (const auto kind : kStudied) {
          std::optional<core::Platform> platform;
          {
            pb::SpanRecorder::Scope span(rec, "core.platform_init", root.id(), it);
            platform.emplace(core::make_benchmark(kind));
          }
          TracedEvaluator::Shared shared;
          shared.bench = &platform->benchmark();
          shared.state = platform->parse_state(shared.bench->default_state,
                                               shared.bench->default_io_activity);
          shared.rec = &rec;
          shared.iteration = it;
          pdn3d::opt::CoOptimizer opt(shared.bench->design_space,
                                      std::make_unique<TracedEvaluator>(shared));
          const double ft0 = rec.now_s();
          {
            pb::SpanRecorder::Scope span(rec, "opt.fit_models", root.id(), it);
            shared.parent = span.id();
            (void)opt.fit_models();
          }
          const double ft1 = rec.now_s();
          pdn3d::opt::Optimum best;
          {
            pb::SpanRecorder::Scope span(rec, "opt.optimize", root.id(), it);
            shared.parent = span.id();
            best = opt.optimize(alpha);
          }
          fit += ft1 - ft0;
          optimize += rec.now_s() - ft1;
          built_nodes += shared.nodes.load();
          worst_rmse = std::max(worst_rmse, opt.worst_rmse());
          worst_r2 = std::min(worst_r2, opt.worst_r_squared());
          // The traced optimum must be the facade's optimum.
          const json::Value* e = ref.entry("coopt", coopt_key(kind, alpha));
          const json::Value* design = e != nullptr ? e->find("design") : nullptr;
          report->attempt(design != nullptr && design->as_string() == best.config.summary() &&
                              std::fabs(e->find("headline_mv")->as_number() -
                                        best.measured_ir_mv) <= 0.01,
                          "traced cooptimize optimum != reference");
        }
      }
      traced_walls.push_back(seconds_since(t0));
      traced_cpus.push_back(cpu_seconds() - c0);
      fit_s.push_back(fit);
      optimize_s.push_back(optimize);
      nodes.push_back(static_cast<double>(built_nodes));
      rmse.push_back(worst_rmse);
      r2.push_back(worst_r2);
      const Counters after;
      for (const char* name :
           {"pdn.stacks_built", "cg.solves", "cg.iterations", "solver.factor_builds",
            "ladder.escalations", "exec.tasks", "exec.regions", "cooptimizer.points_evaluated",
            "cooptimizer.points_skipped", "solver.rung_attempts.ic-pcg",
            "solver.rung_failures.ic-pcg", "solver.rung_attempts.sparse-direct",
            "solver.rung_failures.sparse-direct"}) {
        deltas[name].push_back(after.since(before, name));
      }
    }
  }

  const double peak_rss = peak_rss_mb();
  const auto verdicts = check_coopt_outputs(ref, outputs);
  for (const auto& key : op_keys) report->attempt(verdicts.at(key).empty(), verdicts.at(key));

  // The two benchmarks' co-optimizations differ by ~20% in cost; pooling
  // them would put the median on whichever side has one sample more, so
  // latency is summarized per benchmark and averaged.
  double lat_p50 = 0.0, lat_tail = 0.0, tail_pct = 0.0;
  std::size_t ops = 0;
  for (const auto& [kind, ms] : op_ms) {
    const auto s = pb::summarize(ms);
    lat_p50 += s.p50 / static_cast<double>(op_ms.size());
    lat_tail += s.tail / static_cast<double>(op_ms.size());
    tail_pct = s.tail_pct;
    ops += s.count;
  }
  if (!trace) {
    report->metric("setup_s", pb::median(setup));
    report->details.set("setup_reps_s", number_array(setup));
    report->metric("wall_s", pb::median(walls));
    report->metric("cpu_s", pb::median(cpus));
    report->metric("peak_rss_mb", peak_rss);
    report->metric("lat_p50_ms", lat_p50);
    report->metric("lat_p99_ms", lat_tail);
    // Every co-optimization runs on a fresh Session, so every one is cold.
    report->metric("cold_p50_ms", lat_p50);
    report->metric("sustained_rps", static_cast<double>(ops) / measured_s);
    report->details.set("lat_tail_pct", tail_pct);
    report->details.set("lat_samples", static_cast<std::uint64_t>(ops));
    report->details.set("iterations", static_cast<std::uint64_t>(walls.size()));
    report->details.set("points_per_iteration", pb::median(points_per_iter));
    report->details.set("skipped_per_iteration", pb::median(skipped_per_iter));
    return;
  }

  const auto spans = rec.spans();
  const auto self = pb::self_by_name(spans);
  std::map<std::string, std::vector<double>> durations;
  for (const auto& s : spans) durations[s.name].push_back((s.end_s - s.start_s) * 1e3);
  const double iters = static_cast<double>(traced_walls.size());
  auto per_iter = [&](const char* name) { return pb::median(deltas[name]); };
  const double threads = static_cast<double>(pdn3d::exec::default_thread_count());
  const double cg_solves = per_iter("cg.solves");

  report->metric("api.evaluate_ms.cooptimize", lat_p50);
  report->metric("core.platform_init_ms", pb::median(durations["core.platform_init"]));
  report->metric("opt.fit_models_s", pb::median(fit_s));
  report->metric("opt.optimize_s", pb::median(optimize_s));
  report->metric("opt.self_s", (self.at("opt.fit_models") + self.at("opt.optimize")) / iters);
  report->metric("opt.points_evaluated", per_iter("cooptimizer.points_evaluated"));
  report->metric("opt.points_skipped", per_iter("cooptimizer.points_skipped"));
  report->metric("fit.worst_rmse_mv", pb::median(rmse));
  report->metric("fit.worst_r2", pb::median(r2));
  report->metric("pdn.build_stack_ms", pb::median(durations["pdn.build_stack"]));
  report->metric("pdn.stacks_built", per_iter("pdn.stacks_built"));
  report->metric("pdn.nodes", pb::median(nodes));
  report->metric("irdrop.analyzer_init_ms", pb::median(durations["irdrop.analyzer_init"]));
  report->metric("irdrop.solve_ms", pb::median(durations["irdrop.solve"]));
  // Each co-optimizer solve is the first on a freshly built analyzer.
  report->metric("irdrop.first_solve_ms", pb::median(durations["irdrop.solve"]));
  report->metric("irdrop.escalations", per_iter("ladder.escalations"));
  report->metric("irdrop.rung.ic-pcg",
                 per_iter("solver.rung_attempts.ic-pcg") - per_iter("solver.rung_failures.ic-pcg"));
  report->metric("irdrop.rung.sparse-direct",
                 per_iter("solver.rung_attempts.sparse-direct") -
                     per_iter("solver.rung_failures.sparse-direct"));
  report->metric("linalg.cg.solves", cg_solves);
  report->metric("linalg.cg.iterations_per_solve",
                 cg_solves > 0 ? per_iter("cg.iterations") / cg_solves : 0.0);
  report->metric("linalg.factor.builds", per_iter("solver.factor_builds"));
  report->metric("exec.parallel_eff",
                 pb::median(traced_cpus) / (pb::median(traced_walls) * threads));
  report->metric("exec.tasks", per_iter("exec.tasks"));
  report->metric("exec.regions", per_iter("exec.regions"));
  report->metric("bench.trace_overhead_pct",
                 (pb::median(traced_walls) / pb::median(walls) - 1.0) * 100.0);
  report->details.set("traced_iterations", static_cast<std::uint64_t>(traced_walls.size()));
}

// ------------------------------------------------------------------- policy

struct SimRun {
  const char* name;
  pdn3d::memctrl::PolicyConfig policy;
  bool constrained;
};

std::vector<SimRun> sim_runs() {
  using pdn3d::memctrl::SchedulingKind;
  return {{"standard", pdn3d::memctrl::standard_policy(), false},
          {"fcfs", pdn3d::memctrl::ir_aware_policy(kIrConstraintMv, SchedulingKind::kFcfs), true},
          {"distr", pdn3d::memctrl::ir_aware_policy(kIrConstraintMv, SchedulingKind::kDistR),
           true}};
}

/// Simulate under one policy and check the IR-aware runs hold their limit.
void simulate_checked(const core::Platform& platform, const pdn3d::pdn::PdnConfig& cfg,
                      const SimRun& run, Report* report) {
  const auto r = platform.simulate(cfg, run.policy);
  report->attempt(!run.constrained || (r.feasible && r.max_ir_mv <= kIrConstraintMv),
                  std::string("simulate ") + run.name + " exceeded its IR constraint");
}

void run_policy(std::uint64_t seed, double seconds, bool trace, const pb::Reference& ref,
                pb::SpanRecorder& rec, Report* report) {
  std::vector<double> setup, platform_init_ms;
  std::unique_ptr<api::Session> session;
  for (int i = 0; i < kSetupReps; ++i) session = setup_session(&setup, &platform_init_ms);

  std::map<BenchmarkKind, std::vector<pb::Design>> pools;
  for (const auto kind : kStudied) pools[kind] = pb::design_pool(kind, kPolicyPool);
  std::vector<std::size_t> order(kPolicyPool);
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  pb::Rng rng(seed);
  for (std::size_t i = order.size() - 1; i > 0; --i) std::swap(order[i], order[rng.below(i + 1)]);

  const auto runs = sim_runs();
  const api::Operation facade_ops[] = {api::Operation::kLut, api::Operation::kMonteCarlo,
                                       api::Operation::kEmCheck};
  std::vector<double> walls, cpus, op_ms, cold_ms;
  std::size_t next = 0;
  auto take_design = [&]() -> std::size_t {
    // Each design is studied once per Session; past the pool the run
    // starts over on a fresh Session so every study builds its design.
    if (next == kPolicyPool) {
      session = std::make_unique<api::Session>();
      next = 0;
    }
    return order[next++];
  };

  const double untraced_s = trace ? seconds / 2 : seconds;
  const auto phase0 = Clock::now();
  while (walls.empty() || seconds_since(phase0) < untraced_s) {
    const std::size_t d = take_design();
    const auto t0 = Clock::now();
    const double c0 = cpu_seconds();
    for (const auto kind : kStudied) {
      const auto& design = pools[kind][d];
      for (const auto op : facade_ops) {
        const auto t = Clock::now();
        const auto r = session->evaluate(facade_request(kind, op, &design));
        const double ms = seconds_since(t) * 1e3;
        op_ms.push_back(ms);
        if (op == api::Operation::kLut) cold_ms.push_back(ms);
        report->attempt(pb::matches(ref, "policy", policy_key(kind, design, op), r),
                        "policy " + policy_key(kind, design, op) + ": output != reference");
      }
      const auto& platform = session->platform(kind);
      const auto cfg = design.options().apply(platform.benchmark().baseline);
      for (const auto& run : runs) {
        const auto t = Clock::now();
        simulate_checked(platform, cfg, run, report);
        op_ms.push_back(seconds_since(t) * 1e3);
      }
    }
    walls.push_back(seconds_since(t0));
    cpus.push_back(cpu_seconds() - c0);
  }
  const double measured_s = seconds_since(phase0);

  if (!trace) {
    const auto ops = pb::summarize(op_ms);
    report->metric("setup_s", pb::median(setup));
    report->details.set("setup_reps_s", number_array(setup));
    report->metric("wall_s", pb::median(walls));
    report->metric("cpu_s", pb::median(cpus));
    report->metric("peak_rss_mb", peak_rss_mb());
    report->metric("lat_p50_ms", ops.p50);
    report->metric("lat_p99_ms", ops.tail);
    report->metric("cold_p50_ms", pb::median(cold_ms));
    report->metric("sustained_rps", static_cast<double>(op_ms.size()) / measured_s);
    report->details.set("lat_tail_pct", ops.tail_pct);
    report->details.set("lat_samples", static_cast<std::uint64_t>(ops.count));
    report->details.set("cold_samples", static_cast<std::uint64_t>(cold_ms.size()));
    report->details.set("iterations", static_cast<std::uint64_t>(walls.size()));
    return;
  }

  // Traced pass: the same study with each layer call split out. The design
  // build and the first solve (which builds the lazy factor) run through
  // Platform::analyzer, the LUT through Platform::lut, so the facade spans
  // that follow time only what is left to their operation.
  std::vector<double> traced_walls, traced_cpus;
  std::map<std::string, std::vector<double>> deltas;
  const auto phase1 = Clock::now();
  for (std::int64_t it = 0; traced_walls.empty() || seconds_since(phase1) < seconds / 2; ++it) {
    const std::size_t d = take_design();
    const Counters before;
    const double c0 = cpu_seconds();
    const auto t0 = Clock::now();
    {
      pb::SpanRecorder::Scope root(rec, "bench.iteration", 0, it);
      for (const auto kind : kStudied) {
        const auto& design = pools[kind][d];
        const auto& platform = session->platform(kind);
        const auto& bench = platform.benchmark();
        const auto cfg = design.options().apply(bench.baseline);
        const pdn3d::irdrop::IrAnalyzer* analyzer = nullptr;
        {
          pb::SpanRecorder::Scope span(rec, "core.design_build", root.id(), it);
          analyzer = &platform.analyzer(cfg);
        }
        const auto state = platform.parse_state(bench.default_state, bench.default_io_activity);
        {
          pb::SpanRecorder::Scope span(rec, "irdrop.first_solve", root.id(), it);
          (void)analyzer->analyze(state);
        }
        {
          pb::SpanRecorder::Scope span(rec, "irdrop.solve", root.id(), it);
          (void)analyzer->analyze(state);
        }
        {
          pb::SpanRecorder::Scope span(rec, "irdrop.lut_build", root.id(), it);
          (void)platform.lut(cfg);
        }
        for (const auto op : facade_ops) {
          pb::SpanRecorder::Scope span(rec, std::string("api.evaluate.") + api::to_string(op),
                                       root.id(), it);
          const auto r = session->evaluate(facade_request(kind, op, &design));
          report->attempt(pb::matches(ref, "policy", policy_key(kind, design, op), r),
                          "traced policy " + policy_key(kind, design, op) + " != reference");
        }
        for (const auto& run : runs) {
          pb::SpanRecorder::Scope span(rec, std::string("memctrl.simulate.") + run.name,
                                       root.id(), it);
          simulate_checked(platform, cfg, run, report);
        }
      }
    }
    traced_walls.push_back(seconds_since(t0));
    traced_cpus.push_back(cpu_seconds() - c0);
    const Counters after;
    for (const char* name :
         {"pdn.stacks_built", "cg.solves", "cg.iterations", "solver.factor_builds",
          "ladder.escalations", "exec.tasks", "exec.regions", "memctrl.requests_completed",
          "platform.design_cache_hits", "platform.design_cache_misses",
          "solver.rung_attempts.ic-pcg", "solver.rung_failures.ic-pcg",
          "solver.rung_attempts.sparse-direct", "solver.rung_failures.sparse-direct"}) {
      deltas[name].push_back(after.since(before, name));
    }
    deltas["factor_nnz"].push_back(after.gauge("solver.factor_nnz"));
    deltas["fill_ratio"].push_back(after.gauge("solver.factor_fill_ratio"));
    deltas["nodes"].push_back(after.gauge("pdn.node_count"));
  }

  const auto spans = rec.spans();
  std::map<std::string, std::vector<double>> dur;
  for (const auto& s : spans) dur[s.name].push_back((s.end_s - s.start_s) * 1e3);
  auto per_iter = [&](const char* name) { return pb::median(deltas[name]); };
  const double hits = per_iter("platform.design_cache_hits");
  const double misses = per_iter("platform.design_cache_misses");
  const double cg_solves = per_iter("cg.solves");
  const double direct = per_iter("solver.rung_attempts.sparse-direct") -
                        per_iter("solver.rung_failures.sparse-direct");
  const double nnz = per_iter("factor_nnz");
  // Computed bytes of the two triangular sweeps per sparse-direct solve:
  // L's values and row indices (16 B per nonzero) each sweep, plus the
  // right-hand side, solution and permutation vectors.
  const double trisolve_mb = direct * (2.0 * nnz * 16.0 + per_iter("nodes") * 8.0 * 4.0) / 1e6;
  const double threads = static_cast<double>(pdn3d::exec::default_thread_count());

  report->metric("api.evaluate_ms.lut", pb::median(dur["api.evaluate.lut"]));
  report->metric("api.evaluate_ms.montecarlo", pb::median(dur["api.evaluate.montecarlo"]));
  report->metric("api.evaluate_ms.em-check", pb::median(dur["api.evaluate.em-check"]));
  report->metric("core.platform_init_ms", pb::median(platform_init_ms));
  report->metric("core.design_build_ms", pb::median(dur["core.design_build"]));
  report->metric("core.design_cache_hit_ratio", hits + misses > 0 ? hits / (hits + misses) : 0.0);
  report->metric("pdn.stacks_built", per_iter("pdn.stacks_built"));
  report->metric("pdn.nodes", per_iter("nodes"));
  report->metric("irdrop.first_solve_ms", pb::median(dur["irdrop.first_solve"]));
  report->metric("irdrop.solve_ms", pb::median(dur["irdrop.solve"]));
  report->metric("irdrop.lut_build_ms", pb::median(dur["irdrop.lut_build"]));
  report->metric("irdrop.montecarlo_ms", pb::median(dur["api.evaluate.montecarlo"]));
  report->metric("irdrop.em_check_ms", pb::median(dur["api.evaluate.em-check"]));
  report->metric("irdrop.escalations", per_iter("ladder.escalations"));
  report->metric("irdrop.rung.ic-pcg",
                 per_iter("solver.rung_attempts.ic-pcg") - per_iter("solver.rung_failures.ic-pcg"));
  report->metric("irdrop.rung.sparse-direct", direct);
  report->metric("linalg.cg.solves", cg_solves);
  report->metric("linalg.cg.iterations_per_solve",
                 cg_solves > 0 ? per_iter("cg.iterations") / cg_solves : 0.0);
  report->metric("linalg.factor.builds", per_iter("solver.factor_builds"));
  report->metric("linalg.factor.nnz", nnz);
  report->metric("linalg.factor.fill_ratio", per_iter("fill_ratio"));
  report->metric("linalg.trisolve_mb", trisolve_mb);
  for (const auto& run : runs) {
    report->metric(std::string("memctrl.simulate_ms.") + run.name,
                   pb::median(dur[std::string("memctrl.simulate.") + run.name]));
  }
  report->metric("memctrl.requests_completed", per_iter("memctrl.requests_completed"));
  report->metric("exec.parallel_eff",
                 pb::median(traced_cpus) / (pb::median(traced_walls) * threads));
  report->metric("exec.tasks", per_iter("exec.tasks"));
  report->metric("exec.regions", per_iter("exec.regions"));
  report->metric("bench.trace_overhead_pct",
                 (pb::median(traced_walls) / pb::median(walls) - 1.0) * 100.0);
  report->details.set("traced_iterations", static_cast<std::uint64_t>(traced_walls.size()));
}

// -------------------------------------------------------------------- serve

/// One submitted request and what came back.
struct Sent {
  double due_s = 0.0;
  double submit_s = 0.0;
  double admitted_s = 0.0;  ///< submit_line returned
  double done_s = -1.0;
  bool cold = false;
  std::string line;
  std::string response;
};

/// Responses land here from service workers (or inline from submit_line).
class Inbox {
 public:
  Inbox(std::vector<Sent>& sent, std::int64_t first_id, Clock::time_point epoch)
      : sent_(sent), first_id_(first_id), epoch_(epoch) {}

  void deliver(const std::string& response) {
    const double t = std::chrono::duration<double>(Clock::now() - epoch_).count();
    const std::int64_t id = std::strtoll(response.c_str() + 6, nullptr, 10);  // {"id":N
    const std::lock_guard<std::mutex> lock(mutex_);
    const auto i = static_cast<std::size_t>(id - first_id_);
    if (id < first_id_ || i >= sent_.size() || sent_[i].done_s >= 0.0) {
      stray_ = true;
    } else {
      sent_[i].done_s = t;
      sent_[i].response = response;
      ++done_;
    }
    cv_.notify_all();
  }
  /// Wait until fewer than @p limit requests are outstanding of @p issued.
  bool wait_below(std::size_t issued, std::size_t limit, double timeout_s) {
    std::unique_lock<std::mutex> lock(mutex_);
    return cv_.wait_for(lock, std::chrono::duration<double>(timeout_s),
                        [&] { return issued - done_ < limit; });
  }
  [[nodiscard]] bool stray() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return stray_;
  }

 private:
  std::vector<Sent>& sent_;
  const std::int64_t first_id_;
  const Clock::time_point epoch_;
  mutable std::mutex mutex_;  ///< guards sent_[*].done_s/response, done_, stray_
  std::condition_variable cv_;
  std::size_t done_ = 0;
  bool stray_ = false;
};

/// Wait until fewer than @p limit of @p issued requests are outstanding. A
/// response that never comes is fatal: its sink still refers to the inbox,
/// so the run cannot go on past it.
void await_responses(Inbox& inbox, std::size_t issued, std::size_t limit) {
  if (!inbox.wait_below(issued, limit, 120.0)) {
    std::cerr << "perfbench: no response within 120 s\n";
    std::_Exit(1);
  }
}

double since_epoch(Clock::time_point epoch) {
  return std::chrono::duration<double>(Clock::now() - epoch).count();
}

/// Feed @p stream open-loop from one generator thread: each request is
/// submitted at its due time whether or not earlier ones have completed.
std::vector<Sent> run_open_loop(pdn3d::service::BatchService& service,
                                const std::vector<pb::ServeItem>& stream, bool* stray) {
  std::vector<Sent> sent(stream.size());
  const auto epoch = Clock::now();
  Inbox inbox(sent, stream.front().id, epoch);
  std::thread generator([&] {
    for (std::size_t i = 0; i < stream.size(); ++i) {
      std::this_thread::sleep_until(epoch + std::chrono::duration_cast<Clock::duration>(
                                                std::chrono::duration<double>(stream[i].due_s)));
      sent[i].due_s = stream[i].due_s;
      sent[i].cold = stream[i].cold;
      sent[i].line = stream[i].line;
      sent[i].submit_s = since_epoch(epoch);
      service.submit_line(stream[i].line, [&inbox](const std::string& r) { inbox.deliver(r); });
      sent[i].admitted_s = since_epoch(epoch);
    }
  });
  generator.join();
  await_responses(inbox, stream.size(), 1);
  *stray = *stray || inbox.stray();
  return sent;
}

/// Push a batch through with one request outstanding per service worker (a
/// client piping an NDJSON file into `pdn3d serve` that waits for answers),
/// so a request's latency is its service time rather than time spent queued
/// behind the rest of the batch. Returns the wall time.
double run_batch(pdn3d::service::BatchService& service, const std::vector<pb::ServeItem>& stream,
                 std::vector<Sent>* out, bool* stray) {
  std::vector<Sent> sent(stream.size());
  const auto epoch = Clock::now();
  Inbox inbox(sent, stream.front().id, epoch);
  for (std::size_t i = 0; i < stream.size(); ++i) {
    await_responses(inbox, i, service_workers());
    sent[i].line = stream[i].line;
    sent[i].cold = stream[i].cold;
    sent[i].due_s = sent[i].submit_s = since_epoch(epoch);
    service.submit_line(stream[i].line, [&inbox](const std::string& r) { inbox.deliver(r); });
    sent[i].admitted_s = since_epoch(epoch);
  }
  await_responses(inbox, stream.size(), 1);
  const double wall = since_epoch(epoch);
  *stray = *stray || inbox.stray();
  out->insert(out->end(), std::make_move_iterator(sent.begin()),
              std::make_move_iterator(sent.end()));
  return wall;
}

struct Parsed {
  bool ok = false;
  std::string error;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  std::string cache;
  std::string op;
  std::optional<std::string> output;
};

Parsed parse_response(const std::string& text) {
  Parsed p;
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const std::exception& e) {
    p.error = e.what();
    return p;
  }
  const auto* ok = doc.find("ok");
  p.ok = ok != nullptr && ok->is_bool() && ok->as_bool();
  if (const auto* e = doc.find("error"); e != nullptr) {
    if (const auto* k = e->find("kind"); k != nullptr && k->is_string()) p.error = k->as_string();
  }
  if (const auto* v = doc.find("queue_ms")) p.queue_ms = v->as_number();
  if (const auto* v = doc.find("run_ms")) p.run_ms = v->as_number();
  if (const auto* v = doc.find("cache"); v != nullptr && v->is_string()) p.cache = v->as_string();
  if (const auto* v = doc.find("op"); v != nullptr && v->is_string()) p.op = v->as_string();
  if (const auto* v = doc.find("output"); v != nullptr && v->is_string()) {
    p.output = v->as_string();
  }
  return p;
}

/// Every served output must be byte-identical to a fresh Session's
/// evaluation of the same request. Checked off the clock, once per
/// fingerprint, with one short-lived Session per design so the check never
/// holds more than a few designs in memory. Returns the requests whose output
/// differs (or whose line did not parse).
std::set<const Sent*> wrong_outputs(const std::vector<const Sent*>& served) {
  struct Expect {
    api::EvaluateRequest req;
    std::string output;
    bool ok = false;
  };
  std::map<std::string, Expect> unique;  // by fingerprint
  std::vector<std::pair<const Sent*, const Expect*>> pairs;
  std::set<const Sent*> wrong;
  for (const Sent* s : served) {
    pdn3d::service::Request req;
    if (!pdn3d::service::parse_request(s->line, &req).is_ok()) {
      wrong.insert(s);
      continue;
    }
    auto& e = unique[req.eval.fingerprint().hex()];
    e.req = req.eval;
    pairs.emplace_back(s, &e);
  }
  std::map<std::string, std::vector<Expect*>> by_design;
  for (auto& [fp, e] : unique) {
    by_design[std::string(api::benchmark_token(e.req.benchmark)) + "|" +
              e.req.design.canonical_text()]
        .push_back(&e);
  }
  std::vector<std::vector<Expect*>*> groups;
  for (auto& [key, group] : by_design) groups.push_back(&group);
  pdn3d::exec::ThreadPool pool;
  pool.parallel_for(groups.size(), [&](std::size_t g) {
    const api::Session fresh;
    for (Expect* e : *groups[g]) {
      const auto r = fresh.evaluate(e->req);
      e->ok = r.ok();
      e->output = r.output;
    }
  });
  for (const auto& [s, e] : pairs) {
    const Parsed p = parse_response(s->response);
    if (p.ok && (!e->ok || p.output != e->output)) wrong.insert(s);
  }
  return wrong;
}

struct LadderRung {
  double rate = 0.0;
  double achieved_rps = 0.0;
  double p99_ms = 0.0;
  bool refused = false;
  bool growing = false;
  bool passed = false;
  int tries = 1;
};

/// Judge one open-loop try at @p rate: resident p99 within the limit, no
/// refusal and no growing backlog.
LadderRung judge_rung(double rate, const std::vector<Sent>& sent) {
  LadderRung rung;
  rung.rate = rate;
  std::vector<double> lat, first, last;
  double end_s = 0.0;
  for (std::size_t i = 0; i < sent.size(); ++i) {
    const Parsed p = parse_response(sent[i].response);
    if (!p.ok) rung.refused = true;
    end_s = std::max(end_s, sent[i].done_s);
    if (sent[i].cold) continue;
    const double ms = pb::open_loop_latency_ms(sent[i].due_s, sent[i].done_s);
    lat.push_back(ms);
    if (i < sent.size() / 4) first.push_back(ms);
    if (i >= sent.size() * 3 / 4) last.push_back(ms);
  }
  std::sort(lat.begin(), lat.end());
  rung.p99_ms = lat.empty() ? 0.0 : pb::percentile(lat, 99.0);
  rung.growing = pb::median(last) - pb::median(first) > kBacklogGrowthMs;
  rung.achieved_rps = static_cast<double>(sent.size()) / end_s;
  rung.passed = !rung.refused && !rung.growing && rung.p99_ms <= kLatencyLimitMs;
  return rung;
}

/// One climb's rate: its highest passing rung, moved toward the first
/// failing one by how much of the latency budget was left (a rung step is
/// ~7% of capacity, too coarse to show a smaller change).
double climb_rate(const std::vector<LadderRung>& rungs) {
  double rate = 0.0;
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (!rungs[i].passed) break;
    rate = rungs[i].rate;
    if (i + 1 < rungs.size()) {
      // A rung that failed on refusals or a growing backlog counts as twice
      // over the limit, whatever its p99 read.
      const auto& fail = rungs[i + 1];
      const double fail_p99 =
          fail.refused || fail.growing ? std::max(fail.p99_ms, 2 * kLatencyLimitMs) : fail.p99_ms;
      const double headroom =
          (kLatencyLimitMs - rungs[i].p99_ms) / std::max(fail_p99 - rungs[i].p99_ms, 1e-9);
      rate += std::clamp(headroom, 0.0, 1.0) * (fail.rate - rungs[i].rate);
    }
  }
  return rate;
}

void run_serve(std::uint64_t seed, double seconds, bool trace, pb::SpanRecorder& rec,
               Report* report) {
  const pb::WorkingSet ws = pb::make_working_set(seed);
  pdn3d::service::ServiceConfig config;
  config.workers = service_workers();

  bool stray = false;
  std::uint64_t cold_serial = seed * 7919;
  std::int64_t next_id = 1;
  auto stream = [&](double rate, std::size_t count) {
    auto s = pb::make_stream(ws, seed, rate, count, next_id, &cold_serial);
    next_id += static_cast<std::int64_t>(count);
    return s;
  };

  // Setup: a Session, its platforms, every resident design built and
  // factored, the service started and warmed -- repeated, the last one kept.
  std::vector<double> setup, design_build_ms, platform_init_ms;
  std::unique_ptr<api::Session> session;
  std::unique_ptr<pdn3d::service::BatchService> service;
  for (int rep = 0; rep < kServeSetupReps; ++rep) {
    if (service) service->drain();
    service.reset();
    const auto t0 = Clock::now();
    session = std::make_unique<api::Session>();
    for (std::size_t b = 0; b < ws.benchmarks.size(); ++b) {
      const auto tp = Clock::now();
      const auto& platform = session->platform(ws.benchmarks[b]);
      platform_init_ms.push_back(seconds_since(tp) * 1e3);
      std::vector<pdn3d::pdn::PdnConfig> configs;
      for (const auto& d : ws.designs[b]) {
        configs.push_back(d.options().apply(platform.benchmark().baseline));
      }
      const auto ms = warm_designs(*session, ws.benchmarks[b], configs);
      design_build_ms.insert(design_build_ms.end(), ms.begin(), ms.end());
    }
    service = std::make_unique<pdn3d::service::BatchService>(*session, config);
    service->start();
    // The first few hundred requests on fresh designs run several times
    // slower than steady state; a closed-loop batch from the same mix lets
    // that lazy state and the result cache fill before anything is timed.
    std::vector<Sent> warm;
    (void)run_batch(*service, stream(kNominalRps, kWarmRequests), &warm, &stray);
    setup.push_back(seconds_since(t0));
  }

  const Counters before;
  auto open_loop = [&](double rate, double share) {
    const double phase_s = std::max(1.0, seconds * share);
    return run_open_loop(*service, stream(rate, static_cast<std::size_t>(rate * phase_s)),
                         &stray);
  };
  // Nominal rate: the open-loop latency figures, and the ladder's first try
  // at its lowest rung.
  const auto nominal = open_loop(kNominalRps, kNominalShare);
  // Read here so the figure covers a fixed amount of traffic: the ladder's
  // length, and with it the number of cold designs cached, varies by run.
  const double peak_rss = peak_rss_mb();

  // Closed-loop batches: the wall and CPU time and the resident latency of a
  // fixed NDJSON batch. One runs before every kTriesPerBatch-th ladder try
  // and the rest after the ladder, so a host stall of a few seconds reaches
  // only some of them; each figure is the median over the batches.
  std::vector<double> batch_wall, batch_cpu, batch_p50, batch_tail;
  pb::Summary batch_lat;
  std::vector<Sent> batch_sent;
  auto batch = [&] {
    if (batch_wall.size() == static_cast<std::size_t>(kBatchReps)) return;
    const auto items = stream(kNominalRps, kBatchRequests);
    const std::size_t first = batch_sent.size();
    const double c0 = cpu_seconds();
    batch_wall.push_back(run_batch(*service, items, &batch_sent, &stray));
    batch_cpu.push_back(cpu_seconds() - c0);
    std::vector<double> resident;
    for (std::size_t i = first; i < batch_sent.size(); ++i) {
      const Sent& sent = batch_sent[i];
      if (!sent.cold) resident.push_back((sent.done_s - sent.submit_s) * 1e3);
    }
    batch_lat = pb::summarize(std::move(resident));
    batch_p50.push_back(batch_lat.p50);
    batch_tail.push_back(batch_lat.tail);
  };
  std::size_t ladder_tries = 0;

  // Rate ladder: the highest offered rate that holds the latency limit with
  // no refusals and no growing backlog. A climb goes up the ladder until a
  // rung fails. A rung that fails is tried once more, so one host stall does
  // not end the climb; it fails when both tries do. Each rung keeps its
  // better try.
  std::vector<Sent> ladder_kept, ladder_probe;
  // One rung, tried up to twice. The nominal phase is the first try of the
  // first climb's lowest rung.
  auto run_rung = [&](std::size_t k, bool nominal_first) {
    LadderRung rung;
    for (int tries = 1; tries <= 2; ++tries) {
      const bool is_nominal = nominal_first && tries == 1;
      std::vector<Sent> fresh;
      if (!is_nominal) {
        if (ladder_tries++ % kTriesPerBatch == 0) batch();
        fresh = open_loop(kLadderRps[k], kRungShare);
      }
      const LadderRung attempt = judge_rung(kLadderRps[k], is_nominal ? nominal : fresh);
      if (tries == 1 || attempt.passed || attempt.p99_ms < rung.p99_ms) rung = attempt;
      rung.tries = tries;
      // The nominal phase's requests are counted as such already.
      auto& keep = attempt.passed ? ladder_kept : ladder_probe;
      keep.insert(keep.end(), fresh.begin(), fresh.end());
      if (attempt.passed) break;
    }
    return rung;
  };
  std::vector<std::vector<LadderRung>> climbs;  // each ascending by rate
  std::size_t from = 0;
  for (int c = 0; c < kClimbs; ++c) {
    std::vector<LadderRung> rungs{run_rung(from, c == 0 && from == 0)};
    // A later climb whose starting rung fails steps down until one passes.
    for (std::size_t k = from; !rungs.front().passed && k > 0;) {
      rungs.insert(rungs.begin(), run_rung(--k, false));
    }
    for (std::size_t k = from + 1; rungs.back().passed && k < std::size(kLadderRps); ++k) {
      rungs.push_back(run_rung(k, false));
    }
    if (c == 0) {
      const std::size_t top = rungs.size() - 1;  // the failing rung, or the ladder's last
      from = top > kClimbBacktrack ? top - kClimbBacktrack : 0;
    }
    climbs.push_back(std::move(rungs));
  }
  while (batch_wall.size() < static_cast<std::size_t>(kBatchReps)) batch();
  const Counters after;
  const double peak_queue = [&] {
    const auto block = service->session_block();
    const auto* v = block.find("peak_queue_depth");
    return v != nullptr ? v->as_number() : 0.0;
  }();

  // Traced replay: a second set of batches under spans, for the overhead and
  // the per-request attribution, plus the facade's own per-request steps.
  std::vector<double> traced_wall;
  std::vector<Sent> traced_sent;
  if (trace) {
    for (int rep = 0; rep < kBatchReps; ++rep) {
      const auto items = stream(kNominalRps, kBatchRequests);
      const auto root_start = rec.now_s();
      std::vector<Sent> sent;
      traced_wall.push_back(run_batch(*service, items, &sent, &stray));
      const auto root = rec.add("bench.batch", 0, rep, root_start, rec.now_s());
      for (const auto& s : sent) {
        const double base = root_start + s.submit_s;
        const auto req = rec.add("bench.request", root, rep, base, root_start + s.done_s);
        const Parsed p = parse_response(s.response);
        const double admit_end = root_start + s.admitted_s;
        rec.add("service.admit", req, rep, base, admit_end);
        const double queue_end = admit_end + p.queue_ms / 1e3;
        rec.add("service.queue", req, rep, admit_end, queue_end);
        if (p.cache != "hit") rec.add("service.run", req, rep, queue_end, queue_end + p.run_ms / 1e3);
      }
      traced_sent.insert(traced_sent.end(), sent.begin(), sent.end());
    }
  }
  service->drain();
  if (stray) report->fail("a response was lost, duplicated or unmatched");

  // Outcome accounting: every request counts; a refusal, error or wrong
  // output fails it. A failed ladder try is a probe: its refusals are the
  // measurement and are left out, its answers are checked like the rest.
  std::vector<const Sent*> counted;
  for (const auto& s : nominal) counted.push_back(&s);
  for (const auto& s : ladder_kept) counted.push_back(&s);
  for (const auto& s : batch_sent) counted.push_back(&s);
  for (const auto& s : traced_sent) counted.push_back(&s);
  const std::size_t unprobed = counted.size();  // per-layer figures leave the probe out
  std::uint64_t probe_refused = 0;
  for (const auto& s : ladder_probe) {
    if (parse_response(s.response).ok) {
      counted.push_back(&s);
    } else {
      ++probe_refused;
    }
  }
  report->details.set("probe_refused", probe_refused);
  const auto wrong = wrong_outputs(counted);
  std::vector<double> queue_ms, run_ms, admit_us, run_by_op_eval, run_by_op_em;
  std::uint64_t hits = 0, responses = 0;
  for (std::size_t i = 0; i < counted.size(); ++i) {
    const Sent* s = counted[i];
    const Parsed p = parse_response(s->response);
    if (!p.ok) {
      report->attempt(false, "request failed (" + p.error + "): " + s->line);
    } else {
      report->attempt(wrong.count(s) == 0, "served output differs from a fresh evaluation: " +
                                               s->line);
    }
    if (i >= unprobed) continue;
    ++responses;
    if (p.cache == "hit") ++hits;
    queue_ms.push_back(p.queue_ms);
    admit_us.push_back((s->admitted_s - s->submit_s) * 1e6);
    if (p.cache != "hit") {
      run_ms.push_back(p.run_ms);
      (p.op == "em-check" ? run_by_op_em : run_by_op_eval).push_back(p.run_ms);
    }
  }

  // Open-loop latency at the nominal rate, from each request's due time.
  std::vector<double> resident, cold, late;
  for (const auto& s : nominal) {
    const double ms = pb::open_loop_latency_ms(s.due_s, s.done_s);
    (s.cold ? cold : resident).push_back(ms);
    late.push_back((s.submit_s - s.due_s) * 1e3);
  }
  const auto lat = pb::summarize(resident);
  // Batch latency, from submission with one request outstanding per worker:
  // the service time a client sees, which the end-to-end latencies report.
  // Open-loop latency at the nominal rate is a per-layer figure: on a shared
  // host its run-to-run spread exceeds any bound the benchmark may set.
  std::vector<double> batch_cold;
  for (const auto& s : batch_sent) {
    if (s.cold) batch_cold.push_back((s.done_s - s.submit_s) * 1e3);
  }
  std::vector<double> climb_rps;
  auto ladder_json = json::Value::array();
  for (const auto& rungs : climbs) {
    climb_rps.push_back(climb_rate(rungs));
    auto climb = json::Value::object();
    climb.set("rps", climb_rps.back());
    auto rungs_json = json::Value::array();
    for (const auto& rung : rungs) {
      auto o = json::Value::object();
      o.set("offered_rps", rung.rate);
      o.set("achieved_rps", rung.achieved_rps);
      o.set("p99_ms", rung.p99_ms);
      o.set("refused", rung.refused);
      o.set("growing_backlog", rung.growing);
      o.set("passed", rung.passed);
      o.set("tries", rung.tries);
      rungs_json.push_back(std::move(o));
    }
    climb.set("rungs", std::move(rungs_json));
    ladder_json.push_back(std::move(climb));
  }
  const double ladder_rps = pb::median(climb_rps);
  report->details.set("ladder", std::move(ladder_json));
  report->details.set("batch_wall_s", number_array(batch_wall));
  report->details.set("lat_samples_per_batch", static_cast<std::uint64_t>(batch_lat.count));
  report->details.set("lat_tail_pct", batch_lat.tail_pct);
  report->details.set("cold_samples", static_cast<std::uint64_t>(batch_cold.size()));
  report->details.set("open_loop_samples", static_cast<std::uint64_t>(lat.count));
  report->details.set("open_loop_tail_pct", lat.tail_pct);
  report->details.set("open_loop_cold_samples", static_cast<std::uint64_t>(cold.size()));
  const double coalesced = after.since(before, "service.coalesce.requests");
  const double completed = after.since(before, "service.completed");
  report->details.set("cache_hit_share", responses ? double(hits) / double(responses) : 0.0);
  report->details.set("coalesced_share", completed > 0 ? coalesced / completed : 0.0);
  report->details.set("cold_share",
                      nominal.empty() ? 0.0 : double(cold.size()) / double(nominal.size()));

  report->details.set("ladder_rps", ladder_rps);
  if (!trace) {
    report->metric("setup_s", pb::median(setup));
    report->details.set("setup_reps_s", number_array(setup));
    report->metric("wall_s", pb::median(batch_wall));
    report->metric("cpu_s", pb::median(batch_cpu));
    report->metric("peak_rss_mb", peak_rss);
    report->metric("lat_p50_ms", pb::median(batch_p50));
    report->metric("lat_p99_ms", pb::median(batch_tail));
    report->metric("cold_p50_ms", pb::median(batch_cold));
    report->metric("sustained_rps", ladder_rps);
    return;
  }

  // Facade steps the service performs per request, replayed off the
  // service: protocol parse, fingerprint and response render.
  std::vector<double> parse_us, fp_us, render_us;
  for (std::size_t i = 0; i < std::min<std::size_t>(counted.size(), 500); ++i) {
    const Sent* s = counted[i];
    pdn3d::service::Request req;
    auto t = Clock::now();
    const auto st = pdn3d::service::parse_request(s->line, &req);
    parse_us.push_back(seconds_since(t) * 1e6);
    if (!st.is_ok()) continue;
    t = Clock::now();
    (void)req.eval.fingerprint();
    fp_us.push_back(seconds_since(t) * 1e6);
    const Parsed p = parse_response(s->response);
    api::EvaluateResult result;
    result.output = p.output.value_or(std::string());
    t = Clock::now();
    (void)pdn3d::service::ok_response(req, result, p.queue_ms, p.run_ms, p.cache);
    render_us.push_back(seconds_since(t) * 1e6);
  }
  const auto spans = rec.spans();
  const auto self = pb::self_times(spans);
  double unattributed = 0.0, covered = 0.0;
  for (const auto& s : spans) {
    if (s.name == "bench.request") {
      unattributed += self.at(s.id);
      covered += s.end_s - s.start_s;
    }
  }
  std::sort(queue_ms.begin(), queue_ms.end());
  std::sort(run_ms.begin(), run_ms.end());
  std::sort(admit_us.begin(), admit_us.end());
  const double cache_hits = after.since(before, "service.cache.hits");
  const double cache_misses = after.since(before, "service.cache.misses");
  const double groups = after.since(before, "service.coalesce.groups");
  report->metric("service.admit_us.p50", pb::percentile(admit_us, 50));
  report->metric("service.admit_us.p99", pb::percentile(admit_us, 99));
  report->metric("service.queue_ms.p50", pb::percentile(queue_ms, 50));
  report->metric("service.queue_ms.p99", pb::percentile(queue_ms, 99));
  report->metric("service.run_ms.p50", run_ms.empty() ? 0.0 : pb::percentile(run_ms, 50));
  report->metric("service.run_ms.p99", run_ms.empty() ? 0.0 : pb::percentile(run_ms, 99));
  report->metric("service.parse_us", pb::median(parse_us));
  report->metric("service.render_us", pb::median(render_us));
  report->metric("service.rejected",
                 after.since(before, "service.queue_full") +
                     after.since(before, "service.rejected_overload"));
  report->metric("service.cache_hit_ratio",
                 cache_hits + cache_misses > 0 ? cache_hits / (cache_hits + cache_misses) : 0.0);
  report->metric("service.coalesce_ratio", completed > 0 ? coalesced / completed : 0.0);
  report->metric("service.coalesce_groups", groups);
  report->metric("service.peak_queue_depth", peak_queue);
  report->metric("service.open_loop_p50_ms", lat.p50);
  report->metric("service.open_loop_p99_ms", lat.tail);
  report->metric("service.open_loop_cold_p50_ms", pb::median(cold));
  report->metric("api.fingerprint_us", pb::median(fp_us));
  report->metric("api.evaluate_ms.evaluate", pb::median(run_by_op_eval));
  report->metric("api.evaluate_ms.em-check", pb::median(run_by_op_em));
  report->metric("core.platform_init_ms", pb::median(platform_init_ms));
  report->metric("core.design_build_ms", pb::median(design_build_ms));
  const double dh = after.since(before, "platform.design_cache_hits");
  const double dm = after.since(before, "platform.design_cache_misses");
  report->metric("core.design_cache_hit_ratio", dh + dm > 0 ? dh / (dh + dm) : 0.0);
  // Serve counts are totals over the measured phases.
  auto delta = [&](const char* name) { return after.since(before, name); };
  report->metric("pdn.stacks_built", delta("pdn.stacks_built"));
  report->metric("irdrop.escalations", delta("ladder.escalations"));
  report->metric("irdrop.rung.ic-pcg",
                 delta("solver.rung_attempts.ic-pcg") - delta("solver.rung_failures.ic-pcg"));
  report->metric("irdrop.rung.sparse-direct",
                 delta("solver.rung_attempts.sparse-direct") -
                     delta("solver.rung_failures.sparse-direct"));
  report->metric("linalg.cg.solves", delta("cg.solves"));
  report->metric("linalg.cg.iterations_per_solve",
                 delta("cg.solves") > 0 ? delta("cg.iterations") / delta("cg.solves") : 0.0);
  report->metric("linalg.factor.builds", delta("solver.factor_builds"));
  report->metric("exec.tasks", delta("exec.tasks"));
  report->metric("exec.regions", delta("exec.regions"));
  report->metric("bench.gen_late_ms", pb::summarize(late).tail);
  report->metric("bench.unattributed_pct", covered > 0 ? unattributed / covered * 100.0 : 0.0);
  report->metric("bench.trace_overhead_pct",
                 (pb::median(traced_wall) / pb::median(batch_wall) - 1.0) * 100.0);
}

// ---------------------------------------------------------------- recording

/// Record the reference outputs the coopt and policy checks compare with.
int record_reference(const std::string& path) {
  auto doc = json::Value::object();
  auto coopt = json::Value::object();
  for (const auto kind : kStudied) {
    for (const double alpha : kAlphas) {
      const api::Session session;
      auto req = facade_request(kind, api::Operation::kCoOptimize);
      req.alpha = alpha;
      const auto r = session.evaluate(req);
      if (!r.ok()) throw std::runtime_error("cooptimize failed while recording");
      auto e = pb::reference_entry(r);
      const auto at = r.output.find("  design  : ");
      std::string design = r.output.substr(at + 12, r.output.find('\n', at) - at - 12);
      e.set("design", design);
      coopt.set(coopt_key(kind, alpha), std::move(e));
      std::cerr << "recorded " << coopt_key(kind, alpha) << "\n";
    }
  }
  auto policy = json::Value::object();
  const auto runs = sim_runs();
  for (const auto kind : kStudied) {
    const api::Session session;
    for (const auto& design : pb::design_pool(kind, kPolicyPool)) {
      for (const auto op :
           {api::Operation::kLut, api::Operation::kMonteCarlo, api::Operation::kEmCheck}) {
        const auto r = session.evaluate(facade_request(kind, op, &design));
        if (!r.ok()) throw std::runtime_error("policy op failed while recording");
        policy.set(policy_key(kind, design, op), pb::reference_entry(r));
      }
      const auto& platform = session.platform(kind);
      const auto cfg = design.options().apply(platform.benchmark().baseline);
      Report check;
      for (const auto& run : runs) simulate_checked(platform, cfg, run, &check);
      if (!check.correct) {
        throw std::runtime_error("pool design violates its IR constraint: " + design.label());
      }
    }
    std::cerr << "recorded policy pool for " << api::benchmark_token(kind) << "\n";
  }
  doc.set("coopt", std::move(coopt));
  doc.set("policy", std::move(policy));
  std::ofstream out(path);
  out << doc.dump(1) << "\n";
  return out ? 0 : 1;
}

// --------------------------------------------------------------------- main

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = 0;
  std::string reference;
  std::string metrics;  ///< BENCHMARK.json: the metric names and units to print
  std::string out = ".";
  std::string record;
};

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why
            << "\nusage: perfbench --workload coopt|policy|serve --seed N --seconds S "
               "--trace 0|1 --reference FILE --metrics BENCHMARK.json [--out DIR]\n"
               "       perfbench --record FILE\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) usage("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") a.workload = v;
      else if (k == "--seed") a.seed = std::stoull(v);
      else if (k == "--seconds") a.seconds = std::stod(v);
      else if (k == "--trace") a.trace = std::stoi(v);
      else if (k == "--reference") a.reference = v;
      else if (k == "--metrics") a.metrics = v;
      else if (k == "--out") a.out = v;
      else if (k == "--record") a.record = v;
      else usage("unknown option " + k);
    } catch (const std::logic_error&) {
      usage("bad value for " + k + ": " + v);
    }
  }
  if (!a.record.empty()) return a;
  if (a.workload != "coopt" && a.workload != "policy" && a.workload != "serve") {
    usage("unknown workload '" + a.workload + "'");
  }
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (a.reference.empty()) usage("--reference is required");
  if (a.metrics.empty()) usage("--metrics is required");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  if (std::getenv("PDN3D_FAULTS") != nullptr) {
    std::cerr << "perfbench: refusing to run with PDN3D_FAULTS set\n";
    return 2;
  }
  if (std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::cerr << "perfbench: refusing to run a " << PERFBENCH_BUILD_TYPE << " build\n";
    return 2;
  }
  const Args args = parse_args(argc, argv);
  const auto threads = std::min<std::size_t>(4, std::thread::hardware_concurrency());
  pdn3d::exec::set_default_thread_count(std::max<std::size_t>(1, threads));
  try {
    if (!args.record.empty()) return record_reference(args.record);
    const pb::Reference ref = pb::load_reference(args.reference);
    const json::Value spec = pb::load_json(args.metrics);
    pb::SpanRecorder rec(args.trace == 1);
    Report report;
    const int workers = args.workload == "serve" ? static_cast<int>(service_workers()) : 0;
    if (args.workload == "coopt") run_coopt(args.seed, args.seconds, args.trace, ref, rec, &report);
    if (args.workload == "policy") {
      run_policy(args.seed, args.seconds, args.trace, ref, rec, &report);
    }
    if (args.workload == "serve") run_serve(args.seed, args.seconds, args.trace, rec, &report);

    if (rec.enabled()) {
      const auto spans = rec.spans();
      const auto self = pb::self_times(spans);
      if (args.workload != "serve") {
        // Share of each iteration no layer span covers.
        double root_self = 0.0, root_total = 0.0;
        for (const auto& s : spans) {
          if (s.name == "bench.iteration") {
            root_self += self.at(s.id);
            root_total += s.end_s - s.start_s;
          }
        }
        report.metric("bench.unattributed_pct",
                      root_total > 0 ? root_self / root_total * 100.0 : 0.0);
      }
      auto layers = json::Value::object();
      for (const auto& [name, secs] : pb::self_by_name(spans)) layers.set(name, secs);
      report.details.set("self_s_by_span", std::move(layers));
      std::filesystem::create_directories(args.out);
      std::ofstream out(args.out + "/spans-" + args.workload + "-" + std::to_string(args.seed) +
                        ".json");
      out << rec.to_json().dump() << "\n";
    }

    auto errors = json::Value::array();
    for (const auto& e : report.errors) errors.push_back(e);
    report.details.set("errors", std::move(errors));
    report.details.set("stamp", pb::host_stamp(args.seed, static_cast<int>(threads), workers));
    report.details.set("workload", args.workload);
    report.details.set("trace", args.trace);

    // Print exactly the metrics BENCHMARK.json lists for this mode, in list
    // order, with its units. A per-layer metric the workload does not reach
    // reads 0; a missing end-to-end one, or a measured one the list does not
    // name, is a benchmark bug.
    auto metrics = json::Value::object();
    const auto& listed = spec.find(args.trace == 1 ? "per_layer" : "end_to_end")->items();
    std::set<std::string> names;
    for (const auto& item : listed) {
      const std::string& name = item.find("name")->as_string();
      names.insert(name);
      const auto it = report.metrics.find(name);
      if (it == report.metrics.end() && args.trace == 0) {
        throw std::logic_error("metric " + name + " was not measured");
      }
      auto m = json::Value::object();
      m.set("value", it == report.metrics.end() ? 0.0 : it->second);
      m.set("unit", item.find("unit")->as_string());
      metrics.set(name, std::move(m));
    }
    for (const auto& [name, value] : report.metrics) {
      if (names.count(name) == 0) throw std::logic_error("metric " + name + " is not listed");
    }
    auto result = json::Value::object();
    result.set("correct", report.correct);
    result.set("attempted", report.attempted);
    result.set("failed", report.failed);
    result.set("metrics", std::move(metrics));

    std::filesystem::create_directories(args.out);
    auto saved = json::Value::object();
    saved.set("details", report.details);
    saved.set("result", result);
    std::ofstream(args.out + "/result-" + args.workload + "-" + std::to_string(args.seed) +
                  "-trace" + std::to_string(args.trace) + ".json")
        << saved.dump(1) << "\n";

    std::cout << report.details.dump() << "\n" << result.dump() << "\n";
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
