// Solver micro-benchmarks (google-benchmark): R-Mesh assembly and DC solve
// cost across mesh refinements and preconditioners. Not a paper table, but
// documents the per-solve cost the LUT construction and co-optimization
// sweeps are built on.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/benchmarks.hpp"
#include "exec/thread_pool.hpp"
#include "irdrop/analysis.hpp"
#include "irdrop/eval_context.hpp"
#include "irdrop/lut.hpp"
#include "irdrop/macromodel.hpp"
#include "irdrop/montecarlo.hpp"
#include "linalg/reorder.hpp"
#include "linalg/schur.hpp"
#include "linalg/sparse_chol.hpp"
#include "pdn/stack_builder.hpp"

namespace {

using namespace pdn3d;

const core::Benchmark& ddr3() {
  static const core::Benchmark b = core::make_benchmark(core::BenchmarkKind::kStackedDdr3OffChip);
  return b;
}

const core::Benchmark& wideio() {
  static const core::Benchmark b = core::make_benchmark(core::BenchmarkKind::kWideIo);
  return b;
}

const char* kind_label(irdrop::SolverKind kind) {
  switch (kind) {
    case irdrop::SolverKind::kMacromodel: return "macromodel";
    case irdrop::SolverKind::kSparseDirect: return "sparse-direct";
    case irdrop::SolverKind::kPcgIc: return "IC-PCG";
    case irdrop::SolverKind::kPcgJacobi: return "Jacobi-PCG";
    case irdrop::SolverKind::kBandedDirect: return "RCM banded direct";
    case irdrop::SolverKind::kDense: return "dense";
  }
  return "?";
}

void BM_BuildStack(benchmark::State& state) {
  const auto& b = ddr3();
  for (auto _ : state) {
    auto built = pdn::build_stack(b.stack, b.baseline);
    benchmark::DoNotOptimize(built.model.node_count());
  }
}
BENCHMARK(BM_BuildStack);

void BM_AnalyzerSetup(benchmark::State& state) {
  const auto& b = ddr3();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  irdrop::PowerBinding power;
  power.dram = b.dram_power;
  power.logic = b.logic_power;
  for (auto _ : state) {
    irdrop::IrAnalyzer analyzer(built.model, b.stack.dram_fp, b.stack.logic_fp, power);
    benchmark::DoNotOptimize(&analyzer);
  }
}
BENCHMARK(BM_AnalyzerSetup);

void BM_SolveState(benchmark::State& state) {
  const auto& b = ddr3();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  irdrop::PowerBinding power;
  power.dram = b.dram_power;
  power.logic = b.logic_power;
  const auto kind = static_cast<irdrop::SolverKind>(state.range(0));
  const irdrop::IrAnalyzer analyzer(built.model, b.stack.dram_fp, b.stack.logic_fp, power, kind);
  const auto st = power::parse_memory_state("0-0-0-2", b.stack.dram_spec);
  // One untimed solve first: it builds the rung's lazy state (the sparse
  // factor), so the loop measures the steady-state solve a sweep repeats.
  benchmark::DoNotOptimize(analyzer.analyze(st).dram_max_mv);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze(st).dram_max_mv);
  }
  state.SetLabel(kind_label(kind));
}
BENCHMARK(BM_SolveState)
    ->Arg(static_cast<int>(irdrop::SolverKind::kSparseDirect))
    ->Arg(static_cast<int>(irdrop::SolverKind::kPcgIc))
    ->Arg(static_cast<int>(irdrop::SolverKind::kPcgJacobi))
    ->Arg(static_cast<int>(irdrop::SolverKind::kBandedDirect));

// --- Same-matrix/many-RHS fast path ----------------------------------------
// The sparse-direct rung's two cost components, measured separately on the
// Wide I/O-class mesh: the one-time factorization (amortized across a sweep)
// and the per-batch triangular sweeps that replace whole PCG solves.

void BM_FactorOnce(benchmark::State& state) {
  const auto& b = wideio();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  const irdrop::IrSolver solver(built.model, irdrop::SolverKind::kPcgIc);
  const linalg::Csr& g = solver.conductance_matrix();
  std::size_t nnz = 0;
  for (auto _ : state) {
    const linalg::SparseCholesky chol(g, linalg::amd_ordering(g));
    nnz = chol.factor_nnz();
    benchmark::DoNotOptimize(nnz);
  }
  state.SetLabel("AMD order + factor, " + std::to_string(g.dimension()) +
                 " nodes, nnz(L)=" + std::to_string(nnz));
}
BENCHMARK(BM_FactorOnce)->Unit(benchmark::kMillisecond);

void BM_TriangularSolveBatch(benchmark::State& state) {
  const auto& b = wideio();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  const irdrop::IrSolver solver(built.model, irdrop::SolverKind::kPcgIc);
  const linalg::Csr& g = solver.conductance_matrix();
  const linalg::SparseCholesky chol(g, linalg::amd_ordering(g));
  const auto count = static_cast<std::size_t>(state.range(0));
  const std::size_t n = g.dimension();
  std::vector<double> rhs(n * count, 0.0);
  for (std::size_t i = 0; i < rhs.size(); ++i) rhs[i] = 1e-3 * static_cast<double>(i % 17);
  std::vector<double> x(n * count, 0.0);
  std::vector<double> work;
  for (auto _ : state) {
    chol.solve_batch(rhs, x, count, work);
    benchmark::DoNotOptimize(x.data());
  }
  state.SetLabel("AMD factor, " + std::to_string(count) + " rhs");
}
BENCHMARK(BM_TriangularSolveBatch)->Arg(1)->Arg(8)->Arg(32);

void BM_SingleDieSolve(benchmark::State& state) {
  const auto& b = ddr3();
  const int refine = static_cast<int>(state.range(0));
  const auto die = pdn::build_single_die(b.stack, b.baseline, refine);
  irdrop::PowerBinding power;
  power.dram = b.dram_power;
  power.logic = b.logic_power;
  const irdrop::IrAnalyzer analyzer(die, b.stack.dram_fp, b.stack.logic_fp, power);
  const auto st = power::parse_memory_state("2a", b.stack.dram_spec, 1.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(analyzer.analyze(st).dram_max_mv);
  }
  state.SetLabel(std::to_string(die.node_count()) + " nodes");
}
BENCHMARK(BM_SingleDieSolve)->Arg(1)->Arg(2)->Arg(3);

// --- Parallel sweep engine + solver fast path ------------------------------
// Two-dimensional series over the Wide I/O-class mesh: worker count (1/2/4)
// x starting solver rung (ic-pcg vs the cached sparse-direct factor). Results
// are bitwise identical across the thread axis (the determinism contract);
// only the wall clock moves. The sparse-direct rows document the many-RHS
// fast path: the factorization is paid once per analyzer and every subsequent
// state solve is two triangular sweeps, which is where the LUT build and
// Monte Carlo sweeps gain over per-solve PCG. On a single-core CI box the
// threads>1 rows mostly measure oversubscription; the threads=1 rows are the
// direct-vs-pcg comparison the perf gate reads.

void BM_MonteCarloSweep(benchmark::State& state) {
  const auto& b = wideio();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  irdrop::PowerBinding power;
  power.dram = b.dram_power;
  power.logic = b.logic_power;
  const auto kind = static_cast<irdrop::SolverKind>(state.range(1));
  const irdrop::IrAnalyzer analyzer(built.model, b.stack.dram_fp, b.stack.logic_fp, power, kind);
  irdrop::MonteCarloConfig cfg;
  cfg.samples = 32;
  cfg.threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        irdrop::sample_ir_distribution(analyzer, b.stack.dram_spec, cfg).mean_mv);
  }
  state.SetLabel(std::to_string(cfg.threads) + " threads, " + kind_label(kind));
}
BENCHMARK(BM_MonteCarloSweep)
    ->Args({1, static_cast<int>(irdrop::SolverKind::kPcgIc)})
    ->Args({2, static_cast<int>(irdrop::SolverKind::kPcgIc)})
    ->Args({4, static_cast<int>(irdrop::SolverKind::kPcgIc)})
    ->Args({1, static_cast<int>(irdrop::SolverKind::kSparseDirect)})
    ->Args({2, static_cast<int>(irdrop::SolverKind::kSparseDirect)})
    ->Args({4, static_cast<int>(irdrop::SolverKind::kSparseDirect)})
    ->Unit(benchmark::kMillisecond);

void BM_LutBuild(benchmark::State& state) {
  const auto& b = wideio();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  irdrop::PowerBinding power;
  power.dram = b.dram_power;
  power.logic = b.logic_power;
  const auto kind = static_cast<irdrop::SolverKind>(state.range(1));
  irdrop::IrSolverOptions options;
  if (kind == irdrop::SolverKind::kMacromodel) {
    options.macromodel = std::make_shared<irdrop::MacromodelContext>();
  }
  const irdrop::IrAnalyzer analyzer(built.model, b.stack.dram_fp, b.stack.logic_fp, power, kind,
                                    options);
  const int threads = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        irdrop::IrLut::build(analyzer, b.stack.dram_spec, 2, 1.0, threads).worst_case_mv());
  }
  state.SetLabel(std::to_string(threads) + " threads, " + kind_label(kind));
}
BENCHMARK(BM_LutBuild)
    ->Args({1, static_cast<int>(irdrop::SolverKind::kPcgIc)})
    ->Args({2, static_cast<int>(irdrop::SolverKind::kPcgIc)})
    ->Args({4, static_cast<int>(irdrop::SolverKind::kPcgIc)})
    ->Args({1, static_cast<int>(irdrop::SolverKind::kSparseDirect)})
    ->Args({2, static_cast<int>(irdrop::SolverKind::kSparseDirect)})
    ->Args({4, static_cast<int>(irdrop::SolverKind::kSparseDirect)})
    ->Args({1, static_cast<int>(irdrop::SolverKind::kMacromodel)})
    ->Unit(benchmark::kMillisecond);

void BM_PoolDispatchOverhead(benchmark::State& state) {
  // Per-region cost of the single-thread inline path against the same solve
  // loop written as a plain for: the <= 5% single-thread overhead budget.
  const auto& b = ddr3();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  irdrop::PowerBinding power;
  power.dram = b.dram_power;
  power.logic = b.logic_power;
  const irdrop::IrAnalyzer analyzer(built.model, b.stack.dram_fp, b.stack.logic_fp, power);
  const auto st = power::parse_memory_state("0-0-0-2", b.stack.dram_spec);
  const bool pooled = state.range(0) != 0;
  exec::ThreadPool pool(1);
  irdrop::EvalContext root(analyzer);
  for (auto _ : state) {
    double sum = 0.0;
    if (pooled) {
      pool.parallel_chunks(8, [&](std::size_t, std::size_t begin, std::size_t end) {
        irdrop::EvalContext ctx = root.fork();
        for (std::size_t i = begin; i < end; ++i) sum += ctx.analyze(st).dram_max_mv;
      });
    } else {
      irdrop::EvalContext ctx = root.fork();
      for (std::size_t i = 0; i < 8; ++i) sum += ctx.analyze(st).dram_max_mv;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetLabel(pooled ? "pool(1) inline path" : "plain loop");
}
BENCHMARK(BM_PoolDispatchOverhead)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

// --- Hierarchical (Schur macromodel) tier ----------------------------------
// The PR 9 rung: per-die interior elimination shared through a fingerprint-
// keyed block cache, a small reduced interface factor, and Woodbury overlays
// for small design deltas. BM_MacromodelBuild prices the two build regimes
// (cold vs warm die cache), BM_ReducedSolve the steady-state per-RHS cost,
// and BM_CoOptSweep the headline sweep-level comparison against the PR 4
// sparse-direct path.

void BM_MacromodelBuild(benchmark::State& state) {
  const auto& b = wideio();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  const irdrop::IrSolver probe(built.model, irdrop::SolverKind::kPcgIc);
  const linalg::Csr& g = probe.conductance_matrix();
  const auto block_of = irdrop::stack_partition(built.model);
  const linalg::SchurOptions schur_opts;
  const bool warm = state.range(0) != 0;
  linalg::SchurBlockCache shared;
  if (warm) {
    // Pre-populate the die cache: the warm row measures fingerprint lookups
    // plus the reduced-system factor only -- the cost a sweep neighbor pays.
    const linalg::SchurMacromodel prime(g, block_of, schur_opts, &shared);
    benchmark::DoNotOptimize(prime.dimension());
  }
  std::size_t interfaces = 0;
  for (auto _ : state) {
    if (warm) {
      const linalg::SchurMacromodel mm(g, block_of, schur_opts, &shared);
      interfaces = mm.interface_count();
    } else {
      linalg::SchurBlockCache cold;
      const linalg::SchurMacromodel mm(g, block_of, schur_opts, &cold);
      interfaces = mm.interface_count();
    }
    benchmark::DoNotOptimize(interfaces);
  }
  state.SetLabel(std::string(warm ? "warm die cache, " : "cold cache, ") +
                 std::to_string(g.dimension()) + " nodes, " + std::to_string(interfaces) +
                 " interface");
}
BENCHMARK(BM_MacromodelBuild)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

void BM_ReducedSolve(benchmark::State& state) {
  // Steady-state per-RHS cost of the macromodel: per-block triangular pairs,
  // the reduced interface solve, and back-substitution. Residual-checked
  // against the true matrix off the clock -- the tier's contract is that its
  // answers survive the same verification as every other rung.
  const auto& b = wideio();
  const auto built = pdn::build_stack(b.stack, b.baseline);
  const irdrop::IrSolver probe(built.model, irdrop::SolverKind::kPcgIc);
  const linalg::Csr& g = probe.conductance_matrix();
  const auto block_of = irdrop::stack_partition(built.model);
  linalg::SchurBlockCache cache;
  const linalg::SchurMacromodel mm(g, block_of, linalg::SchurOptions{}, &cache);
  const std::size_t n = g.dimension();
  std::vector<double> rhs(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) rhs[i] = 1e-3 * static_cast<double>(i % 13);
  std::vector<double> x(n, 0.0);
  linalg::SchurScratch scratch;
  for (auto _ : state) {
    mm.solve(rhs, x, scratch);
    benchmark::DoNotOptimize(x.data());
  }
  std::vector<double> ax(n, 0.0);
  g.multiply(x, ax);
  double num = 0.0;
  double den = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    num += (rhs[i] - ax[i]) * (rhs[i] - ax[i]);
    den += rhs[i] * rhs[i];
  }
  const double rel = std::sqrt(num / den);
  if (!(rel < 1e-7)) {
    state.SkipWithError(("macromodel residual " + std::to_string(rel)).c_str());
    return;
  }
  state.SetLabel(std::to_string(n) + " nodes, " + std::to_string(mm.interface_count()) +
                 " interface, rel residual " + std::to_string(rel));
}
BENCHMARK(BM_ReducedSolve);

void BM_CoOptSweep(benchmark::State& state) {
  // The headline tier series: a TSV/C4 resistance-variation sweep over the
  // Wide I/O stack -- 24 design points differing from the anchor by two
  // interface resistors each, i.e. a sweep where 100% of points share die
  // macromodels. Arg 0 solves every point on the PR 4 sparse-direct path
  // (fresh factorization per point); Arg 1 rides the hierarchical tier
  // (anchored macromodel + Woodbury overlays) and then re-measures its
  // winning point on sparse-direct, so both arms emit byte-identical sweep
  // output (winner index + sparse-direct winner value). The verification
  // pass below runs off the clock and fails the benchmark on any mismatch.
  const auto& b = wideio();
  const auto base = pdn::build_stack(b.stack, b.baseline);
  std::vector<std::size_t> iface;
  {
    const auto rs = base.model.resistors();
    for (std::size_t i = 0; i < rs.size(); ++i) {
      if (rs[i].kind == pdn::ElementKind::kTsv || rs[i].kind == pdn::ElementKind::kC4) {
        iface.push_back(i);
      }
    }
  }
  constexpr std::size_t kPoints = 24;
  std::vector<pdn::StackModel> variants;
  variants.reserve(kPoints);
  for (std::size_t p = 0; p < kPoints; ++p) {
    pdn::StackModel m = base.model;
    const double scale = 0.85 + 0.03 * static_cast<double>(p % 11);
    for (std::size_t k = 0; k < 2; ++k) {
      const std::size_t idx = iface[(2 * p + k) % iface.size()];
      m.perturb_resistor(idx, base.model.resistors()[idx].ohms * scale);
    }
    variants.push_back(std::move(m));
  }
  const std::size_t n = base.model.node_count();
  std::vector<double> sinks(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) sinks[i] = 1e-4 * static_cast<double>(i % 7);

  const bool tier = state.range(0) != 0;
  irdrop::IrSolverOptions tier_opts;
  tier_opts.macromodel = std::make_shared<irdrop::MacromodelContext>();
  // Anchor the context on the unperturbed design, as Platform::prepare_sweep
  // does before a sweep's workers start.
  const irdrop::IrSolver anchor(base.model, irdrop::SolverKind::kMacromodel, tier_opts);
  if (!anchor.macromodel_available()) {
    state.SkipWithError("macromodel rung declined the wide-io stack");
    return;
  }
  tier_opts.macromodel->register_base(anchor.macromodel_base());

  struct SweepResult {
    std::size_t winner = 0;
    double winner_mv = 0.0;       ///< always a sparse-direct measurement
    std::size_t macro_points = 0; ///< points served by the macromodel rung
  };
  const auto measure = [&](const pdn::StackModel& m, irdrop::SolverKind kind,
                           const irdrop::IrSolverOptions& opts, irdrop::SolverKind* used) {
    const irdrop::IrSolver solver(m, kind, opts);
    const auto out = solver.solve({.sinks = sinks, .want_ir = true});
    if (!out.ok()) throw std::runtime_error("sweep point solve failed");
    if (used != nullptr) *used = out.kind_used;
    return *std::max_element(out.x.begin(), out.x.end());
  };
  const auto sweep = [&](bool use_tier) {
    SweepResult r;
    double best = -1.0;
    for (std::size_t p = 0; p < kPoints; ++p) {
      irdrop::SolverKind used = irdrop::SolverKind::kPcgIc;
      const double drop =
          measure(variants[p], use_tier ? irdrop::SolverKind::kMacromodel
                                        : irdrop::SolverKind::kSparseDirect,
                  use_tier ? tier_opts : irdrop::IrSolverOptions{}, &used);
      if (used == irdrop::SolverKind::kMacromodel) ++r.macro_points;
      if (drop > best) {
        best = drop;
        r.winner = p;
      }
    }
    // The sweep's reported value is always the sparse-direct measurement of
    // the winner: on the tier arm this one extra factorization is what makes
    // the output byte-identical to the tier-disabled sweep.
    r.winner_mv = use_tier ? measure(variants[r.winner], irdrop::SolverKind::kSparseDirect,
                                     irdrop::IrSolverOptions{}, nullptr)
                           : best;
    return r;
  };

  for (auto _ : state) {
    const SweepResult r = sweep(tier);
    benchmark::DoNotOptimize(r.winner_mv);
  }

  // Off the clock: the tier arm's output must match the reference arm's,
  // index and bytes, and >90% of its points must have ridden the tier.
  const SweepResult got = sweep(tier);
  const SweepResult ref = sweep(false);
  if (got.winner != ref.winner || got.winner_mv != ref.winner_mv) {
    state.SkipWithError("tier sweep output diverged from sparse-direct sweep");
    return;
  }
  if (tier && got.macro_points * 10 < kPoints * 9) {
    state.SkipWithError("macromodel share below 90%");
    return;
  }
  state.SetLabel(std::string(tier ? "hierarchical tier" : "sparse-direct per point") + ", " +
                 std::to_string(kPoints) + " points, " + std::to_string(got.macro_points) +
                 " on macromodel");
}
BENCHMARK(BM_CoOptSweep)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond);

}  // namespace

BENCHMARK_MAIN();
