// Electromigration pass (irdrop::em_check): branch currents recovered from
// the solved voltages become current densities via per-layer / per-TSV
// cross-section geometry, checked against limits and summarized as Black's
// MTTF. Hand-computed densities pin the unit chain (A, um^2 -> MA/cm^2); the
// wide-io goldens pin the full pass at 1e-10 so a silent geometry or unit
// regression cannot slip through.

#include "irdrop/em.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <stdexcept>
#include <vector>

#include "core/benchmarks.hpp"
#include "core/platform.hpp"
#include "irdrop/analysis.hpp"
#include "linalg/reorder.hpp"
#include "linalg/sparse_chol.hpp"
#include "pdn/stack_builder.hpp"

namespace pdn3d::irdrop {
namespace {

constexpr double kPi = 3.14159265358979323846;

// A 2-node model with one known branch current: VDD --1ohm-- n0 --2ohm-- n1,
// voltages chosen so the branch carries |0.8 - 0.2| / 2 = 0.3 A.
pdn::StackModel two_node_model(pdn::ElementKind kind, double usage, double thickness_um) {
  pdn::StackModel m(1.0);
  pdn::LayerGrid g;
  g.nx = 2;
  g.ny = 1;
  g.dx = g.dy = 1.0;
  g.vdd_usage = usage;
  g.thickness_um = thickness_um;
  m.add_grid(g);
  m.add_tap(0, 1.0);
  m.add_resistor(0, 1, 2.0, kind);
  return m;
}

TEST(EmCheck, TsvDensityFromDiameter) {
  const auto m = two_node_model(pdn::ElementKind::kTsv, 0.5, 0.3);
  tech::Technology tech;
  tech.em.tsv_diameter_um = 5.0;
  const std::vector<double> v = {0.8, 0.2};
  const auto rep = em_check(m, tech, v);

  const auto* tsv = rep.find(pdn::ElementKind::kTsv);
  ASSERT_NE(tsv, nullptr);
  EXPECT_EQ(tsv->current.count, 1u);
  EXPECT_DOUBLE_EQ(tsv->current.max_amps, 0.3);
  // J[MA/cm^2] = 100 * I[A] / area[um^2], area = pi/4 * d^2.
  const double area = kPi * 0.25 * 5.0 * 5.0;
  EXPECT_NEAR(tsv->max_j_ma_cm2, 100.0 * 0.3 / area, 1e-12);
  EXPECT_DOUBLE_EQ(tsv->limit_ma_cm2, tech.em.tsv_limit_ma_cm2);
  EXPECT_GT(tsv->mttf_hours, 0.0);
  EXPECT_EQ(rep.find(pdn::ElementKind::kC4), nullptr);  // kind absent, not zeroed
}

TEST(EmCheck, MeshDensityFromGridGeometry) {
  // An x-directed mesh segment's cross-section is usage * dy * thickness:
  // 0.5 * 1.0 mm * 1000 * 0.3 um = 150 um^2.
  const auto m = two_node_model(pdn::ElementKind::kMesh, 0.5, 0.3);
  const tech::Technology tech;
  const std::vector<double> v = {0.8, 0.2};
  const auto rep = em_check(m, tech, v);
  const auto* mesh = rep.find(pdn::ElementKind::kMesh);
  ASSERT_NE(mesh, nullptr);
  EXPECT_NEAR(mesh->max_j_ma_cm2, 100.0 * 0.3 / 150.0, 1e-12);
  EXPECT_DOUBLE_EQ(mesh->limit_ma_cm2, tech.em.wire_limit_ma_cm2);
}

TEST(EmCheck, LimitOverridesAndViolationCounting) {
  const auto m = two_node_model(pdn::ElementKind::kTsv, 0.5, 0.3);
  const tech::Technology tech;
  const std::vector<double> v = {0.8, 0.2};

  EmOptions opts;
  opts.tsv_limit_ma_cm2 = 1e-3;  // far below the ~1.5 MA/cm^2 the branch carries
  const auto rep = em_check(m, tech, v, opts);
  ASSERT_EQ(rep.kinds.size(), 1u);
  EXPECT_EQ(rep.total_violations, 1u);
  EXPECT_FALSE(rep.clean());
  EXPECT_DOUBLE_EQ(rep.kinds[0].limit_ma_cm2, 1e-3);
  EXPECT_GT(rep.worst_utilization, 1.0);

  // The ~1.5 MA/cm^2 branch also violates the default 0.5 MA/cm^2 TSV
  // limit, but a generous override clears it -- the limit is the only
  // thing that changed, so the verdict must follow it.
  EXPECT_FALSE(em_check(m, tech, v).clean());
  EmOptions generous;
  generous.tsv_limit_ma_cm2 = 10.0;
  EXPECT_TRUE(em_check(m, tech, v, generous).clean());
}

TEST(EmCheck, ZeroCrossSectionIsTypedError) {
  // A zero-diameter TSV tech entry must surface as std::invalid_argument --
  // never as a silent NaN/Inf density (the fault-injection contract).
  const auto m = two_node_model(pdn::ElementKind::kTsv, 0.5, 0.3);
  tech::Technology tech;
  tech.em.tsv_diameter_um = 0.0;
  const std::vector<double> v = {0.8, 0.2};
  EXPECT_THROW(em_check(m, tech, v), std::invalid_argument);

  // Same for a zero-thickness mesh layer.
  const auto mesh = two_node_model(pdn::ElementKind::kMesh, 0.5, 0.0);
  EXPECT_THROW(em_check(mesh, tech::Technology{}, v), std::invalid_argument);
}

TEST(EmCheck, VoltageSizeMismatchThrows) {
  const auto m = two_node_model(pdn::ElementKind::kMesh, 0.5, 0.3);
  const std::vector<double> bad = {1.0};
  EXPECT_THROW(em_check(m, tech::Technology{}, bad), std::invalid_argument);
}

TEST(BlackMttf, GoldenValuesAndProperties) {
  const tech::EmTech em;  // A=1e-8 h, n=2, Ea=0.9 eV
  // Golden values at the default 85 C parameters, pinned at 1e-10 relative.
  EXPECT_NEAR(black_mttf_hours(em, 1.0, 85.0), 46187.77706645921, 46187.0 * 1e-10);
  EXPECT_NEAR(black_mttf_hours(em, 2.0, 85.0), 11546.944266614802, 11546.0 * 1e-10);
  // n = 2: doubling J quarters the MTTF.
  EXPECT_NEAR(black_mttf_hours(em, 1.0, 85.0) / black_mttf_hours(em, 2.0, 85.0), 4.0, 1e-9);
  // Hotter junction, shorter life.
  EXPECT_LT(black_mttf_hours(em, 1.0, 125.0), black_mttf_hours(em, 1.0, 85.0));
  // J <= 0 is the "no stress" sentinel, not infinity.
  EXPECT_EQ(black_mttf_hours(em, 0.0, 85.0), 0.0);
  EXPECT_EQ(black_mttf_hours(em, -1.0, 85.0), 0.0);
  // Vanishing stress is capped to stay finite (JSON-safe gauges).
  EXPECT_LE(black_mttf_hours(em, 1e-30, 85.0), 1e30);
  // Below absolute zero is a caller bug.
  EXPECT_THROW((void)black_mttf_hours(em, 1.0, -300.0), std::invalid_argument);
}

// Full-pass goldens on the wide-io baseline at its default state. These pin
// the branch-current recovery, the per-kind geometry, and the MTTF chain end
// to end; any change here is a deliberate remodel, not drift. On the small
// TSV currents the solve's own rounding is about 1e-10 relative and moves
// with the factor ordering, so there the 1e-10 pin records the production
// path's rounding; WideIoMatchesRefinedSolve below checks the physics.
TEST(EmCheck, WideIoGoldenNumbers) {
  const core::Platform p(core::make_benchmark(core::BenchmarkKind::kWideIo));
  const auto state = p.parse_state(p.benchmark().default_state, -1.0);
  const auto rep = p.em_check(p.benchmark().baseline, state);

  const auto near = [](double actual, double expected) {
    EXPECT_NEAR(actual, expected, std::abs(expected) * 1e-10) << "expected " << expected;
  };

  EXPECT_TRUE(rep.clean());
  EXPECT_DOUBLE_EQ(rep.temperature_c, 85.0);
  near(rep.worst_utilization, 0.498991965582396);
  near(rep.min_mttf_hours, 7419.9323608536033);

  const auto* mesh = rep.find(pdn::ElementKind::kMesh);
  ASSERT_NE(mesh, nullptr);
  EXPECT_EQ(mesh->current.count, 7660u);
  near(mesh->current.max_amps, 0.32143987367188537);
  near(mesh->max_j_ma_cm2, 0.10491534220684115);
  near(mesh->mttf_hours, 4196131.1915093875);

  const auto* via = rep.find(pdn::ElementKind::kVia);
  ASSERT_NE(via, nullptr);
  EXPECT_EQ(via->current.count, 3114u);
  near(via->max_j_ma_cm2, 2.49495982791198);
  near(via->avg_j_ma_cm2, 0.16964779149362705);
  near(via->mttf_hours, 7419.9323608536033);

  const auto* tsv = rep.find(pdn::ElementKind::kTsv);
  ASSERT_NE(tsv, nullptr);
  EXPECT_EQ(tsv->current.count, 640u);
  near(tsv->current.max_amps, 0.0026414843959231809);
  near(tsv->max_j_ma_cm2, 0.013452969558761069);

  const auto* c4 = rep.find(pdn::ElementKind::kC4);
  ASSERT_NE(c4, nullptr);
  EXPECT_EQ(c4->current.count, 110u);
  near(c4->max_j_ma_cm2, 0.0061444788771546814);

  const auto* rdl = rep.find(pdn::ElementKind::kRdlVia);
  ASSERT_NE(rdl, nullptr);
  EXPECT_EQ(rdl->current.count, 176u);
  near(rdl->max_j_ma_cm2, 0.0041486970121251687);

  // F2B bonding: no face-to-face via field in this stack.
  EXPECT_EQ(rep.find(pdn::ElementKind::kF2fVia), nullptr);
}

// Independent oracle for the goldens above: the same wide-io operating point
// solved outside the solver ladder -- right-hand side assembled from the
// model's taps and the analyzer's sinks, an RCM-ordered sparse factor (not
// the production ordering), and three steps of iterative refinement with the
// residual accumulated in long double, which brings the relative residual
// to ~1e-15 (the production solve leaves ~1e-11). Whatever ordering or rung
// produced them, the production figures must match the EM pass over the
// refined voltages to 1e-9 relative.
TEST(EmCheck, WideIoMatchesRefinedSolve) {
  const core::Platform p(core::make_benchmark(core::BenchmarkKind::kWideIo));
  const auto state = p.parse_state(p.benchmark().default_state, -1.0);
  const IrAnalyzer& analyzer = p.analyzer(p.benchmark().baseline);
  const pdn::StackModel& model = analyzer.model();
  const linalg::Csr& g = analyzer.solver().conductance_matrix();
  const std::size_t n = g.dimension();

  std::vector<double> rhs(n, 0.0);
  for (const auto& tap : model.taps()) rhs[tap.node] += model.vdd() / tap.ohms;
  const std::vector<double> sinks = analyzer.injection(state);
  for (std::size_t i = 0; i < n; ++i) rhs[i] -= sinks[i];

  const linalg::SparseCholesky chol(g, linalg::rcm_ordering(g));
  std::vector<double> v = chol.solve(rhs);
  const auto rp = g.row_ptr();
  const auto ci = g.col_idx();
  const auto gv = g.values();
  std::vector<double> r(n, 0.0);
  double rel_residual = 1.0;
  for (int step = 0; step <= 3; ++step) {
    long double r_norm = 0.0L;
    long double b_norm = 0.0L;
    for (std::size_t i = 0; i < n; ++i) {
      long double acc = rhs[i];
      for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
        acc -= static_cast<long double>(gv[k]) * static_cast<long double>(v[ci[k]]);
      }
      r[i] = static_cast<double>(acc);
      r_norm += acc * acc;
      b_norm += static_cast<long double>(rhs[i]) * rhs[i];
    }
    rel_residual = static_cast<double>(std::sqrt(r_norm / b_norm));
    if (step == 3) break;
    const std::vector<double> dv = chol.solve(r);
    for (std::size_t i = 0; i < n; ++i) v[i] += dv[i];
  }
  ASSERT_LT(rel_residual, 1e-14);

  const auto oracle = em_check(model, p.benchmark().stack.tech, v);
  const auto rep = p.em_check(p.benchmark().baseline, state);
  const auto near = [](double actual, double expected, const char* what) {
    EXPECT_NEAR(actual, expected, std::abs(expected) * 1e-9) << what;
  };
  for (const auto kind : {pdn::ElementKind::kTsv, pdn::ElementKind::kVia,
                          pdn::ElementKind::kMesh}) {
    const EmKindStats* want = oracle.find(kind);
    const EmKindStats* got = rep.find(kind);
    ASSERT_NE(want, nullptr);
    ASSERT_NE(got, nullptr);
    EXPECT_EQ(got->current.count, want->current.count);
    near(got->current.max_amps, want->current.max_amps, "max_amps");
    near(got->max_j_ma_cm2, want->max_j_ma_cm2, "max_j_ma_cm2");
    near(got->avg_j_ma_cm2, want->avg_j_ma_cm2, "avg_j_ma_cm2");
    near(got->mttf_hours, want->mttf_hours, "mttf_hours");
  }
  near(rep.worst_utilization, oracle.worst_utilization, "worst_utilization");
  near(rep.min_mttf_hours, oracle.min_mttf_hours, "min_mttf_hours");
}

// The request-level temperature override flows through to every MTTF.
TEST(EmCheck, TemperatureOverrideScalesMttf) {
  const core::Platform p(core::make_benchmark(core::BenchmarkKind::kWideIo));
  const auto state = p.parse_state(p.benchmark().default_state, -1.0);
  EmOptions hot;
  hot.temperature_c = 125.0;
  const auto baseline = p.em_check(p.benchmark().baseline, state);
  const auto heated = p.em_check(p.benchmark().baseline, state, hot);
  EXPECT_DOUBLE_EQ(heated.temperature_c, 125.0);
  EXPECT_LT(heated.min_mttf_hours, baseline.min_mttf_hours);
}

}  // namespace
}  // namespace pdn3d::irdrop
