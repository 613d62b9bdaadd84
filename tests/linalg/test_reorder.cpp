// Fill-reducing ordering (amd_ordering): structural validity on the graph
// shapes the solver meets -- random SPD meshes, disconnected pieces,
// isolated nodes, the degenerate sizes -- determinism, and the fill the
// sparse-direct rung gets from it on the four paper benchmarks' baselines.

#include "linalg/reorder.hpp"

#include <gtest/gtest.h>

#include <cstddef>
#include <vector>

#include "core/benchmarks.hpp"
#include "irdrop/solver.hpp"
#include "linalg/coo.hpp"
#include "linalg/sparse_chol.hpp"
#include "pdn/stack_builder.hpp"
#include "util/rng.hpp"

namespace pdn3d::linalg {
namespace {

bool is_permutation_of(const std::vector<std::size_t>& perm, std::size_t n) {
  if (perm.size() != n) return false;
  std::vector<char> seen(n, 0);
  for (const std::size_t v : perm) {
    if (v >= n || seen[v] != 0) return false;
    seen[v] = 1;
  }
  return true;
}

/// Grid conductance mesh with random long-range "TSV" edges and ground taps.
Csr make_random_mesh(util::Rng& rng, int nx, int ny) {
  const auto n = static_cast<std::size_t>(nx * ny);
  CooBuilder b(n);
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const auto k = static_cast<std::size_t>(j * nx + i);
      if (i + 1 < nx) b.stamp_conductance(k, k + 1, 0.5 + rng.next_double());
      if (j + 1 < ny) {
        b.stamp_conductance(k, k + static_cast<std::size_t>(nx), 0.5 + rng.next_double());
      }
    }
  }
  for (int e = 0; e < nx; ++e) {
    const auto u = static_cast<std::size_t>(rng.next_double() * double(n - 1));
    const auto v = static_cast<std::size_t>(rng.next_double() * double(n - 1));
    if (u != v) b.stamp_conductance(u, v, 0.1 + rng.next_double());
  }
  b.stamp_to_ground(0, 0.2);
  return b.compress();
}

TEST(AmdOrdering, ValidPermutationOnRandomMeshes) {
  util::Rng rng(41);
  for (int trial = 0; trial < 10; ++trial) {
    const Csr a = make_random_mesh(rng, 3 + trial, 4 + (trial * 3) % 9);
    const auto perm = amd_ordering(a);
    EXPECT_TRUE(is_permutation_of(perm, a.dimension())) << "trial " << trial;
  }
}

TEST(AmdOrdering, DisconnectedGraphAndIsolatedNodes) {
  // Two separate 3x3 grids (nodes 0-8 and 9-17) plus isolated, merely
  // grounded nodes 18 and 19: every node appears exactly once.
  CooBuilder b(20);
  for (std::size_t base : {std::size_t{0}, std::size_t{9}}) {
    for (std::size_t j = 0; j < 3; ++j) {
      for (std::size_t i = 0; i < 3; ++i) {
        const std::size_t k = base + j * 3 + i;
        if (i + 1 < 3) b.stamp_conductance(k, k + 1, 1.0);
        if (j + 1 < 3) b.stamp_conductance(k, k + 3, 1.0);
      }
    }
    b.stamp_to_ground(base, 0.5);
  }
  b.stamp_to_ground(18, 1.0);
  b.stamp_to_ground(19, 1.0);
  const Csr a = b.compress();
  const auto perm = amd_ordering(a);
  ASSERT_TRUE(is_permutation_of(perm, a.dimension()));

  // Still a usable factor ordering: the solve reproduces a known solution.
  const SparseCholesky chol(a, perm);
  std::vector<double> x_true(a.dimension());
  for (std::size_t i = 0; i < x_true.size(); ++i) x_true[i] = 1.0 + 0.1 * static_cast<double>(i);
  std::vector<double> rhs(a.dimension(), 0.0);
  a.multiply(x_true, rhs);
  const auto x = chol.solve(rhs);
  for (std::size_t i = 0; i < x.size(); ++i) EXPECT_NEAR(x[i], x_true[i], 1e-10);
}

TEST(AmdOrdering, EmptyAndSingleNode) {
  EXPECT_TRUE(amd_ordering(CooBuilder(0).compress()).empty());
  CooBuilder one(1);
  one.stamp_to_ground(0, 1.0);
  EXPECT_EQ(amd_ordering(one.compress()), std::vector<std::size_t>{0});
}

TEST(AmdOrdering, Deterministic) {
  util::Rng rng(7);
  const Csr a = make_random_mesh(rng, 17, 13);
  EXPECT_EQ(amd_ordering(a), amd_ordering(a));
}

TEST(AmdOrdering, FillOnPaperBaselinesAtMostTen) {
  // The TSV-stitched stacks fill 43-74x nnz(lower(G)) under RCM; the
  // sparse-direct rung relies on AMD keeping them near 6x.
  for (const auto kind : {core::BenchmarkKind::kStackedDdr3OffChip,
                          core::BenchmarkKind::kStackedDdr3OnChip, core::BenchmarkKind::kWideIo,
                          core::BenchmarkKind::kHmc}) {
    const core::Benchmark bench = core::make_benchmark(kind);
    const auto built = pdn::build_stack(bench.stack, bench.baseline);
    const irdrop::IrSolver solver(built.model, irdrop::SolverKind::kPcgIc);
    const Csr& g = solver.conductance_matrix();
    const SparseCholesky chol(g, amd_ordering(g));
    EXPECT_LE(chol.fill_ratio(), 10.0) << bench.name << ", " << g.dimension() << " nodes";
  }
}

}  // namespace
}  // namespace pdn3d::linalg
