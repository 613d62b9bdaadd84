#include "linalg/sparse_chol.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <stdexcept>
#include <vector>

#include "linalg/coo.hpp"
#include "linalg/dense.hpp"
#include "linalg/reorder.hpp"
#include "util/rng.hpp"

namespace pdn3d::linalg {
namespace {

/// 2D grid conductance matrix with ground taps -- the PDN structure.
Csr make_grid(int nx, int ny, double g_edge = 1.0, double g_ground = 0.2) {
  CooBuilder b(static_cast<std::size_t>(nx * ny));
  for (int j = 0; j < ny; ++j) {
    for (int i = 0; i < nx; ++i) {
      const auto k = static_cast<std::size_t>(j * nx + i);
      if (i + 1 < nx) b.stamp_conductance(k, k + 1, g_edge);
      if (j + 1 < ny) b.stamp_conductance(k, k + static_cast<std::size_t>(nx), g_edge);
    }
  }
  b.stamp_to_ground(0, g_ground);
  b.stamp_to_ground(static_cast<std::size_t>(nx * ny - 1), g_ground);
  return b.compress();
}

/// Randomized SPD conductance mesh: a grid with randomly perturbed edge
/// conductances, random extra "via" edges, and random ground taps. Every
/// stamp keeps the matrix a diagonally dominant M-matrix, hence SPD.
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
  // Long-range edges mimic TSV stitching between tiers; they wreck the
  // banded structure, which is exactly the regime sparse Cholesky targets.
  for (int e = 0; e < nx; ++e) {
    const auto u = static_cast<std::size_t>(rng.next_double() * double(n - 1));
    const auto v = static_cast<std::size_t>(rng.next_double() * double(n - 1));
    if (u != v) b.stamp_conductance(u, v, 0.1 + rng.next_double());
  }
  for (int t = 0; t < 4; ++t) {
    b.stamp_to_ground(static_cast<std::size_t>(rng.next_double() * double(n - 1)),
                      0.05 + rng.next_double());
  }
  return b.compress();
}

std::vector<double> dense_reference_solve(const Csr& a, const std::vector<double>& b) {
  DenseMatrix d(a.dimension(), a.dimension());
  for (std::size_t i = 0; i < a.dimension(); ++i) {
    for (std::size_t j = 0; j < a.dimension(); ++j) d(i, j) = a.at(i, j);
  }
  return solve_cholesky(std::move(d), b);
}

TEST(SparseCholesky, MatchesDenseSolveOnGrid) {
  const Csr a = make_grid(12, 9);
  const SparseCholesky chol(a, rcm_ordering(a));

  util::Rng rng(3);
  std::vector<double> b(a.dimension(), 0.0);
  for (double& x : b) x = rng.next_double();

  const auto x_ref = dense_reference_solve(a, b);
  const auto x = chol.solve(b);
  ASSERT_EQ(x.size(), x_ref.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(x[i], x_ref[i], 1e-10);
  }
}

TEST(SparseCholesky, PropertyMatchesDenseOnRandomizedMeshes) {
  // The headline property test: across many randomized SPD conductance
  // meshes, sparse Cholesky agrees with the dense reference to 1e-10 under
  // both the production ordering (AMD) and RCM.
  util::Rng rng(2026);
  for (int trial = 0; trial < 12; ++trial) {
    const int nx = 4 + trial % 7;
    const int ny = 3 + (trial * 5) % 8;
    const Csr a = make_random_mesh(rng, nx, ny);

    std::vector<double> b(a.dimension(), 0.0);
    for (double& x : b) x = rng.next_double() * 2.0 - 1.0;
    const auto x_ref = dense_reference_solve(a, b);

    for (const bool amd : {true, false}) {
      const SparseCholesky chol(a, amd ? amd_ordering(a) : rcm_ordering(a));
      const auto x = chol.solve(b);
      for (std::size_t i = 0; i < x.size(); ++i) {
        ASSERT_NEAR(x[i], x_ref[i], 1e-10) << "trial " << trial << " (" << nx << "x" << ny
                                           << ", " << (amd ? "AMD" : "RCM") << ") index " << i;
      }
    }
  }
}

TEST(SparseCholesky, IdentityOrderingAlsoCorrect) {
  const Csr a = make_grid(8, 8);
  const SparseCholesky natural(a, identity_ordering(a.dimension()));
  const SparseCholesky rcm(a, rcm_ordering(a));
  std::vector<double> b(a.dimension(), 0.0);
  b[10] = 1.0;
  const auto x1 = natural.solve(b);
  const auto x2 = rcm.solve(b);
  for (std::size_t i = 0; i < x1.size(); ++i) {
    EXPECT_NEAR(x1[i], x2[i], 1e-10);
  }
}

TEST(SparseCholesky, BatchSolveBitwiseMatchesIndividualSolves) {
  util::Rng rng(17);
  const Csr a = make_random_mesh(rng, 9, 7);
  const SparseCholesky chol(a, rcm_ordering(a));
  const std::size_t n = a.dimension();

  constexpr std::size_t kCount = 5;
  std::vector<double> b(n * kCount);
  for (double& x : b) x = rng.next_double() * 2.0 - 1.0;

  std::vector<double> x_batch(n * kCount, 0.0);
  std::vector<double> work;
  chol.solve_batch(b, x_batch, kCount, work);

  for (std::size_t r = 0; r < kCount; ++r) {
    const auto x_one =
        chol.solve(std::span<const double>(b.data() + r * n, n));
    // Bitwise, not approximate: the batched sweeps execute per-RHS
    // arithmetic in the same order as a single solve.
    EXPECT_EQ(0, std::memcmp(x_one.data(), x_batch.data() + r * n, n * sizeof(double)))
        << "slice " << r << " differs from individual solve";
  }
}

TEST(SparseCholesky, BatchOfOneMatchesSolve) {
  const Csr a = make_grid(6, 6);
  const SparseCholesky chol(a, rcm_ordering(a));
  std::vector<double> b(a.dimension());
  util::Rng rng(5);
  for (double& x : b) x = rng.next_double();
  std::vector<double> x1(a.dimension(), 0.0);
  std::vector<double> work;
  chol.solve_batch(b, x1, 1, work);
  const auto x2 = chol.solve(b);
  EXPECT_EQ(0, std::memcmp(x1.data(), x2.data(), x1.size() * sizeof(double)));
}

TEST(SparseCholesky, FillRatioGuardTrips) {
  // A tiny guard must reject the factorization with a descriptive error; the
  // grid's exact fill is irrelevant, only that any fill exceeds ~0 allowance.
  const Csr a = make_grid(10, 10);
  SparseCholeskyOptions opts;
  opts.max_fill_ratio = 0.5;  // nnz(L) >= nnz(lower(A)) always, so this trips
  EXPECT_THROW(SparseCholesky(a, rcm_ordering(a), opts), std::runtime_error);
}

TEST(SparseCholesky, ReportsFillStatistics) {
  const Csr a = make_grid(10, 10);
  const SparseCholesky chol(a, rcm_ordering(a));
  EXPECT_EQ(chol.dimension(), a.dimension());
  // L contains at least the lower triangle of A (no cancellation here).
  EXPECT_GE(chol.factor_nnz(), a.dimension());
  EXPECT_GE(chol.fill_ratio(), 1.0);
  EXPECT_LE(chol.fill_ratio(), SparseCholeskyOptions{}.max_fill_ratio);
}

TEST(SparseCholesky, RejectsIndefiniteAndBadInput) {
  CooBuilder bb(2);
  bb.add(0, 0, 1.0);
  bb.add(0, 1, 2.0);
  bb.add(1, 0, 2.0);
  bb.add(1, 1, 1.0);
  const Csr indefinite = bb.compress();
  EXPECT_THROW(SparseCholesky(indefinite, identity_ordering(2)), std::runtime_error);

  const Csr a = make_grid(4, 4);
  EXPECT_THROW(SparseCholesky(a, identity_ordering(3)), std::invalid_argument);
  // Duplicate entry makes the vector the right size but not a permutation.
  std::vector<std::size_t> dup = identity_ordering(a.dimension());
  dup[1] = 0;
  EXPECT_THROW(SparseCholesky(a, dup), std::invalid_argument);

  const SparseCholesky ok(a, identity_ordering(a.dimension()));
  const std::vector<double> bad_rhs(3, 0.0);
  EXPECT_THROW(ok.solve(bad_rhs), std::invalid_argument);
  std::vector<double> x(a.dimension(), 0.0);
  std::vector<double> work;
  EXPECT_THROW(ok.solve_batch(bad_rhs, x, 2, work), std::invalid_argument);
}

TEST(SparseCholesky, LinearityOfSolutions) {
  const Csr a = make_grid(10, 10);
  const SparseCholesky chol(a, rcm_ordering(a));
  std::vector<double> b1(a.dimension(), 0.0);
  b1[5] = 1.0;
  std::vector<double> b2(a.dimension(), 0.0);
  b2[70] = -2.0;
  const auto x1 = chol.solve(b1);
  const auto x2 = chol.solve(b2);
  std::vector<double> b3(a.dimension(), 0.0);
  b3[5] = 1.0;
  b3[70] = -2.0;
  const auto x3 = chol.solve(b3);
  for (std::size_t i = 0; i < x3.size(); ++i) {
    EXPECT_NEAR(x3[i], x1[i] + x2[i], 1e-10);
  }
}

}  // namespace
}  // namespace pdn3d::linalg
