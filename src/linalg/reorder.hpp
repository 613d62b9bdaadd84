#pragma once

/// @file reorder.hpp
/// @brief Symmetric orderings: approximate minimum degree (AMD) to reduce
/// Cholesky fill, reverse Cuthill-McKee (RCM) to reduce bandwidth.
///
/// The two serve different factorizations. The sparse-direct rung stores
/// only the nonzeros of L, so it wants the fewest of them: under AMD the
/// TSV-stitched paper stacks fill 5.6-6.7x nnz(lower(G)), against 43-74x
/// under RCM, which on one core of a 4-core Xeon cuts order + factor from
/// 100-210 ms to 6-14 ms and the per-RHS solve 12-22x (see sparse_chol.hpp).
/// The banded rung stores the whole band, so it wants the narrowest one:
/// power-grid conductance matrices are near-planar, and after RCM their
/// bandwidth is O(grid width) (see banded.hpp). Both expect a structurally
/// symmetric matrix.

#include <cstddef>
#include <vector>

#include "linalg/csr.hpp"

namespace pdn3d::linalg {

/// Returns a permutation `perm` such that new index k corresponds to old
/// index perm[k]. Handles disconnected graphs (each component ordered from a
/// minimum-degree peripheral seed).
std::vector<std::size_t> rcm_ordering(const Csr& a);

/// Approximate-minimum-degree fill-reducing ordering (Amestoy, Davis and
/// Duff): eliminates on a quotient graph with element absorption, picks the
/// pivot of least approximate external degree (|A_i| + |L_p \ i| +
/// sum |L_e \ L_p|, capped by the previous degree + |L_p \ i| and by the
/// variables left), and absorbs elements aggressively. Same permutation
/// convention as rcm_ordering; ties break by a fixed rule, so the result
/// depends on the sparsity pattern alone.
std::vector<std::size_t> amd_ordering(const Csr& a);

/// Half-bandwidth of A under a permutation: max |pos[i] - pos[j]| over
/// nonzero off-diagonal entries, where pos is the inverse permutation.
std::size_t bandwidth_under(const Csr& a, const std::vector<std::size_t>& perm);

/// Identity permutation (for comparing orderings).
std::vector<std::size_t> identity_ordering(std::size_t n);

}  // namespace pdn3d::linalg
