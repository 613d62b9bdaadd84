#include "linalg/reorder.hpp"

#include <algorithm>
#include <limits>
#include <numeric>
#include <queue>

namespace pdn3d::linalg {

std::vector<std::size_t> rcm_ordering(const Csr& a) {
  const std::size_t n = a.dimension();
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();

  const auto degree = [&](std::size_t v) { return rp[v + 1] - rp[v]; };

  std::vector<char> visited(n, 0);
  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> neighbors;

  for (std::size_t seed_scan = 0; seed_scan < n; ++seed_scan) {
    if (visited[seed_scan]) continue;

    // Choose the minimum-degree unvisited node of this component region as
    // the seed (a cheap peripheral-node heuristic).
    std::size_t seed = seed_scan;
    for (std::size_t v = seed_scan; v < n; ++v) {
      if (!visited[v] && degree(v) < degree(seed)) seed = v;
      if (degree(seed) <= 1) break;
    }

    std::queue<std::size_t> q;
    q.push(seed);
    visited[seed] = 1;
    while (!q.empty()) {
      const std::size_t v = q.front();
      q.pop();
      order.push_back(v);
      neighbors.clear();
      for (std::size_t k = rp[v]; k < rp[v + 1]; ++k) {
        const std::size_t w = ci[k];
        if (w != v && !visited[w]) {
          visited[w] = 1;
          neighbors.push_back(w);
        }
      }
      std::sort(neighbors.begin(), neighbors.end(),
                [&](std::size_t x, std::size_t y) { return degree(x) < degree(y); });
      for (std::size_t w : neighbors) q.push(w);
    }
  }

  std::reverse(order.begin(), order.end());
  return order;
}

std::vector<std::size_t> amd_ordering(const Csr& a) {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  const std::size_t n = a.dimension();
  if (n == 0) return {};
  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();

  // Quotient graph. A live variable i keeps its variable neighbors in
  // vars[i] (A_i) and its element neighbors in elems[i] (E_i); an element e
  // keeps its variables in vars[e] (L_e). A variable in some live L_e is
  // itself live: eliminating it absorbs every element that lists it. E_i may
  // still name elements absorbed since; those are dropped on the next scan.
  enum : char { kVariable, kElement, kAbsorbed };
  std::vector<char> state(n, kVariable);
  std::vector<std::vector<std::size_t>> vars(n);
  std::vector<std::vector<std::size_t>> elems(n);
  std::vector<std::size_t> degree(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t k = rp[i]; k < rp[i + 1]; ++k) {
      if (ci[k] != i) vars[i].push_back(ci[k]);
    }
    degree[i] = vars[i].size();
  }
  const auto release = [](std::vector<std::size_t>& v) { std::vector<std::size_t>().swap(v); };

  // Degree buckets: doubly linked lists, inserted at the head. The pivot is
  // the head of the lowest non-empty bucket, so ties go to the most recently
  // updated variable (initially the lowest index): a fixed rule, so the
  // permutation depends on the matrix structure alone.
  std::vector<std::size_t> head(n, kNone);
  std::vector<std::size_t> next(n, kNone);
  std::vector<std::size_t> prev(n, kNone);
  std::size_t min_degree = n;
  const auto insert = [&](std::size_t i) {
    const std::size_t d = degree[i];
    prev[i] = kNone;
    next[i] = head[d];
    if (head[d] != kNone) prev[head[d]] = i;
    head[d] = i;
    min_degree = std::min(min_degree, d);
  };
  const auto unlink = [&](std::size_t i) {
    if (prev[i] != kNone) {
      next[prev[i]] = next[i];
    } else {
      head[degree[i]] = next[i];
    }
    if (next[i] != kNone) prev[next[i]] = prev[i];
  };
  for (std::size_t i = n; i-- > 0;) insert(i);

  std::vector<std::size_t> order;
  order.reserve(n);
  std::vector<std::size_t> in_lp(n, kNone);      // in_lp[v] == k: v is in L_p at step k
  std::vector<std::size_t> external(n, 0);       // |L_e \ L_p| for elements touched at step k
  std::vector<std::size_t> external_at(n, kNone);
  std::vector<std::size_t> lp;
  for (std::size_t k = 0; k < n; ++k) {
    while (head[min_degree] == kNone) ++min_degree;
    const std::size_t p = head[min_degree];
    unlink(p);
    order.push_back(p);

    // L_p = (A_p u every L_e, e in E_p) \ {p}; p's elements are absorbed
    // into the new element p.
    in_lp[p] = k;
    lp.clear();
    const auto add = [&](std::size_t v) {
      if (in_lp[v] != k) {
        in_lp[v] = k;
        lp.push_back(v);
      }
    };
    for (const std::size_t v : vars[p]) add(v);
    for (const std::size_t e : elems[p]) {
      if (state[e] != kElement) continue;
      for (const std::size_t v : vars[e]) add(v);
      state[e] = kAbsorbed;
      release(vars[e]);
    }
    release(elems[p]);
    state[p] = kElement;
    vars[p] = lp;

    // Prune each i in L_p: the new element covers its edges into L_p, so
    // A_i drops them, and E_i drops absorbed elements. Meanwhile count
    // |L_e \ L_p| for every other element adjacent to L_p.
    for (const std::size_t i : lp) {
      unlink(i);
      std::erase_if(vars[i], [&](std::size_t v) { return in_lp[v] == k; });
      std::erase_if(elems[i], [&](std::size_t e) { return state[e] != kElement; });
      for (const std::size_t e : elems[i]) {
        if (external_at[e] != k) {
          external_at[e] = k;
          external[e] = vars[e].size();
        }
        --external[e];
      }
    }

    // Approximate external degree, capped by the previous degree plus the
    // new clique and by the number of variables left. An element with
    // L_e inside L_p adds nothing and is absorbed into p (aggressive
    // absorption).
    if (lp.empty()) continue;
    const std::size_t lp_others = lp.size() - 1;
    const std::size_t remaining_others = n - k - 2;  // live variables other than i
    for (const std::size_t i : lp) {
      std::size_t d = vars[i].size() + lp_others;
      std::erase_if(elems[i], [&](std::size_t e) {
        if (state[e] != kElement) return true;
        if (external[e] == 0) {
          state[e] = kAbsorbed;
          release(vars[e]);
          return true;
        }
        d += external[e];
        return false;
      });
      elems[i].push_back(p);
      degree[i] = std::min({d, degree[i] + lp_others, remaining_others});
      insert(i);
    }
  }
  return order;
}

std::size_t bandwidth_under(const Csr& a, const std::vector<std::size_t>& perm) {
  const std::size_t n = a.dimension();
  std::vector<std::size_t> pos(n, 0);
  for (std::size_t k = 0; k < n; ++k) pos[perm[k]] = k;

  const auto rp = a.row_ptr();
  const auto ci = a.col_idx();
  std::size_t band = 0;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t k = rp[r]; k < rp[r + 1]; ++k) {
      const std::size_t c = ci[k];
      const std::size_t d = pos[r] > pos[c] ? pos[r] - pos[c] : pos[c] - pos[r];
      band = std::max(band, d);
    }
  }
  return band;
}

std::vector<std::size_t> identity_ordering(std::size_t n) {
  std::vector<std::size_t> out(n);
  std::iota(out.begin(), out.end(), std::size_t{0});
  return out;
}

}  // namespace pdn3d::linalg
