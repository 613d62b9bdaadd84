#pragma once

/// @file solver.hpp
/// @brief DC operating-point solver for a StackModel (the HSPICE substitute).
///
/// Nodal analysis with the ideal VDD rail eliminated: every supply tap of
/// conductance g contributes g to its node's diagonal and g*VDD to the RHS;
/// block currents are sinks on the RHS. The conductance matrix is SPD, solved
/// with IC(0)-preconditioned CG. The matrix and preconditioner are built once
/// per design point and reused across memory states (only the RHS changes),
/// which is what makes LUT construction and co-optimization sweeps cheap.
///
/// Numerical health: construction runs the pdn mesh validator (floating
/// nodes, non-positive conductances, zero-tap dies) and throws a structured
/// core::ValidationError on defects. Each solve climbs an escalation ladder
/// -- sparse direct -> IC-PCG -> Jacobi-PCG -> RCM banded direct -> dense
/// Cholesky -- starting at the configured kind, and accepts a rung's answer
/// only after verifying the true residual. The result is that every solve is
/// either verified-correct or a structured, recoverable error (SolveOutcome /
/// core::NumericalError); never silent garbage.
///
/// The sparse-direct rung is the same-matrix/many-RHS fast path: a cached
/// sparse Cholesky factor built once per solver instance (once_flag), after
/// which every solve is two triangular sweeps. Sweeps declare their access
/// pattern through select_solver_kind(expected_solves); one-shot callers keep
/// ic-pcg. A factorization the fill-ratio guard declines simply fails the
/// rung and the ladder escalates as usual (see docs/SOLVER.md).
///
/// Above sparse-direct sits the hierarchical macromodel rung (kMacromodel):
/// per-die Schur elimination blocks shared through a MacromodelContext, a
/// small reduced interface system per design point, and Woodbury overlays for
/// design deltas that touch only a few nodes (see linalg/schur.hpp and the
/// "Hierarchical tier" section of docs/SOLVER.md). It is chosen only by
/// callers that declare cross-design reuse (select_solver_kind with a
/// ReuseHint); every answer it produces passes the same true-residual
/// verification as any other rung, and any guard decline or verification
/// failure falls through to sparse-direct and onward down the ladder.

#include <array>
#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "core/status.hpp"
#include "irdrop/macromodel.hpp"
#include "linalg/banded.hpp"
#include "linalg/cg.hpp"
#include "linalg/csr.hpp"
#include "linalg/ichol.hpp"
#include "linalg/schur.hpp"
#include "linalg/sparse_chol.hpp"
#include "pdn/stack_model.hpp"

namespace pdn3d::irdrop {

enum class SolverKind {
  kMacromodel,    ///< hierarchical Schur macromodels + Woodbury design deltas
  kSparseDirect,  ///< AMD + sparse Cholesky: factor once, two sweeps per RHS
  kPcgIc,         ///< IC(0)-preconditioned CG (default, fast)
  kPcgJacobi,     ///< Jacobi-preconditioned CG
  kBandedDirect,  ///< RCM + banded Cholesky: factor once, O(n*b) per state
  kDense,         ///< dense Cholesky -- exact reference ("signoff") path
};

inline constexpr std::size_t kSolverKindCount = 6;

[[nodiscard]] const char* to_string(SolverKind kind);

/// Method auto-selection: callers that know how many same-matrix solves they
/// are about to run (LUT builds, Monte Carlo sweeps, co-optimizer sampling)
/// declare it and get the cached-factor sparse-direct path once the
/// factorization amortizes; one-shot solves keep ic-pcg.
[[nodiscard]] SolverKind select_solver_kind(std::size_t expected_solves);

/// What a sweep knows about reuse *across* design points (the per-point
/// same-matrix solve count is the other select_solver_kind argument).
enum class ReuseHint {
  kNone,        ///< independent meshes; nothing shared between points
  kSharedDies,  ///< points share die sub-meshes / differ by small deltas
                ///< (TSV count/placement, one die's metal usage)
};

/// Reuse-aware selection: with ReuseHint::kSharedDies and enough design
/// points to amortize the macromodel build, pick the hierarchical tier;
/// otherwise defer to select_solver_kind(expected_solves). The tier is never
/// auto-selected without the hint -- a lone design point would pay the
/// per-die elimination for nothing.
[[nodiscard]] SolverKind select_solver_kind(std::size_t expected_solves, ReuseHint hint,
                                            std::size_t expected_design_points);

/// Expected solve count at which select_solver_kind switches to the cached
/// sparse-direct factor (factorization ~ a handful of PCG solves).
inline constexpr std::size_t kSparseDirectMinSolves = 8;

/// Design-point count at which shared-die sweeps switch to the hierarchical
/// macromodel tier (block builds amortize across points via the cache and
/// Woodbury overlays).
inline constexpr std::size_t kMacromodelMinDesignPoints = 4;

struct IrSolverOptions {
  double cg_rel_tolerance = 1e-10;
  std::size_t cg_max_iterations = 20000;
  /// A rung's answer is accepted only if ||b - Gx|| / ||b|| is finite and at
  /// most this; otherwise the rung counts as failed and the ladder escalates.
  double verify_rel_tol = 1e-7;
  /// Climb to sturdier rungs on failure. Off = fail fast on the configured
  /// kind only (used by tests that probe a single rung).
  bool escalate = true;
  /// Run the mesh validator at construction (throws core::ValidationError on
  /// defects). Off only for callers that already validated.
  bool validate = true;
  /// Escalating *into* the dense rung is capped at this dimension (the O(n^2)
  /// memory and O(n^3) factor are hopeless on full stacks). An explicitly
  /// requested kDense start rung is always honored.
  std::size_t dense_escalation_limit = 4096;
  /// Fill guard for the sparse-direct factor: the factorization is declined
  /// (rung fails, ladder escalates) when nnz(L) would exceed this multiple of
  /// the lower triangle of G. The paper's 3D stack meshes factor at fill
  /// 5.6-6.7 under AMD; the default admits them (see SparseCholeskyOptions).
  double max_fill_ratio = 96.0;
  /// Shared reuse context of the hierarchical macromodel rung (die-block
  /// cache + Woodbury base registry). Null = the rung builds private blocks
  /// and never reuses across solver instances; set by sweeps that share a
  /// Platform's context.
  std::shared_ptr<MacromodelContext> macromodel;
  /// Woodbury overlays are declined (falling back to a fresh macromodel
  /// build through the block cache) when a design delta touches more nodes
  /// than this -- beyond it the m base solves of the overlay build cost more
  /// than re-eliminating through cached blocks.
  std::size_t woodbury_max_rank = 256;
};

/// Per-rung retry counters, accumulated across all solves of this solver
/// instance. Surfaced through IrAnalyzer / Monte Carlo so sweeps can report
/// how often the ladder saved a design point. Counters are atomic: solving
/// is const and updates them from concurrent sweeps (Monte Carlo, future
/// threaded co-optimization), which used to tear under the plain mutable
/// size_t fields. Process-wide aggregates of the same events live in the
/// metrics registry under `solver.*` (see docs/OBSERVABILITY.md).
struct SolveTelemetry {
  std::atomic<std::size_t> solves{0};       ///< successful solves
  std::atomic<std::size_t> failures{0};     ///< solves that exhausted the ladder
  std::atomic<std::size_t> escalations{0};  ///< rung failures that moved down the ladder
  std::array<std::atomic<std::size_t>, kSolverKindCount> rung_attempts{};
  std::array<std::atomic<std::size_t>, kSolverKindCount> rung_failures{};
};

/// One solve, fully specified. This is the single entry shape (the historical
/// span-based convenience trio was removed after its deprecation cycle).
/// @ref sinks is non-owning and must stay alive for the duration of the call.
struct SolveRequest {
  std::span<const double> sinks;  ///< per-node sink currents (amps, >= 0 draws)
  bool want_ir = false;           ///< return VDD - v (IR drop) instead of v
  /// Multi-RHS batch: @ref sinks holds batch_count sink vectors back to back
  /// (each node_count() long, RHS-major). SolveOutcome::x comes back in the
  /// same index order, each solution bitwise identical to a stand-alone solve
  /// of that slice. A batch succeeds only as a whole: if any right-hand side
  /// exhausts the ladder the outcome is the failure and x stays empty.
  std::size_t batch_count = 1;
};

/// Structured result of one solve attempt. `x` is written only after residual
/// verification succeeds on some rung -- callers can never observe a
/// partially-written or unverified solution, no matter how many rungs the
/// escalation ladder burned through first. For batched requests the scalar
/// telemetry aggregates across the batch (iterations and escalations sum,
/// rel_residual is the worst slice, kind_used is the last slice's rung).
struct SolveOutcome {
  core::Status status;     ///< ok, or kInputError / kNumericalFailure
  std::vector<double> x;   ///< node voltages (or IR drops); empty when !status.is_ok()
  SolverKind kind_used = SolverKind::kPcgIc;  ///< rung that produced x
  std::size_t iterations = 0;                 ///< CG iterations (0 for direct)
  double rel_residual = 0.0;                  ///< verified ||b - Gx|| / ||b||
  std::size_t escalations = 0;                ///< rungs that failed first

  [[nodiscard]] bool ok() const { return status.is_ok(); }
};

/// Per-solve work buffers (assembled RHS, verification product, CG vectors).
/// Solving allocates these fresh when none is supplied; a sweep keeps one
/// SolveScratch per evaluation context (see EvalContext) and reuses it across
/// thousands of same-sized solves. Never share one across concurrent solves.
struct SolveScratch {
  std::vector<double> rhs;  ///< supply_rhs - sinks
  std::vector<double> ax;   ///< G*x for residual verification
  linalg::CgScratch cg;
  /// Warm-start opt-in: when true, CG rungs start from `warm` (the previous
  /// successful solve's voltages through this scratch) instead of zero.
  /// Direct rungs are exact and ignore it. Off by default because a warm
  /// start makes the converged bits depend on solve order -- only enable it
  /// on paths exempt from the cross-thread-count determinism contract (the
  /// sequential LUT fallback when the sparse factor was declined).
  bool warm_start = false;
  std::vector<double> warm;       ///< previous voltages (never IR-converted)
  std::vector<double> batch_rhs;  ///< batched fast-path right-hand sides
  std::vector<double> batch_x;    ///< batched fast-path solutions
  std::vector<double> direct;     ///< triangular-sweep workspace
  linalg::SchurScratch schur;     ///< macromodel-rung workspace
};

class IrSolver {
 public:
  /// @throws core::ValidationError (a std::invalid_argument) when the mesh
  /// fails pre-solve validation.
  explicit IrSolver(const pdn::StackModel& model, SolverKind kind = SolverKind::kPcgIc,
                    IrSolverOptions options = {});

  /// The unified entry point. request.sinks must have model.node_count()
  /// entries (std::invalid_argument otherwise -- a caller bug); every
  /// data-dependent failure comes back in SolveOutcome::status. Thread-safe:
  /// concurrent solves on one IrSolver are supported as long as each caller
  /// passes its own @p scratch (or none).
  [[nodiscard]] SolveOutcome solve(const SolveRequest& request,
                                   SolveScratch* scratch = nullptr) const;

  [[nodiscard]] std::size_t node_count() const { return g_.dimension(); }
  [[nodiscard]] double vdd() const { return vdd_; }
  [[nodiscard]] const linalg::Csr& conductance_matrix() const { return g_; }
  /// The configured starting rung (the ladder may still escalate past it).
  [[nodiscard]] SolverKind kind() const { return kind_; }

  /// True when the cached sparse-direct factor exists, building it on first
  /// call (once_flag; concurrent callers race safely). Sweeps use this to
  /// decide whether the sequential warm-start fallback is worth enabling.
  [[nodiscard]] bool sparse_factor_available() const;

  /// True when the hierarchical macromodel exists (built or reused through
  /// the context), building it on first call. A decline (guard, Woodbury
  /// rank cap with no cheap rebuild) is sticky -- the rung fails from then
  /// on and the ladder starts at sparse-direct.
  [[nodiscard]] bool macromodel_available() const;

  /// The hierarchical rung's base macromodel (built on first call), or null
  /// when the rung declined. Platforms register this in their
  /// MacromodelContext as the deterministic Woodbury anchor of a sweep.
  [[nodiscard]] std::shared_ptr<const linalg::SchurMacromodel> macromodel_base() const;

  /// @deprecated Iterations used by the last successful solve (0 for direct
  /// rungs). Under concurrency this is "some recent solve" -- prefer
  /// SolveOutcome::iterations, which is per-request.
  [[nodiscard]] std::size_t last_iterations() const {
    return last_iterations_.load(std::memory_order_relaxed);
  }
  /// @deprecated Rung of the last successful solve; same caveat as
  /// last_iterations(). Prefer SolveOutcome::kind_used.
  [[nodiscard]] SolverKind last_kind_used() const {
    return last_kind_used_.load(std::memory_order_relaxed);
  }

  /// Cumulative per-rung retry counters for this solver instance.
  [[nodiscard]] const SolveTelemetry& telemetry() const { return telemetry_; }

 private:
  struct RungResult {
    bool produced = false;   ///< rung ran and returned an x to verify
    std::vector<double> x;
    std::size_t iterations = 0;
    std::string detail;      ///< failure context when rejected
  };

  /// The hierarchical rung's solve engine: a base macromodel, optionally
  /// composed with a Woodbury overlay for this solver's design delta.
  struct Hierarchical {
    std::shared_ptr<const linalg::SchurMacromodel> base;
    std::unique_ptr<linalg::WoodburyUpdate> update;  ///< null = base solves directly

    void solve_batch(std::span<const double> b, std::span<double> x, std::size_t count,
                     linalg::SchurScratch& scratch) const {
      if (update) {
        update->solve_batch(b, x, count, scratch);
      } else {
        base->solve_batch(b, x, count, scratch);
      }
    }
  };

  [[nodiscard]] RungResult run_rung(SolverKind kind, std::span<const double> rhs,
                                    SolveScratch& ws) const;
  [[nodiscard]] const linalg::BandedCholesky* banded(std::string* error) const;
  [[nodiscard]] const linalg::SparseCholesky* sparse(std::string* error) const;
  [[nodiscard]] const Hierarchical* macromodel(std::string* error) const;
  [[nodiscard]] SolveOutcome solve_one(std::span<const double> sinks, bool want_ir,
                                       SolveScratch& ws) const;
  [[nodiscard]] SolveOutcome solve_batch(const SolveRequest& request, SolveScratch& ws) const;

  SolverKind kind_;
  IrSolverOptions options_;
  double vdd_;
  linalg::Csr g_;
  std::vector<double> supply_rhs_;  ///< sum of g*VDD per node
  std::vector<int> block_of_;       ///< per-die partition (macromodel rung)
  // The factors are immutable once built; call_once makes the lazy builds
  // safe under concurrent solves (the factors themselves are applied through
  // const, buffer-free-or-caller-buffered paths).
  mutable std::once_flag ic_once_;
  mutable std::unique_ptr<linalg::IncompleteCholesky> ic_;
  mutable std::once_flag banded_once_;
  mutable std::unique_ptr<linalg::BandedCholesky> banded_;
  mutable std::string banded_error_;  ///< sticky factorization failure
  mutable std::once_flag sparse_once_;
  mutable std::unique_ptr<linalg::SparseCholesky> sparse_;
  mutable std::string sparse_error_;  ///< sticky decline reason (fill guard, not SPD)
  mutable std::once_flag hier_once_;
  mutable std::unique_ptr<Hierarchical> hier_;
  mutable std::string hier_error_;  ///< sticky decline reason (guards, rank cap)
  mutable std::atomic<std::size_t> last_iterations_{0};
  mutable std::atomic<SolverKind> last_kind_used_{SolverKind::kPcgIc};
  mutable SolveTelemetry telemetry_;
};

}  // namespace pdn3d::irdrop
