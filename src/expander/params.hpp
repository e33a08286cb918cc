#pragma once

/// \file params.hpp
/// The parameter schedule of the expander decomposition (paper, §2).
///
///   h(θ)        conductance degradation of the nearly most balanced sparse
///               cut: a non-empty output at target θ has Φ <= h(θ);
///               h(θ) = Θ(θ^{1/3} log^{5/3} n), h⁻¹(θ) = Θ(θ³ / log⁵ n).
///   d           recursion depth bound of Phase 1: smallest integer with
///               (1 - ε/12)^d · 2·C(n,2) < 1, i.e. O((1/ε) log n).
///   β           LDD cut knob: (ε/3)/d = O(ε²/log n).
///   φ₀          chosen so h(φ₀) <= ε / (6 log₂(n²)) -- makes the Remove-2
///               charging argument close.
///   φ_i         = h⁻¹(φ_{i-1}), i = 1..k; the final guarantee is φ = φ_k
///               = (ε/log n)^{2^{O(k)}}.

#include <cstdint>
#include <vector>

#include "sparsecut/nibble_params.hpp"

namespace xd::expander {

using sparsecut::Preset;

/// The Theorem 1 driver: the Chang–Saranurak two-phase nibble driver
/// (arXiv:1904.08037), the only one there is (docs/decomposition.md).
/// The enum survives only as the type of DecompositionParams::backend and
/// serve::PrepareParams::decomp_backend, which existing callers still
/// assign to one another; it selects nothing.
enum class DecompositionBackend : int {
  kNibble = 0,
};

/// Inputs of Theorem 1.
struct DecompositionParams {
  double epsilon = 0.3;  ///< inter-component edge budget (fraction of |E|)
  int k = 2;             ///< level count; rounds scale as n^{2/k}
  Preset preset = Preset::kPractical;
  double ldd_K = 2.0;    ///< V_D/V_S guard constant
  /// Practical floor for the φ_i schedule (the literal h⁻¹ iterate
  /// collapses to denormals within a few levels; paper mode uses 0).
  double phi_floor = 1e-7;
  /// Persistence of the sparse-cut calls: true approximates the paper's
  /// iteration count (needed to reliably find tiny-balance cuts, i.e. to
  /// reach Phase 2); false is the fast practical default.
  bool thorough_partition = false;
  /// When > 0, overrides the derived φ₀.  The derived value is tuned so
  /// the Remove-2 charging argument closes; for clustering-style usage
  /// where splitting aggressiveness matters more than the worst-case edge
  /// budget, set this to the conductance scale you want separated.
  double phi0_override = 0.0;
  /// Concurrent component scheduler (scheduler.hpp).  0 = sequential
  /// driver: components run one after another and their rounds SUM (the
  /// classic accounting).  >= 1 = epoch scheduler with that many host
  /// threads: each recursion level's components run concurrently on forked
  /// ledger branches joined by MAX (the model the paper's round bounds
  /// assume; docs/rounds.md).  Outputs are bit-identical across all
  /// settings; only round totals and wall-clock change.
  int scheduler_threads = 0;
  /// Kept only so callers that copy serve::PrepareParams::decomp_backend
  /// here still compile; there is one driver and this field selects
  /// nothing.
  DecompositionBackend backend = DecompositionBackend::kNibble;
};

/// Fully-derived schedule.
struct Schedule {
  std::uint32_t d = 1;       ///< Phase 1 recursion depth bound
  double beta = 0.1;         ///< LDD parameter
  std::vector<double> phi;   ///< φ₀ ... φ_k (size k+1)

  [[nodiscard]] double phi_final() const { return phi.back(); }
};

/// h(θ): the conductance reached by Theorem 3 when targeting θ, on a graph
/// with m edges and total volume vol.
double h_of(double theta, std::size_t m, std::uint64_t vol, Preset preset);

/// h⁻¹(θ): the target to hand Theorem 3 so its output conductance is <= θ.
double h_inverse(double theta, std::size_t m, std::uint64_t vol, Preset preset);

/// Derives the full schedule for a graph with n vertices, m edges, volume
/// vol.
Schedule derive_schedule(const DecompositionParams& prm, std::size_t n,
                         std::size_t m, std::uint64_t vol);

}  // namespace xd::expander
