#pragma once

/// \file decomposition.hpp
/// Theorem 1: the (ε, φ)-expander decomposition.
///
/// Phase 1 (recursive, depth <= d): low-diameter-decompose the current
/// part (Remove-1 its cut edges), then on each resulting component run the
/// nearly most balanced sparse cut at φ₀:
///   (a) no cut        -> the component is final (it certifies Φ >= φ₀);
///   (b) tiny cut      -> Vol(C) <= (ε/12) Vol(U): enter Phase 2, keeping
///                        the cut edges;
///   (c) balanced cut  -> Remove-2 the cut edges and recurse on both sides.
///
/// Phase 2 (level schedule L = 1..k with thresholds m_L = (ε/6)Vol(U)/τ^{L-1},
/// τ = ((ε/6)Vol(U))^{1/k}): repeatedly cut at φ_L; big cuts are ripped out
/// whole -- every incident edge removed (Remove-3), their vertices becoming
/// singleton components; small cuts bump the level.  At most 2τ iterations
/// per level, which is where the n^{2/k} in the round bound comes from.
///
/// Every removed edge leaves a self-loop at both endpoints, so degrees --
/// and therefore all volumes -- never change (the paper's invariant).

#include <cstdint>
#include <vector>

#include "congest/ledger.hpp"
#include "expander/params.hpp"
#include "graph/graph.hpp"
#include "graph/vertex_set.hpp"
#include "util/rng.hpp"

namespace xd::expander {

/// Why an edge was removed (the paper's Remove-1/2/3 tags).
enum class RemoveReason : int {
  kLdd = 0,        ///< Remove-1: LDD inter-cluster edge
  kSparseCut = 1,  ///< Remove-2: Phase 1 balanced cut edge
  kRipOut = 2,     ///< Remove-3: Phase 2 incident-edge removal
};

/// Output of the decomposition.
struct DecompositionResult {
  /// Final component id per vertex (V = V_1 ∪ ... ∪ V_x).
  std::vector<std::uint32_t> component;
  std::size_t num_components = 0;
  /// Per ambient edge: removed?  (== inter-component, plus Remove-3 edges.)
  std::vector<char> removed_edge;
  /// Removed-edge counts by reason, indexed by RemoveReason.
  std::uint64_t removed_by[3] = {0, 0, 0};
  /// Derived schedule actually used.
  Schedule schedule;
  /// Diagnostics.
  std::uint32_t max_phase1_depth = 0;
  std::uint64_t phase2_entries = 0;      ///< components that entered Phase 2
  std::uint64_t singleton_components = 0; ///< vertices ripped out by Remove-3
  std::uint64_t sparse_cut_calls = 0;
  std::uint64_t rounds = 0;
  /// Scheduler epochs executed (batches of concurrent work items); with
  /// scheduler_threads >= 1 the round total is a sum of per-epoch maxima.
  std::uint64_t epochs = 0;
  /// Work items finalized by the εm budget guard: at the epoch barrier an
  /// item whose removals would push the running total past ⌊ε·|E|⌋ has its
  /// input part finalized as-is (its removals and children dropped), so
  /// the Theorem 1 cut budget holds unconditionally.  0 on every input
  /// where the charging argument already keeps the cut within budget.
  std::uint64_t guard_finalized = 0;

  [[nodiscard]] std::uint64_t total_removed() const {
    return removed_by[0] + removed_by[1] + removed_by[2];
  }
};

/// Runs the two-phase decomposition on g, charging `ledger`.
///
/// Execution is epoch-batched: every work item (Phase 1 LDD, per-component
/// sparse cut, Phase 2 level loop) belonging to one recursion level forms a
/// batch, and prm.scheduler_threads picks how the batch runs -- sequential
/// with summed rounds (0) or concurrent on forked ledger branches joined by
/// max (>= 1; scheduler.hpp, docs/rounds.md).  Each item draws from its own
/// seed-split Rng, so the partition, removed_edge overlay, and removed_by
/// counts are bit-identical for every scheduler setting and thread count.
DecompositionResult expander_decomposition(const Graph& g,
                                           const DecompositionParams& prm,
                                           Rng& rng,
                                           congest::RoundLedger& ledger);

}  // namespace xd::expander
