#pragma once

/// \file cross_check.hpp
/// The Theorem 1 contract harness (docs/decomposition.md): runs the
/// decomposition on one graph and holds it to the contract the paper
/// states, checked by the independent verify.cpp oracles rather than by
/// pinned constants.  Pins catch regressions; the contract catches a guard
/// that silently eats quality, a charging argument that stopped closing,
/// or a scheduler merge that is only deterministic at one thread count.
/// The harness checks:
///
///   * the verify.cpp oracles pass: valid partition, inter-component edges
///     <= ε|E|, every component's conductance lower bound >= φ_k
///     (schedule.phi_final());
///   * outputs are bit-identical at 1/2/8 scheduler threads (same
///     partition, overlay, removal counts as the sequential run);
///   * scheduled rounds never exceed the sequential sum, and the
///     sequential sum stays under the charged Õ(n+m) budget.

#include <cstdint>
#include <string>
#include <vector>

#include "congest/ledger.hpp"
#include "expander/decomposition.hpp"
#include "expander/verify.hpp"
#include "graph/graph.hpp"

namespace xd::expander {

/// Charged-round ceiling the harness holds one sequential decomposition
/// to: 32 · (n + m) · (⌈log₂ n⌉ + 1)³.  Theorem 1 promises Õ(n + m)
/// rounds; the constant is generous (measured corpus runs sit 5–15x
/// below) so the bound trips on asymptotic regressions -- a level loop
/// that stopped terminating, a sparse-cut stack gone quadratic -- not on
/// noise.
std::uint64_t theorem1_round_budget(std::size_t n, std::size_t m);

/// Order-sensitive fingerprint of everything the determinism contract
/// pins: component labels, the removed-edge overlay, per-reason removal
/// counts, and the component count.  perfbench compares it across runs.
std::uint64_t partition_fingerprint(const DecompositionResult& result);

/// The decomposition's observed behaviour on one graph.
struct Theorem1Observation {
  DecompositionResult result;   ///< the sequential (threads = 0) run
  VerificationReport report;    ///< verified against schedule.phi_final()
  std::uint64_t fingerprint = 0;
  std::uint64_t scheduled_rounds = 0;  ///< rounds at scheduler_threads = 2
  std::uint64_t round_budget = 0;
  /// Contract violations, human-readable; empty means the decomposition
  /// held the Theorem 1 contract on this graph.
  std::vector<std::string> violations;

  [[nodiscard]] bool ok() const { return violations.empty(); }
  /// All violations joined with "; " (empty iff ok()).
  [[nodiscard]] std::string summary() const;
};

/// Runs the decomposition on g -- sequentially first, then at 1/2/8
/// scheduler threads -- and records every contract violation.  `seed`
/// feeds the caller-level Rng.
Theorem1Observation observe_theorem1(const Graph& g, DecompositionParams prm,
                                     std::uint64_t seed);

}  // namespace xd::expander
