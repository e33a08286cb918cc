#include "expander/cross_check.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "congest/ledger.hpp"
#include "corpus.hpp"
#include "expander/decomposition.hpp"
#include "expander/verify.hpp"
#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace xd::expander {
namespace {

DecompositionParams harness_params() {
  DecompositionParams prm;
  prm.epsilon = 0.3;
  prm.k = 2;
  prm.phi0_override = 0.05;
  return prm;
}

// The whole corpus held to the Theorem 1 contract (verify.cpp oracles at
// φ_k, inter-component edges <= εm, bit-identical outputs at 1/2/8
// scheduler threads, rounds within the charged budget).  A failure message
// names the graph and every violated clause.
TEST(Theorem1Contract, FullCorpusHoldsTheTheorem1Contract) {
  for (const auto& entry : corpus::default_corpus()) {
    SCOPED_TRACE(entry.name);
    const Graph g = entry.make();
    const Theorem1Observation obs =
        observe_theorem1(g, harness_params(), /*seed=*/5);
    EXPECT_TRUE(obs.ok()) << entry.name << ": " << obs.summary();
  }
}

// Planted structure: the SBM's four communities are separated, neither
// merged away nor shattered into noise.
TEST(Theorem1Contract, SeparatesThePlantedBlocks) {
  Graph g;
  for (const auto& entry : corpus::default_corpus()) {
    if (entry.family == "sbm") g = entry.make();
  }
  ASSERT_GT(g.num_vertices(), 0u);
  const Theorem1Observation obs =
      observe_theorem1(g, harness_params(), /*seed=*/5);
  ASSERT_TRUE(obs.ok()) << obs.summary();
  EXPECT_GE(obs.result.num_components, 4u);
  EXPECT_LE(obs.result.num_components, 16u);
}

// The εm budget is enforced at the merge barrier, so even a hostile
// (epsilon, graph) pair -- a grid at ε = 0.02, where recursive bisection
// wants far more than ⌊ε·|E|⌋ = 5 removals -- stays within budget
// unconditionally, trading conductance quality (guarded parts only clear
// the φ_k floor) instead of breaking the cut bound.
TEST(Theorem1Contract, CutBudgetHoldsUnconditionally) {
  const Graph g = gen::grid(12, 12);
  DecompositionParams prm = harness_params();
  prm.epsilon = 0.02;
  const Theorem1Observation obs = observe_theorem1(g, prm, /*seed=*/5);
  const auto budget =
      static_cast<std::uint64_t>(prm.epsilon *
                                 static_cast<double>(g.num_edges()));
  ASSERT_EQ(budget, 5u);
  EXPECT_LE(obs.result.total_removed(), budget);
  EXPECT_GT(obs.result.guard_finalized, 0u);
  EXPECT_TRUE(obs.report.ok()) << "cut_fraction=" << obs.report.cut_fraction
                               << " min_phi="
                               << obs.report.min_conductance_lower;
  EXPECT_TRUE(obs.ok()) << obs.summary();
}

// The scheduled accounting is never charged more than the sequential sum,
// and the budget formula itself stays meaningfully above real runs (a
// budget that just barely passes would page someone on every perf wiggle).
TEST(Theorem1Contract, RoundAccountingStaysWithinBudgetWithHeadroom) {
  const Graph g = corpus::topology("expander");
  const Theorem1Observation obs =
      observe_theorem1(g, harness_params(), /*seed=*/5);
  ASSERT_TRUE(obs.ok()) << obs.summary();
  const std::uint64_t budget =
      theorem1_round_budget(g.num_vertices(), g.num_edges());
  EXPECT_LE(obs.result.rounds, budget / 4);
  EXPECT_LE(obs.scheduled_rounds, obs.result.rounds);
}

// The fingerprint perfbench compares is sensitive to every field it
// claims to cover: a single flipped label, overlay bit, or removal count
// changes it.
TEST(Theorem1Contract, FingerprintIsSensitiveToEveryPinnedField) {
  const Graph g = corpus::topology("expander");
  Rng rng(5);
  congest::RoundLedger ledger;
  const DecompositionResult base =
      expander_decomposition(g, harness_params(), rng, ledger);
  const std::uint64_t fp = partition_fingerprint(base);

  DecompositionResult mutated = base;
  mutated.component[0] ^= 1u;
  EXPECT_NE(partition_fingerprint(mutated), fp);
  mutated = base;
  mutated.removed_edge[0] = !mutated.removed_edge[0];
  EXPECT_NE(partition_fingerprint(mutated), fp);
  mutated = base;
  ++mutated.removed_by[static_cast<int>(RemoveReason::kSparseCut)];
  EXPECT_NE(partition_fingerprint(mutated), fp);
  mutated = base;
  ++mutated.num_components;
  EXPECT_NE(partition_fingerprint(mutated), fp);
}

}  // namespace
}  // namespace xd::expander
