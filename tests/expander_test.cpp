#include "expander/decomposition.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "expander/verify.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/subgraph.hpp"

namespace xd::expander {
namespace {

TEST(Schedule, DepthAndBetaFormulas) {
  DecompositionParams prm;
  prm.epsilon = 0.3;
  prm.k = 2;
  prm.preset = Preset::kPaper;
  const Schedule s = derive_schedule(prm, 1000, 5000, 10000);
  // d: smallest integer with (1 - ε/12)^d · n(n-1) < 1 (paper preset).
  const double shrink = -std::log1p(-0.3 / 12.0);
  const auto expect_d = static_cast<std::uint32_t>(
      std::ceil(std::log(1000.0 * 999.0) / shrink));
  EXPECT_EQ(s.d, expect_d);
  EXPECT_NEAR(s.beta, (0.3 / 3.0) / expect_d, 1e-12);
  ASSERT_EQ(s.phi.size(), 3u);  // φ₀, φ₁, φ₂

  // Practical preset caps the depth at the observed O(log n) scale.
  prm.preset = Preset::kPractical;
  const Schedule sp = derive_schedule(prm, 1000, 5000, 10000);
  EXPECT_LE(sp.d, static_cast<std::uint32_t>(std::ceil(3.0 * std::log(1000.0)) + 5));
  EXPECT_NEAR(sp.beta, (0.3 / 3.0) / sp.d, 1e-12);
}

TEST(Schedule, PhiStrictlyDecreasing) {
  DecompositionParams prm;
  prm.epsilon = 0.2;
  prm.k = 3;
  const Schedule s = derive_schedule(prm, 500, 2000, 4000);
  for (std::size_t i = 1; i < s.phi.size(); ++i) {
    EXPECT_LT(s.phi[i], s.phi[i - 1]);
    EXPECT_GT(s.phi[i], 0.0);
  }
}

TEST(Schedule, HInverseRoundTrip) {
  for (Preset preset : {Preset::kPaper, Preset::kPractical}) {
    const double theta = 1e-3;
    const double inv = h_inverse(theta, 10000, 20000, preset);
    EXPECT_NEAR(h_of(inv, 10000, 20000, preset), theta, 1e-12);
  }
}

TEST(Schedule, PaperPhiMatchesTheoremShape) {
  // φ = (ε / log n)^{2^{O(k)}}: deeper k must shrink φ dramatically.
  DecompositionParams prm;
  prm.preset = Preset::kPaper;
  prm.epsilon = 0.1;
  prm.phi_floor = 0.0;
  prm.k = 1;
  const double phi1 = derive_schedule(prm, 4096, 1 << 14, 1 << 15).phi_final();
  prm.k = 2;
  const double phi2 = derive_schedule(prm, 4096, 1 << 14, 1 << 15).phi_final();
  EXPECT_LT(phi2, phi1 * phi1);  // roughly cubing per level
}

class DecompositionInvariants : public ::testing::TestWithParam<int> {};

TEST_P(DecompositionInvariants, DumbbellSeparatesAndVerifies) {
  const int seed = GetParam();
  Rng rng(seed);
  const Graph g = gen::dumbbell_expanders(40, 40, 4, 2, rng);
  DecompositionParams prm;
  prm.epsilon = 0.3;
  prm.k = 2;
  // The planted bridge cut has conductance ~0.012; target that scale.
  prm.phi0_override = 0.02;
  congest::RoundLedger ledger;
  const auto res = expander_decomposition(g, prm, rng, ledger);

  const auto report = verify_decomposition(g, res, prm.epsilon,
                                           res.schedule.phi_final());
  EXPECT_TRUE(report.is_partition);
  EXPECT_TRUE(report.cut_within_epsilon)
      << "cut fraction " << report.cut_fraction;
  EXPECT_TRUE(report.conductance_meets_phi)
      << "min conductance lower bound " << report.min_conductance_lower;
  EXPECT_GT(res.rounds, 0u);
  EXPECT_EQ(res.rounds, ledger.rounds());
}

TEST_P(DecompositionInvariants, ExpanderStaysAlmostWhole) {
  const int seed = GetParam();
  Rng rng(seed + 100);
  const Graph g = gen::random_regular(120, 6, rng);
  DecompositionParams prm;
  prm.epsilon = 0.3;
  prm.k = 2;
  congest::RoundLedger ledger;
  const auto res = expander_decomposition(g, prm, rng, ledger);
  const auto report = verify_decomposition(g, res, prm.epsilon,
                                           res.schedule.phi_final());
  EXPECT_TRUE(report.ok()) << "cut " << report.cut_fraction << " minphi "
                           << report.min_conductance_lower;
  // An expander admits no sparse cut: the bulk survives in one big part.
  std::size_t biggest = 0;
  std::vector<std::size_t> sizes(res.num_components, 0);
  for (auto c : res.component) biggest = std::max(biggest, ++sizes[c]);
  EXPECT_GE(biggest, g.num_vertices() * 3 / 4);
}

INSTANTIATE_TEST_SUITE_P(Seeds, DecompositionInvariants,
                         ::testing::Values(1, 2, 3));

TEST(Decomposition, PlantedPartitionRecoversBlocks) {
  Rng rng(7);
  const Graph g = gen::planted_partition(120, 3, 0.35, 0.01, rng);
  DecompositionParams prm;
  prm.epsilon = 0.35;
  prm.k = 2;
  // Ask for separation at the block-cut conductance scale (~0.03).
  prm.phi0_override = 0.06;
  congest::RoundLedger ledger;
  const auto res = expander_decomposition(g, prm, rng, ledger);
  const auto report = verify_decomposition(g, res, prm.epsilon,
                                           res.schedule.phi_final());
  EXPECT_TRUE(report.is_partition);
  EXPECT_TRUE(report.cut_within_epsilon)
      << "cut fraction " << report.cut_fraction;
  // Most pairs from different blocks should be separated.
  std::size_t cross_same = 0;
  std::size_t cross_total = 0;
  for (VertexId u = 0; u < 120; u += 7) {
    for (VertexId v = u + 1; v < 120; v += 11) {
      if (u / 40 != v / 40) {
        ++cross_total;
        cross_same += (res.component[u] == res.component[v]);
      }
    }
  }
  EXPECT_LT(cross_same, cross_total / 2);
}

TEST(Decomposition, RemoveBudgetsTracked) {
  Rng rng(9);
  const Graph g = gen::clique_chain(10, 8);
  DecompositionParams prm;
  prm.epsilon = 0.4;
  prm.k = 1;
  congest::RoundLedger ledger;
  const auto res = expander_decomposition(g, prm, rng, ledger);
  std::uint64_t marked = 0;
  for (char c : res.removed_edge) marked += c;
  EXPECT_EQ(marked, res.total_removed());
  // Every removed edge was charged to exactly one reason.
  EXPECT_EQ(res.total_removed(),
            res.removed_by[0] + res.removed_by[1] + res.removed_by[2]);
}

TEST(Decomposition, DegreesNeverChange) {
  // The central invariant: removals substitute self-loops, so the live view
  // at the end preserves every ambient degree.
  Rng rng(10);
  const Graph g = gen::dumbbell_expanders(25, 25, 4, 2, rng);
  DecompositionParams prm;
  prm.epsilon = 0.3;
  prm.k = 1;
  congest::RoundLedger ledger;
  const auto res = expander_decomposition(g, prm, rng, ledger);
  const LiveSubgraph live =
      live_subgraph(g, res.removed_edge, VertexSet::all(g.num_vertices()));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(live.graph.degree(v), g.degree(v));
  }
}

TEST(Decomposition, HandlesDisconnectedInputAndIsolatedVertices) {
  GraphBuilder b(12);
  for (VertexId i = 0; i < 5; ++i) {
    for (VertexId j = i + 1; j < 5; ++j) b.add_edge(i, j);
  }
  for (VertexId i = 5; i < 10; ++i) {
    for (VertexId j = i + 1; j < 10; ++j) b.add_edge(i, j);
  }
  // Vertices 10, 11 isolated.
  const Graph g = b.build();
  Rng rng(11);
  DecompositionParams prm;
  prm.epsilon = 0.3;
  prm.k = 1;
  congest::RoundLedger ledger;
  const auto res = expander_decomposition(g, prm, rng, ledger);
  const auto report =
      verify_decomposition(g, res, prm.epsilon, res.schedule.phi_final());
  EXPECT_TRUE(report.is_partition);
  EXPECT_GE(res.num_components, 4u);  // 2 cliques + 2 isolated
  EXPECT_NE(res.component[0], res.component[5]);
  EXPECT_NE(res.component[10], res.component[11]);
}

TEST(Decomposition, EpsilonKnobControlsCutBudget) {
  // Tighter epsilon must never produce a looser cut fraction bound; check
  // the measured fractions are both within their budgets.
  Rng r1(12), r2(12);
  const Graph g = gen::planted_partition(100, 2, 0.3, 0.02, r1);
  congest::RoundLedger l1, l2;
  DecompositionParams tight;
  tight.epsilon = 0.1;
  tight.k = 1;
  DecompositionParams loose;
  loose.epsilon = 0.5;
  loose.k = 1;
  const auto res_tight = expander_decomposition(g, tight, r1, l1);
  const auto res_loose = expander_decomposition(g, loose, r2, l2);
  const auto rep_tight =
      verify_decomposition(g, res_tight, tight.epsilon, 0.0);
  const auto rep_loose =
      verify_decomposition(g, res_loose, loose.epsilon, 0.0);
  EXPECT_TRUE(rep_tight.cut_within_epsilon)
      << "tight fraction " << rep_tight.cut_fraction;
  EXPECT_TRUE(rep_loose.cut_within_epsilon)
      << "loose fraction " << rep_loose.cut_fraction;
}

}  // namespace
}  // namespace xd::expander
