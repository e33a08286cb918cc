// Golden determinism pins: full-result fingerprints of every migrated
// algorithm layer at fixed seeds, captured from the seed (pre-engine)
// kernel.  The batched round engine must reproduce them bit-for-bit --
// results AND ledger round counts -- which is the refactor's acceptance
// contract.  If an intentional protocol change shifts these values,
// regenerate them by printing the fingerprints below (they are pure
// functions of the run seeds).

#include <gtest/gtest.h>

#include <algorithm>

#include "core/xd.hpp"

namespace xd {
namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

TEST(Golden, MpxClusteringMatchesSeedKernel) {
  Rng rng(11);
  const Graph g = gen::random_regular(400, 6, rng);
  congest::RoundLedger ledger;
  congest::Network net(g, ledger, 42);
  const auto c = ldd::mpx_clustering(net, 0.3, "mpx");
  std::uint64_t h = 0;
  for (auto x : c.center) h = mix(h, x);
  for (auto x : c.joined_epoch) h = mix(h, x);
  EXPECT_EQ(h, 802214689181496697ULL);
  EXPECT_EQ(ledger.rounds(), 40u);
  EXPECT_EQ(ledger.messages(), 754u);
}

TEST(Golden, LowDiameterDecompositionMatchesSeedKernel) {
  Rng rng(7);
  const Graph g = gen::random_regular(300, 4, rng);
  congest::RoundLedger ledger;
  congest::Network net(g, ledger, 13);
  ldd::LddParams prm;
  Rng lrng(5);
  const auto r = ldd::low_diameter_decomposition(net, prm, lrng);
  std::uint64_t h = 0;
  for (auto x : r.component) h = mix(h, x);
  h = mix(h, r.num_cut_edges);
  EXPECT_EQ(h, 7745803816326516560ULL);
  EXPECT_EQ(r.num_components, 1u);
  EXPECT_EQ(r.rounds, 2429500u);
}

TEST(Golden, ForestAggregateSamplingMatchSeedKernel) {
  Rng rng(3);
  const Graph g = gen::gnp(200, 0.05, rng);
  congest::RoundLedger ledger;
  congest::Network net(g, ledger, 99);
  std::vector<char> active(g.num_vertices(), 1);
  const auto f = prim::build_forest(net, active, "forest");
  std::vector<std::uint64_t> w(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) w[v] = g.degree(v) + 1;
  const auto s = prim::convergecast_sum(net, f, w, "agg");
  std::uint64_t h = 0;
  for (auto x : f.root) h = mix(h, x);
  for (auto x : f.parent) h = mix(h, x);
  for (auto x : f.depth) h = mix(h, x);
  for (const auto& kids : f.children) {
    for (auto k : kids) h = mix(h, k);
  }
  for (auto x : s) h = mix(h, x);
  std::vector<std::vector<std::pair<int, std::uint64_t>>> tok(g.num_vertices());
  for (auto r : f.roots()) tok[r] = {{0, 5}, {1, 3}};
  const auto samples = prim::sample_by_weight(net, f, w, tok, "sample");
  for (const auto& smp : samples) {
    h = mix(h, smp.vertex);
    h = mix(h, static_cast<std::uint64_t>(smp.scale));
  }
  EXPECT_EQ(h, 8883018817056161231ULL);
  EXPECT_EQ(f.height, 4u);
  EXPECT_EQ(ledger.rounds(), 24u);
  EXPECT_EQ(ledger.messages(), 7675u);
}

TEST(Golden, DistributedNibbleMatchesSeedKernel) {
  Rng rng(21);
  const Graph g = gen::barbell(24);
  congest::RoundLedger ledger;
  congest::Network net(g, ledger, 77);
  sparsecut::NibbleParams prm =
      sparsecut::NibbleParams::practical(0.1, g.num_edges(), g.volume());
  prm.t0 = std::min(prm.t0, 40);
  const auto r =
      sparsecut::distributed_approximate_nibble(net, 0, prm, 3, "nibble");
  std::uint64_t h = 0;
  for (auto v : r.cut.ids()) h = mix(h, v);
  EXPECT_EQ(h, 10102055727940276320ULL);
  EXPECT_TRUE(r.found());
  EXPECT_EQ(r.rounds, 1958u);
  EXPECT_EQ(r.rank_selects, 93u);
}

TEST(Golden, TriangleEnumerationMatchesSeedKernel) {
  Rng rng(31);
  const Graph g = gen::gnp(60, 0.2, rng);
  congest::RoundLedger ledger;
  Rng arng(17);
  triangle::EnumParams prm;
  prm.backend = triangle::RouterBackend::kTree;
  const auto r = triangle::enumerate_congest(g, prm, arng, ledger);
  std::uint64_t h = 0;
  for (const auto& t : r.triangles) {
    h = mix(h, t[0]);
    h = mix(h, t[1]);
    h = mix(h, t[2]);
  }
  EXPECT_EQ(h, 2309664143457515940ULL);
  EXPECT_EQ(r.triangles.size(), 240u);
  // Rounds re-pinned when the driver moved to epoch-batched scheduling
  // (per-item seed-split RNGs); the triangle set itself is unchanged.
  EXPECT_EQ(r.rounds, 3445u);
}

TEST(Golden, SchedulerRoundAccountingPins) {
  // Fixed-seed pins for the concurrent component scheduler: the sequential
  // driver and the epoch scheduler must produce identical partitions and
  // message counts, while rounds drop from the sum over components to the
  // sum of per-epoch maxima.  Per-label breakdowns are pinned too, so
  // future PRs cannot silently shift round accounting.  (Values regenerate
  // like every other pin here: print and re-pin on intentional changes.)
  Rng grng(11);
  const Graph g = gen::planted_partition(160, 4, 0.35, 0.01, grng);
  const auto run = [&](int scheduler_threads, congest::RoundLedger& ledger) {
    expander::DecompositionParams prm;
    prm.epsilon = 0.3;
    prm.k = 2;
    prm.phi0_override = 0.05;
    prm.scheduler_threads = scheduler_threads;
    Rng rng(5);
    return expander::expander_decomposition(g, prm, rng, ledger);
  };

  congest::RoundLedger seq_ledger;
  const auto seq = run(0, seq_ledger);
  EXPECT_EQ(seq.rounds, 16769u);
  EXPECT_EQ(seq.epochs, 6u);
  EXPECT_EQ(seq.num_components, 4u);
  EXPECT_EQ(seq_ledger.messages(), 229372u);
  EXPECT_EQ(seq_ledger.rounds_for("ParallelNibble/generate"), 193u);
  EXPECT_EQ(seq_ledger.rounds_for("ParallelNibble/nibbles"), 16468u);
  EXPECT_EQ(seq_ledger.rounds_for("ParallelNibble/select"), 108u);

  congest::RoundLedger sched_ledger;
  const auto sched = run(2, sched_ledger);
  EXPECT_EQ(sched.component, seq.component);
  EXPECT_EQ(sched.removed_edge, seq.removed_edge);
  EXPECT_EQ(sched.rounds, 7174u);
  EXPECT_EQ(sched.epochs, 6u);
  EXPECT_EQ(sched_ledger.messages(), 229372u);
  EXPECT_EQ(sched_ledger.rounds_for("ParallelNibble/generate"), 70u);
  EXPECT_EQ(sched_ledger.rounds_for("ParallelNibble/nibbles"), 7060u);
  EXPECT_EQ(sched_ledger.rounds_for("ParallelNibble/select"), 44u);
}

TEST(Golden, SchedulerTriangleEnumerationPins) {
  // Same graph/seed as TriangleEnumerationMatchesSeedKernel, run under the
  // cluster scheduler at every pinned thread count: identical triangles,
  // rounds <= the sequential pin.
  for (const int threads : {1, 2, 8}) {
    Rng rng(31);
    const Graph g = gen::gnp(60, 0.2, rng);
    congest::RoundLedger ledger;
    Rng arng(17);
    triangle::EnumParams prm;
    prm.backend = triangle::RouterBackend::kTree;
    prm.scheduler_threads = threads;
    const auto r = triangle::enumerate_congest(g, prm, arng, ledger);
    std::uint64_t h = 0;
    for (const auto& t : r.triangles) {
      h = mix(h, t[0]);
      h = mix(h, t[1]);
      h = mix(h, t[2]);
    }
    EXPECT_EQ(h, 2309664143457515940ULL) << "threads=" << threads;
    EXPECT_EQ(r.triangles.size(), 240u) << "threads=" << threads;
    // This dense G(n,p) is an expander: each level keeps one cluster, so
    // the per-epoch max equals the sequential sum here.
    EXPECT_EQ(r.rounds, 3445u) << "threads=" << threads;
  }
}

TEST(Golden, TreeRouterMatchesSeedKernel) {
  Rng rng(41);
  const Graph g = gen::random_regular(128, 4, rng);
  congest::RoundLedger ledger;
  congest::Network net(g, ledger, 55);
  routing::TreeRouter router(net, 3);
  router.preprocess();
  std::vector<routing::Demand> demands;
  Rng drng(9);
  for (int i = 0; i < 200; ++i) {
    demands.push_back(routing::Demand{
        static_cast<VertexId>(drng.next_below(128)),
        static_cast<VertexId>(drng.next_below(128)), 1});
  }
  EXPECT_EQ(router.route(demands), 21u);
  EXPECT_EQ(ledger.rounds(), 40u);
  EXPECT_EQ(ledger.messages(), 2217u);
}

}  // namespace
}  // namespace xd
