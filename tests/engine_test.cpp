// Batched round-engine tests: flat CSR inbox delivery vs the naive
// reference oracle (tests/oracles/), canonical delivery order,
// parallel-executor determinism, the O(log deg) send_to slot index, and
// the exchange_charging accounting contract.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>

#include "congest/engine.hpp"
#include "congest/network.hpp"
#include "graph/generators.hpp"
#include "ldd/mpx.hpp"
#include "oracles/delivery_oracle.hpp"
#include "primitives/forest.hpp"
#include "primitives/sampling.hpp"
#include "util/check.hpp"

namespace xd::congest {
namespace {

// ------------------------------------------------------ flat delivery -----

TEST(Engine, FlatDeliveryMatchesOracle) {
  Rng rng(12);
  const Graph g = gen::gnp(64, 0.15, rng);
  RoundLedger ledger;
  Network net(g, ledger, 5);
  oracle::DeliveryOracle ref(g);

  // Random staging pattern, including repeats on the same slot.
  Rng pick(99);
  for (int i = 0; i < 500; ++i) {
    const auto v = static_cast<VertexId>(pick.next_below(g.num_vertices()));
    if (g.degree(v) == 0) continue;
    const auto slot = static_cast<std::uint32_t>(pick.next_below(g.degree(v)));
    if (g.neighbors(v)[slot] == v) continue;
    const Message m{7, pick(), pick()};
    net.send(v, slot, m);
    ref.send(v, slot, m);
  }
  const oracle::Delivery want = ref.deliver();
  EXPECT_EQ(net.exchange("ref"), want.rounds);

  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto in = net.inbox(v);
    ASSERT_EQ(in.size(), want.inbox[v].size()) << "vertex " << v;
    for (std::size_t i = 0; i < in.size(); ++i) {
      EXPECT_EQ(in[i].from, want.inbox[v][i].from);
      EXPECT_EQ(in[i].msg, want.inbox[v][i].msg);
    }
  }
}

TEST(Engine, InboxIsSenderAscending) {
  // Stage in descending sender order; delivery must canonicalize.
  const Graph g = gen::star(5);  // center 0, leaves 1..4
  RoundLedger ledger;
  Network net(g, ledger);
  for (VertexId v = 4; v >= 1; --v) net.send_to(v, 0, Message{1, v});
  net.exchange("canon");
  const auto in = net.inbox(0);
  ASSERT_EQ(in.size(), 4u);
  for (std::size_t i = 1; i < in.size(); ++i) {
    EXPECT_LT(in[i - 1].from, in[i].from);
  }
}

// ------------------------------------------------------- run_round --------

TEST(Engine, RunRoundChargesCongestionLikeExchange) {
  const Graph g = gen::path(2);
  RoundLedger ledger;
  Network net(g, ledger);
  auto program = make_program(
      [](VertexId v, Outbox& out) {
        if (v == 0) {
          for (int i = 0; i < 3; ++i) out.send_to(1, Message{0, std::uint64_t(i)});
        }
      },
      [](VertexId, std::span<const Envelope>) {});
  EXPECT_EQ(net.run_round(program, "congested"), 3u);
  EXPECT_EQ(ledger.rounds_for("congested"), 3u);
  EXPECT_EQ(net.inbox(1).size(), 3u);
}

TEST(Engine, RunRoundsAccumulates) {
  const Graph g = gen::cycle(8);
  RoundLedger ledger;
  Network net(g, ledger);
  auto program = make_program(
      [](VertexId, Outbox& out) { out.send(0, Message{1, out.vertex()}); },
      [](VertexId, std::span<const Envelope>) {});
  EXPECT_EQ(net.run_rounds(program, 5, "spin"), 5u);
  EXPECT_EQ(ledger.rounds(), 5u);
}

// Runs MPX + forest + weighted sampling at the given thread count and
// returns a full fingerprint of results and accounting.
struct Fingerprint {
  std::vector<VertexId> center;
  std::vector<VertexId> parent;
  std::vector<prim::ScaledSample> samples;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint run_stack(int threads) {
  Rng rng(8);
  const Graph g = gen::gnp(150, 0.06, rng);
  RoundLedger ledger;
  Network net(g, ledger, 321);
  // Workers run whole shards, so a parallel run needs S >= threads; the
  // serial baseline keeps the construction default.
  if (threads > 1) net.set_shards(threads);
  net.set_threads(threads);

  Fingerprint fp;
  fp.center = ldd::mpx_clustering(net, 0.35, "mpx").center;

  const std::vector<char> active(g.num_vertices(), 1);
  const auto forest = prim::build_forest(net, active, "forest");
  fp.parent = forest.parent;

  std::vector<std::uint64_t> w(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) w[v] = g.degree(v) + 1;
  std::vector<std::vector<std::pair<int, std::uint64_t>>> tok(g.num_vertices());
  for (auto r : forest.roots()) tok[r] = {{0, 7}, {2, 4}};
  fp.samples = prim::sample_by_weight(net, forest, w, tok, "sample");

  fp.rounds = ledger.rounds();
  fp.messages = ledger.messages();
  return fp;
}

TEST(Engine, ParallelExecutorIsBitIdentical) {
  const Fingerprint serial = run_stack(1);
  for (const int threads : {2, 3, 8}) {
    const Fingerprint parallel = run_stack(threads);
    EXPECT_EQ(serial, parallel) << "threads=" << threads;
  }
}

TEST(Engine, ParallelPhaseExceptionsAreCatchable) {
  // An XD_CHECK tripping inside a worker thread must surface as the same
  // catchable CheckError the serial executor throws, not std::terminate.
  const Graph g = gen::path(4);
  RoundLedger ledger;
  Network net(g, ledger);
  net.set_shards(3);
  net.set_threads(3);
  auto program = make_program(
      [](VertexId v, Outbox& out) {
        if (v == 2) out.send_to(0, Message{});  // {2,0} is not an edge
      },
      [](VertexId, std::span<const Envelope>) {});
  EXPECT_THROW(net.run_round(program, "boom"), CheckError);
}

TEST(Engine, RejectsZeroThreads) {
  const Graph g = gen::path(2);
  RoundLedger ledger;
  Network net(g, ledger);
  EXPECT_THROW(net.set_threads(0), CheckError);
}

// ------------------------------------------------- send_to slot index -----

TEST(Engine, StarBroadcastSendToWorkIsNotQuadratic) {
  // The seed kernel's send_to was an O(deg) linear scan, so a star-center
  // broadcast cost Θ(d²) slot-lookup work.  The neighbor->slot index must
  // keep it at O(d log d) probes.
  const std::size_t d = 4096;
  const Graph g = gen::star(d + 1);  // center 0, leaves 1..d
  RoundLedger ledger;
  Network net(g, ledger);
  for (VertexId leaf = 1; leaf <= d; ++leaf) {
    net.send_to(0, leaf, Message{1, leaf});
  }
  const std::uint64_t probes = net.slot_lookup_probes();
  const double log_d = std::log2(static_cast<double>(d));
  EXPECT_LE(probes, static_cast<std::uint64_t>(2.0 * d * (log_d + 2.0)));
  EXPECT_LT(probes, d * d / 4);  // nowhere near the quadratic scan
  EXPECT_EQ(net.exchange("star"), 1u);
  for (VertexId leaf = 1; leaf <= d; ++leaf) {
    ASSERT_EQ(net.inbox(leaf).size(), 1u);
  }
}

TEST(Engine, SlotOfFindsEveryNeighborAndRejectsNonEdges) {
  Rng rng(77);
  const Graph g = gen::gnp(80, 0.1, rng);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto nbrs = g.neighbors(v);
    for (std::uint32_t slot = 0; slot < nbrs.size(); ++slot) {
      if (nbrs[slot] == v) continue;
      const auto found = g.slot_of(v, nbrs[slot]);
      ASSERT_NE(found, Graph::kNoSlot);
      EXPECT_EQ(nbrs[found], nbrs[slot]);
    }
    for (VertexId u = 0; u < g.num_vertices(); ++u) {
      if (u == v) continue;
      if (!g.has_edge(v, u)) {
        EXPECT_EQ(g.slot_of(v, u), Graph::kNoSlot);
      }
    }
  }
}

TEST(Engine, SlotOfPrefersSmallestParallelSlot) {
  GraphBuilder b(2, /*allow_parallel=*/true);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  b.add_edge(0, 1);
  const Graph g = b.build();
  // The linear scan the seed used would find slot 0 first; the index must
  // agree so congestion accounting is unchanged.
  EXPECT_EQ(g.slot_of(0, 1), 0u);
  EXPECT_EQ(g.slot_of(1, 0), 0u);
}

// ---------------------------------------------------- exchange_charging ---

TEST(Engine, ExchangeChargingAtExactCongestionPasses) {
  const Graph g = gen::path(2);
  RoundLedger ledger;
  Network net(g, ledger);
  for (int i = 0; i < 4; ++i) net.send_to(0, 1, Message{});
  // Congestion is exactly 4; declaring exactly 4 rounds must pass.
  EXPECT_EQ(net.exchange_charging("exact", 4), 4u);
  EXPECT_EQ(net.inbox(1).size(), 4u);
  EXPECT_EQ(ledger.rounds_for("exact"), 4u);
}

TEST(Engine, ExchangeChargingOverCongestionThrows) {
  const Graph g = gen::path(2);
  RoundLedger ledger;
  Network net(g, ledger);
  for (int i = 0; i < 5; ++i) net.send_to(0, 1, Message{});
  EXPECT_THROW(net.exchange_charging("under", 4), CheckError);
}

TEST(Engine, ExchangeChargingMatchesLedgerEntry) {
  const Graph g = gen::path(3);
  RoundLedger ledger;
  Network net(g, ledger);
  net.send_to(0, 1, Message{});
  const auto charged = net.exchange_charging("pipelined", 9);
  EXPECT_EQ(charged, 9u);
  EXPECT_EQ(ledger.rounds_for("pipelined"), charged);
  EXPECT_EQ(ledger.rounds(), charged);
  EXPECT_EQ(ledger.messages(), 1u);
  // A second override charge under the same label accumulates.
  net.send_to(1, 2, Message{});
  EXPECT_EQ(net.exchange_charging("pipelined", 2), 2u);
  EXPECT_EQ(ledger.rounds_for("pipelined"), 11u);
}

}  // namespace
}  // namespace xd::congest
