// Model-conformance suite for the concurrent component scheduler
// (congest/scheduler.hpp + the epoch-batched decomposition driver).
//
// Pins the three contracts the paper's parallel-composition bounds rest on:
//   (a) forked-ledger invariant: a join charges max(branch rounds) and
//       sum(branch messages) -- verified against real decomposition charges
//       recorded per branch before the join;
//   (b) the decomposition output (component ids, removed_edge overlay,
//       removed_by[] counts) is bit-identical between the sequential driver
//       and the concurrent scheduler at 1, 2, and 8 host threads, across
//       the property-test family x size x seed grid;
//   (c) scheduler round totals are <= the sequential ledger's on every
//       grid point (max-per-epoch can never exceed sum-per-epoch).

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <stdexcept>
#include <tuple>

#include "congest/scheduler.hpp"
#include "core/xd.hpp"
#include "util/check.hpp"

namespace xd {
namespace {

/// Graph family factory keyed by name (mirrors property_test.cpp).
Graph make_family(const std::string& family, std::size_t n, Rng& rng) {
  if (family == "gnp_sparse") {
    return gen::gnp(n, 6.0 / static_cast<double>(n), rng);
  }
  if (family == "gnp_dense") return gen::gnp(n, 0.3, rng);
  if (family == "regular") return gen::random_regular(n - n % 2, 4, rng);
  if (family == "cycle") return gen::cycle(n);
  if (family == "pref") return gen::preferential_attachment(n, 2, rng);
  XD_CHECK_MSG(false, "unknown family " << family);
  return {};
}

using GridParam = std::tuple<std::string, std::size_t, int>;

expander::DecompositionResult run_decomposition(const Graph& g, int seed,
                                                int scheduler_threads,
                                                congest::RoundLedger& ledger) {
  expander::DecompositionParams prm;
  prm.epsilon = 0.3;
  prm.k = 2;
  prm.phi0_override = 0.05;
  prm.scheduler_threads = scheduler_threads;
  Rng rng(static_cast<std::uint64_t>(seed) + 300);
  return expander::expander_decomposition(g, prm, rng, ledger);
}

class SchedulerConformance : public ::testing::TestWithParam<GridParam> {};

TEST_P(SchedulerConformance, BitIdenticalOutputAndBoundedRounds) {
  const auto& [family, n, seed] = GetParam();
  Rng grng(static_cast<std::uint64_t>(seed) + 300);
  const Graph g = make_family(family, n, grng);
  if (g.num_vertices() < 2) return;

  congest::RoundLedger sequential_ledger;
  const auto sequential =
      run_decomposition(g, seed, /*scheduler_threads=*/0, sequential_ledger);

  for (const int threads : {1, 2, 8}) {
    congest::RoundLedger ledger;
    const auto concurrent = run_decomposition(g, seed, threads, ledger);

    // (b) bit-identical outputs at every thread count.
    EXPECT_EQ(concurrent.component, sequential.component)
        << family << " threads=" << threads;
    EXPECT_EQ(concurrent.removed_edge, sequential.removed_edge)
        << family << " threads=" << threads;
    for (int r = 0; r < 3; ++r) {
      EXPECT_EQ(concurrent.removed_by[r], sequential.removed_by[r])
          << family << " threads=" << threads << " reason=" << r;
    }
    EXPECT_EQ(concurrent.num_components, sequential.num_components);
    EXPECT_EQ(concurrent.epochs, sequential.epochs);

    // (c) concurrent components share the clock: max-joined rounds can
    // never exceed the sequentialized sum.
    EXPECT_LE(concurrent.rounds, sequential.rounds)
        << family << " threads=" << threads;
    EXPECT_LE(ledger.rounds(), sequential_ledger.rounds());
    // Messages are work, not time: identical items send identical traffic.
    EXPECT_EQ(ledger.messages(), sequential_ledger.messages());
  }

  // The sequential epoch-driver output is still a valid decomposition
  // (the scheduler refactor must not have cost correctness).
  const auto report = expander::verify_decomposition(
      g, sequential, 0.3, sequential.schedule.phi_final());
  EXPECT_TRUE(report.is_partition) << family;
  EXPECT_TRUE(report.cut_within_epsilon) << family << " cut "
                                         << report.cut_fraction;
}

TEST_P(SchedulerConformance, ForkedLedgerInvariantOnRealCharges) {
  // (a) on every grid point: run the grid decomposition once per forked
  // branch, snapshot each branch's (rounds, messages) at the epoch barrier,
  // and check the join charged exactly max / sum.
  const auto& [family, n, seed] = GetParam();
  Rng grng(static_cast<std::uint64_t>(seed) + 300);
  const Graph g = make_family(family, n, grng);
  if (g.num_vertices() < 2) return;

  congest::RoundLedger root;
  root.charge(3, "prologue");
  const congest::EpochScheduler pool(4);
  constexpr int kBranches = 3;
  std::vector<congest::RoundLedger*> branches;
  for (int b = 0; b < kBranches; ++b) branches.push_back(&root.fork());
  pool.run(kBranches, [&](std::size_t b) {
    // Distinct seeds per branch give genuinely different charge histories.
    run_decomposition(g, seed + static_cast<int>(b), 0, *branches[b]);
  });
  std::uint64_t max_rounds = 0;
  std::uint64_t sum_messages = 0;
  for (const auto* b : branches) {
    max_rounds = std::max(max_rounds, b->rounds());
    sum_messages += b->messages();
  }
  EXPECT_GT(max_rounds, 0u) << family;
  root.join();
  EXPECT_EQ(root.rounds(), 3u + max_rounds) << family;
  EXPECT_EQ(root.messages(), sum_messages) << family;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, SchedulerConformance,
    ::testing::Combine(::testing::Values("gnp_sparse", "regular", "cycle",
                                         "pref"),
                       ::testing::Values(64u), ::testing::Values(1, 2, 3)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

class EnumerationConformance : public ::testing::TestWithParam<GridParam> {};

TEST_P(EnumerationConformance, TrianglesBitIdenticalAndRoundsBounded) {
  const auto& [family, n, seed] = GetParam();
  Rng grng(static_cast<std::uint64_t>(seed) + 400);
  const Graph g = make_family(family, n, grng);

  triangle::EnumParams prm;
  congest::RoundLedger seq_ledger;
  Rng seq_rng(seed + 7);
  const auto sequential =
      triangle::enumerate_congest(g, prm, seq_rng, seq_ledger);

  for (const int threads : {1, 2, 8}) {
    triangle::EnumParams cprm = prm;
    cprm.scheduler_threads = threads;
    congest::RoundLedger ledger;
    Rng rng(seed + 7);
    const auto concurrent = triangle::enumerate_congest(g, cprm, rng, ledger);
    EXPECT_EQ(concurrent.triangles, sequential.triangles)
        << family << " threads=" << threads;
    EXPECT_EQ(concurrent.levels, sequential.levels);
    EXPECT_EQ(concurrent.clusters_processed, sequential.clusters_processed);
    EXPECT_LE(concurrent.rounds, sequential.rounds)
        << family << " threads=" << threads;
    EXPECT_EQ(ledger.messages(), seq_ledger.messages());
  }

  // And the enumeration is still exact.
  auto expect = triangles_exact(g);
  std::sort(expect.begin(), expect.end());
  EXPECT_EQ(sequential.triangles, expect) << family;
}

INSTANTIATE_TEST_SUITE_P(
    Grid, EnumerationConformance,
    ::testing::Combine(::testing::Values("gnp_sparse", "gnp_dense", "pref"),
                       ::testing::Values(40u), ::testing::Values(1, 2)),
    [](const ::testing::TestParamInfo<GridParam>& info) {
      return std::get<0>(info.param) + "_n" +
             std::to_string(std::get<1>(info.param)) + "_s" +
             std::to_string(std::get<2>(info.param));
    });

TEST(EpochScheduler, RunsEveryItemExactlyOnceAtAnyThreadCount) {
  for (const int threads : {1, 2, 8}) {
    const congest::EpochScheduler pool(threads);
    constexpr std::size_t kItems = 257;
    std::vector<std::atomic<int>> hits(kItems);
    pool.run(kItems, [&](std::size_t i) {
      hits[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < kItems; ++i) {
      ASSERT_EQ(hits[i].load(), 1) << "item " << i << " threads " << threads;
    }
  }
}

TEST(EpochScheduler, ItemResultsIndependentOfThreadCount) {
  // Items writing only their own slot produce identical vectors at every
  // thread count -- the determinism contract callers rely on.
  const auto compute = [](int threads) {
    const congest::EpochScheduler pool(threads);
    std::vector<std::uint64_t> out(100);
    pool.run(out.size(), [&](std::size_t i) {
      Rng rng(i);  // per-item seed split, like the driver's work items
      out[i] = rng() ^ (i * 0x9e3779b97f4a7c15ULL);
    });
    return out;
  };
  const auto serial = compute(1);
  EXPECT_EQ(compute(2), serial);
  EXPECT_EQ(compute(8), serial);
}

TEST(EpochScheduler, WorkerExceptionsPropagate) {
  const congest::EpochScheduler pool(4);
  EXPECT_THROW(
      pool.run(16,
               [](std::size_t i) {
                 if (i == 11) throw std::runtime_error("item failure");
               }),
      std::runtime_error);
}

TEST(EpochScheduler, RunForkedJoinsMaxAndSum) {
  congest::RoundLedger root;
  const congest::EpochScheduler pool(4);
  pool.run_forked(root, 3, [](std::size_t i, congest::RoundLedger& lg) {
    lg.charge(10 * (i + 1), "work");
    lg.count_messages(i + 1);
  });
  EXPECT_EQ(root.forked(), 0u);
  EXPECT_EQ(root.rounds(), 30u);    // max(10, 20, 30)
  EXPECT_EQ(root.messages(), 6u);   // 1 + 2 + 3
}

TEST(EpochScheduler, RunEpochSumsSequentiallyAndJoinsMaxConcurrently) {
  const auto charge = [](std::size_t i, congest::RoundLedger& lg) {
    lg.charge(10 * (i + 1), "work");
    lg.count_messages(i + 1);
  };
  // threads < 1: items charge the root in index order (rounds sum).
  congest::RoundLedger seq;
  congest::EpochScheduler::run_epoch(0, seq, 3, charge);
  EXPECT_EQ(seq.rounds(), 60u);  // 10 + 20 + 30
  EXPECT_EQ(seq.messages(), 6u);
  // threads >= 1: forked branches joined at the barrier (rounds max).
  for (const int threads : {1, 4}) {
    congest::RoundLedger root;
    congest::EpochScheduler::run_epoch(threads, root, 3, charge);
    EXPECT_EQ(root.forked(), 0u);
    EXPECT_EQ(root.rounds(), 30u) << "threads=" << threads;
    EXPECT_EQ(root.messages(), 6u);
  }
}

TEST(EpochScheduler, RunForkedJoinsEvenWhenAnItemThrows) {
  // A throwing item must not leave stale forked children behind: the next
  // epoch's join would silently merge the aborted epoch's branches.
  congest::RoundLedger root;
  const congest::EpochScheduler pool(2);
  EXPECT_THROW(
      pool.run_forked(root, 4,
                      [](std::size_t i, congest::RoundLedger& lg) {
                        lg.charge(5, "partial");
                        if (i == 2) throw std::runtime_error("item failure");
                      }),
      std::runtime_error);
  EXPECT_EQ(root.forked(), 0u);
  const std::uint64_t after_abort = root.rounds();
  // A follow-up epoch accounts exactly its own charges.
  pool.run_forked(root, 2, [](std::size_t, congest::RoundLedger& lg) {
    lg.charge(7, "next");
  });
  EXPECT_EQ(root.rounds(), after_abort + 7u);
}

TEST(EpochScheduler, RejectsNonPositiveThreadCounts) {
  EXPECT_ANY_THROW(congest::EpochScheduler(0));
  EXPECT_ANY_THROW(congest::EpochScheduler(-3));
}

TEST(EpochScheduler, PartialSpawnFailureJoinsAlreadySpawnedWorkers) {
  // std::thread construction failing mid-loop (resource exhaustion) used to
  // destroy the already-spawned, still-joinable threads -- which is
  // std::terminate.  The pool must join the partial pool and surface the
  // spawn error as a normal exception instead.
  struct SpawnFault : std::runtime_error {
    using std::runtime_error::runtime_error;
  };
  congest::detail::set_spawn_fault_hook_for_testing([](int w) {
    if (w == 2) throw SpawnFault("thread construction failed");
  });
  std::atomic<int> completed{0};
  EXPECT_THROW(congest::EpochScheduler::run_partitioned(
                   64, 4,
                   [&](int /*w*/, std::size_t /*lo*/, std::size_t /*hi*/) {
                     completed.fetch_add(1, std::memory_order_relaxed);
                   }),
               SpawnFault);
  congest::detail::set_spawn_fault_hook_for_testing({});
  // Workers 0 and 1 were spawned before the fault and joined before the
  // rethrow: their bodies ran to completion and their effects are visible.
  EXPECT_EQ(completed.load(), 2);
}

}  // namespace
}  // namespace xd
