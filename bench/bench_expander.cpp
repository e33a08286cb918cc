// Experiment E3 -- Theorem 1 (the (ε, φ)-expander decomposition).
//
// Tables:
//   E3a  quality per family: cut fraction vs ε, certified component
//        conductance vs φ_k, Remove-1/2/3 budget split;
//   E3b  the n^{2/k} knob: rounds for k = 1, 2, 3 on growing SBMs, with
//        log-log slopes of the Phase 2 related charges;
//   E3c  ε sweep on one graph: cut fraction tracks the budget;
//   E3d  the concurrent component scheduler: sequential (rounds SUM over
//        components) vs epoch scheduler (rounds MAX per level) at 1/2/8
//        host threads -- simulated rounds and wall-clock;
//   E3e  zero-copy GraphView overlays vs materialized live_subgraph: the
//        per-work-item subgraph cost (construction and construction +
//        double-sweep traversal), CSR builds counted via the
//        GraphBuilder::total_builds hook, plus the end-to-end build count
//        of a whole decomposition (0 on the view-only practical path).
//
// With --json FILE, the E3d comparison and the E3e view-overlay numbers
// are also written as JSON (the BENCH_expander.json trajectory emitted by
// bench/run_all.sh).

#include <chrono>
#include <cmath>
#include <fstream>
#include <iostream>
#include <string>

#include "core/xd.hpp"
#include "util/check.hpp"

namespace {

using namespace xd;

expander::DecompositionResult run(const Graph& g, double eps, int k,
                                  double phi0, Rng& rng,
                                  congest::RoundLedger& ledger) {
  expander::DecompositionParams prm;
  prm.epsilon = eps;
  prm.k = k;
  prm.phi0_override = phi0;
  return expander::expander_decomposition(g, prm, rng, ledger);
}

double elapsed_ms(const std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - start)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      json_path = argv[++i];
    } else {
      // Unknown (or dangling) flags fail loudly: a typo'd --json used to
      // silently run the whole suite and write nothing.
      std::cerr << "usage: bench_expander [--json PATH]\n";
      return std::string(argv[i]) == "--help" ? 0 : 2;
    }
  }
  Rng master(90210);

  Table e3a("E3a: decomposition quality (epsilon = 0.25, k = 2, phi0 = 0.06)",
            {"family", "comps", "cut frac", "eps", "min cond (cert)",
             "phi_k", "R1", "R2", "R3", "rounds"});
  struct Fam {
    const char* name;
    Graph g;
  };
  std::vector<Fam> fams;
  {
    Rng r = master.fork(1);
    fams.push_back({"SBM(240,4,.4,.005)",
                    gen::planted_partition(240, 4, 0.4, 0.005, r)});
  }
  {
    Rng r = master.fork(2);
    fams.push_back({"dumbbell(120,120)",
                    gen::dumbbell_expanders(120, 120, 4, 2, r)});
  }
  {
    Rng r = master.fork(3);
    fams.push_back({"regular(300,6)", gen::random_regular(300, 6, r)});
  }
  {
    Rng r = master.fork(4);
    fams.push_back({"gnp(200,0.08)", gen::gnp(200, 0.08, r)});
  }
  fams.push_back({"clique_chain(25,8)", gen::clique_chain(25, 8)});

  for (auto& fam : fams) {
    Rng rng = master.fork(101 + (&fam - fams.data()));
    congest::RoundLedger ledger;
    const auto res = run(fam.g, 0.25, 2, 0.06, rng, ledger);
    const auto report = expander::verify_decomposition(
        fam.g, res, 0.25, res.schedule.phi_final());
    e3a.add_row(
        {fam.name, Table::cell(static_cast<std::uint64_t>(res.num_components)),
         Table::cell(report.cut_fraction, 4), Table::cell(0.25, 2),
         Table::cell(report.min_conductance_lower, 5),
         Table::cell(res.schedule.phi_final(), 5),
         Table::cell(res.removed_by[0]), Table::cell(res.removed_by[1]),
         Table::cell(res.removed_by[2]), Table::cell(res.rounds)});
  }
  e3a.print();

  // The n^{2/k} term is Phase 2's worst-case iteration budget (2τ per
  // level, τ = ((ε/6)Vol)^{1/k}); real workloads sit far below it, so the
  // table shows both the budget (which scales exactly as n^{2/k}) and the
  // observed rounds, on "warted expanders" engineered to enter Phase 2
  // (tiny sparse appendages make every sparse cut unbalanced).
  Table e3b("E3b: the n^{2/k} knob -- Phase 2 budget vs observed (warted expander)",
            {"n", "k", "2*tau*k (budget)", "phase2 entries", "singletons",
             "rounds"});
  {
    LogLogFit budget_k1, budget_k2;
    for (const std::size_t n : {128u, 256u, 512u, 1024u}) {
      // Expander core + n/32 pendant cliques of size 5.
      const std::size_t warts = n / 32;
      Rng rg = master.fork(5000 + n);
      const Graph core = gen::random_regular(n, 6, rg);
      GraphBuilder b(n + warts * 5);
      for (EdgeId e = 0; e < core.num_edges(); ++e) {
        b.add_edge(core.edge(e).first, core.edge(e).second);
      }
      for (std::size_t w = 0; w < warts; ++w) {
        const auto base = static_cast<VertexId>(n + w * 5);
        for (VertexId i = 0; i < 5; ++i) {
          for (VertexId j = i + 1; j < 5; ++j) {
            b.add_edge(base + i, base + j);
          }
        }
        b.add_edge(base, static_cast<VertexId>(w % n));
      }
      const Graph g = b.build();

      for (const int k : {1, 2}) {
        Rng rng = master.fork(6000 + n * 10 + static_cast<unsigned>(k));
        congest::RoundLedger ledger;
        const auto res = run(g, 0.25, k, 0.08, rng, ledger);
        const double tau =
            std::pow((0.25 / 6.0) * static_cast<double>(g.volume()),
                     1.0 / static_cast<double>(k));
        const double budget = 2.0 * tau * k;
        e3b.add_row({Table::cell(static_cast<std::uint64_t>(n)),
                     Table::cell(k),
                     Table::cell(static_cast<std::uint64_t>(budget)),
                     Table::cell(res.phase2_entries),
                     Table::cell(res.singleton_components),
                     Table::cell(res.rounds)});
        if (k == 1) budget_k1.add(static_cast<double>(n), budget);
        if (k == 2) budget_k2.add(static_cast<double>(n), budget);
      }
    }
    e3b.print();
    std::cout << "log-log slope of the Phase 2 budget vs n:  k=1: "
              << budget_k1.slope() << "   k=2: " << budget_k2.slope()
              << "   (theory: Vol^{1/k} -> 1 and 1/2 at constant degree; "
                 "n^{2/k} worst case at Vol = Theta(n^2))\n\n";
  }

  Table e3c("E3c: epsilon sweep (SBM(240,4,.4,.005), k = 2, phi0 = 0.06)",
            {"epsilon", "cut frac", "within budget", "components",
             "phase2 entries"});
  {
    Rng rg = master.fork(31);
    const Graph g = gen::planted_partition(240, 4, 0.4, 0.005, rg);
    for (const double eps : {0.08, 0.15, 0.25, 0.4}) {
      Rng rng = master.fork(static_cast<std::uint64_t>(3000 + eps * 100));
      congest::RoundLedger ledger;
      const auto res = run(g, eps, 2, 0.06, rng, ledger);
      const auto report = expander::verify_decomposition(
          g, res, eps, res.schedule.phi_final());
      e3c.add_row({Table::cell(eps, 2), Table::cell(report.cut_fraction, 4),
                   report.cut_within_epsilon ? "yes" : "NO",
                   Table::cell(static_cast<std::uint64_t>(res.num_components)),
                   Table::cell(res.phase2_entries)});
    }
  }
  e3c.print();

  // E3d: the fork/join scheduler.  The dumbbell is the cleanest workload
  // for the sum-vs-max distinction: one bridge cut, then two equal
  // expander halves whose certification calls a sequential simulation
  // charges back-to-back while one CONGEST network runs them
  // simultaneously -- so scheduler rounds land near half the sequential
  // total.  Rounds are identical at every thread count >= 1 (forked
  // ledgers join by max); threads shape wall-clock only, so the speedup
  // column reports whatever the host's cores give (≈1 or below on a
  // single-core CI box, where spawning buys nothing).
  struct SchedPoint {
    int threads;
    std::uint64_t rounds;
    double ms;
  };
  struct E3dStats {
    std::size_t n = 0, m = 0;
    std::uint64_t seq_rounds = 0;
    std::uint64_t seq_builds = 0;
    double seq_ms = 0.0;
    std::vector<SchedPoint> points;
  } e3d_stats;

  Table e3d("E3d: concurrent component scheduler (dumbbell(240,240), "
            "k = 2, phi0 = 0.02)",
            {"mode", "host threads", "rounds", "epochs", "wall ms",
             "round reduction", "speedup"});
  {
    Rng rg = master.fork(41);
    const Graph g = gen::dumbbell_expanders(240, 240, 4, 2, rg);

    const auto timed_run = [&](int scheduler_threads, double& ms,
                               congest::RoundLedger& ledger) {
      expander::DecompositionParams prm;
      prm.epsilon = 0.25;
      prm.k = 2;
      prm.phi0_override = 0.02;
      prm.scheduler_threads = scheduler_threads;
      Rng rng(4242);
      const auto start = std::chrono::steady_clock::now();
      const auto res = expander::expander_decomposition(g, prm, rng, ledger);
      ms = elapsed_ms(start);
      return res;
    };

    double seq_ms = 0.0;
    congest::RoundLedger seq_ledger;
    const std::uint64_t builds_before = GraphBuilder::total_builds();
    const auto seq = timed_run(0, seq_ms, seq_ledger);
    e3d_stats.seq_builds = GraphBuilder::total_builds() - builds_before;
    e3d.add_row({"sequential", Table::cell(1), Table::cell(seq.rounds),
                 Table::cell(seq.epochs), Table::cell(seq_ms, 1),
                 Table::cell(1.0, 2), Table::cell(1.0, 2)});

    std::vector<SchedPoint> points;
    for (const int threads : {1, 2, 8}) {
      double ms = 0.0;
      congest::RoundLedger ledger;
      const auto res = timed_run(threads, ms, ledger);
      XD_CHECK_MSG(res.component == seq.component,
                   "scheduler output diverged at " << threads << " threads");
      points.push_back({threads, res.rounds, ms});
      e3d.add_row({"scheduler", Table::cell(threads), Table::cell(res.rounds),
                   Table::cell(res.epochs), Table::cell(ms, 1),
                   Table::cell(static_cast<double>(seq.rounds) /
                                   static_cast<double>(res.rounds),
                               2),
                   Table::cell(seq_ms / ms, 2)});
    }
    e3d.print();

    e3d_stats.n = g.num_vertices();
    e3d_stats.m = g.num_edges();
    e3d_stats.seq_rounds = seq.rounds;
    e3d_stats.seq_ms = seq_ms;
    e3d_stats.points = std::move(points);
  }

  // E3e: the zero-copy overlay vs the per-level CSR rebuild it replaced.
  // One work item's G{U} on a removed-edge overlay, (a) constructed only and
  // (b) constructed + double-sweep traversed, view vs materialized; CSR
  // builds are counted through the GraphBuilder::total_builds test hook.
  Table e3e("E3e: zero-copy GraphView vs materialized live_subgraph "
            "(regular(4096,8), 5% removed overlay, |U| = 0.6n)",
            {"op", "reps", "wall ms", "ms/op", "CSR builds"});
  struct E3eStats {
    double mat_ms = 0.0, view_ms = 0.0;
    double mat_sweep_ms = 0.0, view_sweep_ms = 0.0;
    std::uint64_t mat_builds = 0, view_builds = 0;
    int reps = 0;
  } e3e_stats;
  {
    Rng rg = master.fork(51);
    const Graph g = gen::random_regular(4096, 8, rg);
    std::vector<char> removed(g.num_edges(), 0);
    for (EdgeId e = 0; e < g.num_edges(); ++e) {
      if (!g.is_loop(e) && rg.next_bool(0.05)) removed[e] = 1;
    }
    std::vector<VertexId> ids;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      if (rg.next_bool(0.6)) ids.push_back(v);
    }
    const VertexSet u(std::move(ids));
    const int reps = 200;
    e3e_stats.reps = reps;

    // Keep the compared work honest: both sides must agree on the measured
    // diameter (the work item's first real consumer of the subgraph).
    const std::uint32_t d_view =
        diameter_double_sweep(GraphView(g, &removed, u));
    const std::uint32_t d_mat =
        diameter_double_sweep(live_subgraph(g, removed, u).graph);
    XD_CHECK_MSG(d_view == d_mat, "view/materialized diameter diverged");

    const auto timed = [&](auto&& body, std::uint64_t& builds) {
      const std::uint64_t before = GraphBuilder::total_builds();
      const auto start = std::chrono::steady_clock::now();
      for (int r = 0; r < reps; ++r) body();
      const double ms = elapsed_ms(start);
      builds = GraphBuilder::total_builds() - before;
      return ms;
    };

    std::uint64_t sink = 0;
    std::uint64_t builds = 0;
    e3e_stats.mat_ms = timed(
        [&] { sink += live_subgraph(g, removed, u).graph.volume(); }, builds);
    e3e_stats.mat_builds = builds;
    e3e.add_row({"materialize", Table::cell(reps),
                 Table::cell(e3e_stats.mat_ms, 1),
                 Table::cell(e3e_stats.mat_ms / reps, 4),
                 Table::cell(e3e_stats.mat_builds)});

    e3e_stats.view_ms =
        timed([&] { sink += GraphView(g, &removed, u).volume(); }, builds);
    e3e_stats.view_builds = builds;
    e3e.add_row({"view", Table::cell(reps), Table::cell(e3e_stats.view_ms, 1),
                 Table::cell(e3e_stats.view_ms / reps, 4),
                 Table::cell(e3e_stats.view_builds)});

    e3e_stats.mat_sweep_ms = timed(
        [&] {
          sink += diameter_double_sweep(live_subgraph(g, removed, u).graph);
        },
        builds);
    e3e.add_row({"materialize+sweep", Table::cell(reps),
                 Table::cell(e3e_stats.mat_sweep_ms, 1),
                 Table::cell(e3e_stats.mat_sweep_ms / reps, 4),
                 Table::cell(builds)});

    e3e_stats.view_sweep_ms = timed(
        [&] { sink += diameter_double_sweep(GraphView(g, &removed, u)); },
        builds);
    e3e.add_row({"view+sweep", Table::cell(reps),
                 Table::cell(e3e_stats.view_sweep_ms, 1),
                 Table::cell(e3e_stats.view_sweep_ms / reps, 4),
                 Table::cell(builds)});
    e3e.print();
    XD_CHECK(sink != 0);  // keep the measured work observable
    std::cout << "construction speedup (materialize/view): "
              << e3e_stats.mat_ms / e3e_stats.view_ms
              << "x   with traversal: "
              << e3e_stats.mat_sweep_ms / e3e_stats.view_sweep_ms
              << "x   decomposition CSR builds (E3d sequential run): "
              << e3d_stats.seq_builds << "\n\n";
  }

  if (!json_path.empty()) {
    std::ofstream os(json_path);
    os << "{\n  \"graph\": \"dumbbell_expanders(240,240,4,2)\",\n"
       << "  \"n\": " << e3d_stats.n << ",\n"
       << "  \"m\": " << e3d_stats.m << ",\n"
       << "  \"sequential\": {\"rounds\": " << e3d_stats.seq_rounds
       << ", \"wall_ms\": " << e3d_stats.seq_ms
       << ", \"csr_builds\": " << e3d_stats.seq_builds << "},\n"
       << "  \"scheduler\": [\n";
    for (std::size_t i = 0; i < e3d_stats.points.size(); ++i) {
      os << "    {\"threads\": " << e3d_stats.points[i].threads
         << ", \"rounds\": " << e3d_stats.points[i].rounds
         << ", \"wall_ms\": " << e3d_stats.points[i].ms << "}"
         << (i + 1 < e3d_stats.points.size() ? "," : "") << "\n";
    }
    os << "  ],\n"
       << "  \"round_reduction\": "
       << (static_cast<double>(e3d_stats.seq_rounds) /
           static_cast<double>(e3d_stats.points.front().rounds))
       << ",\n  \"outputs_bit_identical\": true,\n"
       << "  \"view_overlay\": {\n"
       << "    \"graph\": \"random_regular(4096,8) + 5% removed, |U|=0.6n\",\n"
       << "    \"reps\": " << e3e_stats.reps << ",\n"
       << "    \"materialize_ms\": " << e3e_stats.mat_ms << ",\n"
       << "    \"view_ms\": " << e3e_stats.view_ms << ",\n"
       << "    \"construction_speedup\": "
       << e3e_stats.mat_ms / e3e_stats.view_ms << ",\n"
       << "    \"materialize_sweep_ms\": " << e3e_stats.mat_sweep_ms << ",\n"
       << "    \"view_sweep_ms\": " << e3e_stats.view_sweep_ms << ",\n"
       << "    \"sweep_speedup\": "
       << e3e_stats.mat_sweep_ms / e3e_stats.view_sweep_ms << ",\n"
       << "    \"materialize_csr_builds\": " << e3e_stats.mat_builds << ",\n"
       << "    \"view_csr_builds\": " << e3e_stats.view_builds << "\n"
       << "  }\n}\n";
    std::cerr << "wrote " << json_path << "\n";
  }
  return 0;
}
