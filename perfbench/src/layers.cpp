// The traced layer pass.  prepare_artifact is one opaque call, so the
// traced run also calls each layer's public entry point on its own, on the
// workload's first instance, to split the build into layers:
//
//   serve.prepare_s ~= expander.decomp_s + triangle.enum_s
//                      + serve.prepare_rest_s
//
// because prepare_artifact decomposes once for DCMP and enumerate_congest
// decomposes again at level 0.  The replay below makes exactly those two
// calls on one ledger; expander.replay_matches_prepare reports whether
// its rounds, messages, DCMP and triangles equal the artifact's.

#include <algorithm>

#include "bench.hpp"
#include "congest/network.hpp"
#include "expander/cross_check.hpp"
#include "expander/decomposition.hpp"
#include "ldd/ldd.hpp"
#include "serve_loop.hpp"
#include "sparsecut/nibble_params.hpp"
#include "sparsecut/partition.hpp"
#include "spectral/lazy_walk.hpp"
#include "triangle/baseline_local.hpp"
#include "triangle/enumerate.hpp"
#include "triangle/intersect.hpp"

namespace perfbench {

namespace {

constexpr int kWalkSeeds = 4;
constexpr int kRelayPasses = 21;
constexpr double kServeLayerSeconds = 1.0;  ///< per service configuration

double as_count(std::uint64_t v) { return static_cast<double>(v); }

/// congest.rounds.<label>, with the ledger label's '/' written as '.'.
std::string congest_metric(const std::string& ledger_label) {
  std::string name = "congest.rounds." + ledger_label;
  std::replace(name.begin(), name.end(), '/', '.');
  return name;
}

}  // namespace

void layer_pass(const Instance& inst, const xd::serve::PreparedArtifact& art,
                std::size_t block, Tracer& tracer, Metrics& m) {
  namespace ex = xd::expander;
  const xd::Graph& g = inst.graph;
  const xd::serve::PrepareParams& pp = inst.prepare;
  const ex::DecompositionParams dprm = decomposition_params(pp);
  const ex::Schedule sched =
      ex::derive_schedule(dprm, g.num_vertices(), g.num_edges(), g.volume());

  // --- expander + triangle: replay prepare_artifact's two passes. ---
  xd::congest::RoundLedger ledger;
  ex::DecompositionResult decomp;
  {
    const auto span = tracer.span("expander.decomposition");
    xd::Rng rng = xd::Rng(pp.seed).fork(0xD5C0);
    decomp = ex::expander_decomposition(g, dprm, rng, ledger);
  }
  xd::triangle::CongestEnumResult enumed;
  {
    const auto span = tracer.span("triangle.enumerate_congest");
    xd::Rng rng(pp.seed);
    enumed = xd::triangle::enumerate_congest(g, pp.enumerate, rng, ledger);
  }
  const bool replay_ok =
      ledger.rounds() == art.build_rounds &&
      ledger.messages() == art.build_messages &&
      ex::partition_fingerprint(decomp) ==
          ex::partition_fingerprint(dcmp_of(art)) &&
      enumed.triangles == art.triangles;

  ex::DecompositionResult decomp_t1;
  {
    const auto span = tracer.span("expander.decomposition_t1");
    ex::DecompositionParams one = dprm;
    one.scheduler_threads = 1;
    xd::congest::RoundLedger own_ledger;
    xd::Rng rng = xd::Rng(pp.seed).fork(0xD5C0);
    decomp_t1 = ex::expander_decomposition(g, one, rng, own_ledger);
  }
  {
    const auto span = tracer.span("serve.prepare_artifact.layer");
    const auto again = xd::serve::prepare_artifact(g, pp);
  }

  const double decomp_s = tracer.total("expander.decomposition");
  const double enum_s = tracer.total("triangle.enumerate_congest");
  const double prepare_s = tracer.total("serve.prepare_artifact.layer");
  m.set("expander.decomp_s", decomp_s, "s");
  m.set("expander.decomp_s_t1", tracer.total("expander.decomposition_t1"),
        "s");
  m.set("expander.epochs", as_count(decomp.epochs), "count");
  m.set("expander.components", as_count(decomp.num_components), "count");
  m.set("expander.sparse_cut_calls", as_count(decomp.sparse_cut_calls),
        "count");
  m.set("expander.phase2_entries", as_count(decomp.phase2_entries), "count");
  m.set("expander.removed_ldd", as_count(decomp.removed_by[0]), "edges");
  m.set("expander.removed_cut", as_count(decomp.removed_by[1]), "edges");
  m.set("expander.removed_ripout", as_count(decomp.removed_by[2]), "edges");
  m.set("expander.replay_matches_prepare", replay_ok ? 1.0 : 0.0, "bool");
  m.set("expander.thread_invariant",
        ex::partition_fingerprint(decomp_t1) == ex::partition_fingerprint(decomp)
            ? 1.0
            : 0.0,
        "bool");
  m.set("serve.prepare_s", prepare_s, "s");
  m.set("serve.prepare_rest_s", prepare_s - decomp_s - enum_s, "s");

  for (const auto& [label, rounds] : ledger.breakdown()) {
    m.set(congest_metric(label), as_count(rounds), "rounds");
  }
  m.set("congest.messages", as_count(ledger.messages()), "count");

  m.set("triangle.enum_s", enum_s, "s");
  m.set("triangle.enum_rounds", as_count(enumed.rounds), "rounds");
  m.set("triangle.levels", static_cast<double>(enumed.levels), "count");
  m.set("triangle.clusters", as_count(enumed.clusters_processed), "count");
  m.set("triangle.router_queries", as_count(enumed.router_queries), "count");

  // --- triangle kernels: the calling thread's counters around the local
  // baseline, which joins on this thread. ---
  namespace is = xd::triangle::intersect;
  is::reset_thread_stats();
  {
    const auto span = tracer.span("triangle.local_baseline.layer");
    xd::congest::RoundLedger own_ledger;
    const auto base = xd::triangle::enumerate_local_baseline(g, own_ledger);
  }
  const is::KernelStats stats = is::stats_for_thread();
  m.set("triangle.baseline_s", tracer.total("triangle.local_baseline.layer"),
        "s");
  for (const is::Kernel k :
       {is::Kernel::kScalar, is::Kernel::kMerge, is::Kernel::kBitmap}) {
    const std::string base = std::string("triangle.kernel.") +
                             is::kernel_name(k);
    m.set(base + ".calls", as_count(stats.of(k).calls), "count");
    m.set(base + ".elements", as_count(stats.of(k).elements), "count");
  }

  // --- ldd: Theorem 4 at the schedule's beta. ---
  {
    xd::congest::RoundLedger own_ledger;
    xd::congest::Network net(g, own_ledger, pp.seed);
    xd::ldd::LddParams lp;
    lp.beta = sched.beta;
    lp.K = dprm.ldd_K;
    xd::Rng rng = xd::Rng(pp.seed).fork(0x1DD);
    xd::ldd::LddResult res;
    {
      const auto span = tracer.span("ldd.low_diameter_decomposition");
      res = xd::ldd::low_diameter_decomposition(net, lp, rng);
    }
    m.set("ldd.s", tracer.total("ldd.low_diameter_decomposition"), "s");
    m.set("ldd.rounds", as_count(res.rounds), "rounds");
  }

  // --- sparsecut: Theorem 3 on the whole graph at phi_0. ---
  {
    xd::congest::RoundLedger own_ledger;
    xd::Rng rng = xd::Rng(pp.seed).fork(0x5C07);
    xd::sparsecut::PartitionResult res;
    {
      const auto span = tracer.span("sparsecut.nearly_most_balanced_sparse_cut");
      res = xd::sparsecut::nearly_most_balanced_sparse_cut(
          g, sched.phi.front(), dprm.preset, rng, own_ledger);
    }
    m.set("sparsecut.s",
          tracer.total("sparsecut.nearly_most_balanced_sparse_cut"), "s");
    m.set("sparsecut.rounds", as_count(res.rounds), "rounds");
  }

  // --- spectral: truncated walks from fixed seed vertices, with Nibble's
  // practical length and RandomNibble's scale distribution. ---
  {
    const auto np = xd::sparsecut::NibbleParams::practical(
        sched.phi.front(), g.num_edges(), g.volume());
    xd::Rng rng = xd::Rng(pp.seed).fork(0xA1C);
    std::uint64_t support = 0;
    for (int w = 0; w < kWalkSeeds; ++w) {
      const auto v = static_cast<xd::VertexId>(rng.next_below(g.num_vertices()));
      const double eps = np.eps_b(rng.next_nibble_scale(np.ell));
      const auto span = tracer.span("spectral.truncated_walk");
      for (const auto& d : xd::spectral::truncated_walk(g, v, np.t0, eps)) {
        support += d.size();
      }
    }
    m.set("spectral.walk_s", tracer.total("spectral.truncated_walk"), "s");
    m.set("spectral.walk_support", as_count(support), "entries");
  }

  // --- routing, and the service at one and at four threads. ---
  const QueryPool pool = make_query_pool(art, block, pp.seed);
  {
    std::vector<double> passes;
    std::vector<xd::VertexId> path;
    std::uint64_t hops = 0;
    for (int p = 0; p < kRelayPasses; ++p) {
      const auto t0 = Clock::now();
      for (const auto& q : pool.queries) {
        if (q.kind != xd::serve::QueryKind::kRoute) continue;
        path.clear();
        if (art.relay_path(q.a, q.b, path)) hops += path.size() - 1;
      }
      passes.push_back(seconds_since(t0));
    }
    m.set("routing.relay_path_s", median(passes), "s");
    m.set("routing.relay_hops", as_count(hops / kRelayPasses), "count");
  }
  tracer.set_recording(false);
  std::vector<char> pool_failed(pool.queries.size(), 0);
  LatencySample latency_t1;
  const LoopStats t1 = closed_loop(art, pool, 1, kServeLayerSeconds, tracer,
                                   latency_t1, pool_failed);
  LatencySample latency_t4;
  const LoopStats t4 = closed_loop(art, pool, 4, kServeLayerSeconds, tracer,
                                   latency_t4, pool_failed);
  tracer.set_recording(true);
  m.set("serve.qps_t1", t1.qps(), "1/s");
  m.set("serve.qps_t4", t4.qps(), "1/s");
  m.set("serve.p99_us_t4", percentile(latency_t4.values(), 0.99), "us");
}

}  // namespace perfbench
