#include "triangle/enumerate.hpp"

#include <algorithm>
#include <cmath>
#include <memory>

#include "congest/network.hpp"
#include "congest/scheduler.hpp"
#include "expander/decomposition.hpp"
#include "graph/graph_view.hpp"
#include "graph/metrics.hpp"
#include "graph/subgraph.hpp"
#include "routing/hierarchical_router.hpp"
#include "routing/simulated_router.hpp"
#include "routing/tree_router.hpp"
#include "triangle/cluster_enum.hpp"
#include "util/check.hpp"

namespace xd::triangle {

namespace {

/// Builds the subgraph induced by an edge subset (vertices = endpoints).
struct EdgeSubgraph {
  Graph graph;
  std::vector<VertexId> to_parent;
  std::vector<VertexId> from_parent;
  std::vector<EdgeId> edge_to_parent;
};

EdgeSubgraph subgraph_of_edges(const Graph& g, const std::vector<EdgeId>& edges) {
  EdgeSubgraph out;
  out.from_parent.assign(g.num_vertices(), static_cast<VertexId>(-1));
  out.to_parent.reserve(std::min<std::size_t>(2 * edges.size(), g.num_vertices()));
  out.edge_to_parent.reserve(edges.size());
  // One pass over the edge list: assign local ids at first sight and record
  // each edge's local endpoints for the builder.
  std::vector<std::pair<VertexId, VertexId>> local_edges;
  local_edges.reserve(edges.size());
  for (const EdgeId e : edges) {
    const auto [u, v] = g.edge(e);
    for (const VertexId x : {u, v}) {
      if (out.from_parent[x] == static_cast<VertexId>(-1)) {
        out.from_parent[x] = static_cast<VertexId>(out.to_parent.size());
        out.to_parent.push_back(x);
      }
    }
    local_edges.emplace_back(out.from_parent[u], out.from_parent[v]);
    out.edge_to_parent.push_back(e);
  }
  GraphBuilder b(out.to_parent.size(), /*allow_parallel=*/true);
  for (const auto& [lu, lv] : local_edges) b.add_edge(lu, lv);
  out.graph = b.build();
  return out;
}

/// Merges a level's (unsorted concatenation of per-cluster sorted) batch
/// into the running sorted, deduplicated triangle list -- the flat
/// replacement for the seed's global std::set.
void merge_triangles(std::vector<Triangle>& found, std::vector<Triangle>& batch) {
  std::sort(batch.begin(), batch.end());
  const auto mid = static_cast<std::ptrdiff_t>(found.size());
  found.insert(found.end(), batch.begin(), batch.end());
  std::inplace_merge(found.begin(), found.begin() + mid, found.end());
  found.erase(std::unique(found.begin(), found.end()), found.end());
}

}  // namespace

CongestEnumResult enumerate_congest(const Graph& g, const EnumParams& prm,
                                    Rng& rng, congest::RoundLedger& ledger) {
  XD_CHECK(prm.epsilon > 0 && prm.epsilon <= 1.0 / 6.0 + 1e-12);
  CongestEnumResult out;
  const std::uint64_t before = ledger.rounds();

  const auto p_global = static_cast<std::uint32_t>(std::max(
      1.0, std::ceil(std::cbrt(static_cast<double>(g.num_vertices())))));

  std::vector<Triangle> found;  // sorted + deduplicated between levels
  std::vector<EdgeId> current;
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    if (!g.is_loop(e)) current.push_back(e);
  }

  for (int level = 0; level < prm.max_levels && current.size() >= 3; ++level) {
    out.levels = level + 1;
    const EdgeSubgraph sub = subgraph_of_edges(g, current);

    // --- 1. Expander decomposition of the surviving subgraph. ---
    expander::DecompositionParams dprm;
    dprm.epsilon = prm.epsilon;
    dprm.k = prm.k;
    dprm.phi0_override = prm.phi0_override;
    dprm.scheduler_threads = prm.scheduler_threads;
    const auto decomp = expander_decomposition(sub.graph, dprm, rng, ledger);

    // Per-level random group assignment over ambient vertex ids.
    std::vector<std::uint32_t> groups(g.num_vertices(), 0);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      groups[v] = static_cast<std::uint32_t>(rng.next_below(p_global));
    }

    // --- 2+3. Per-cluster routing structure and enumeration. ---
    std::vector<std::vector<VertexId>> members(decomp.num_components);
    for (VertexId lv = 0; lv < sub.graph.num_vertices(); ++lv) {
      members[decomp.component[lv]].push_back(lv);
    }
    // Cluster id per ambient vertex (kNone when not in this level's
    // subgraph).
    std::vector<std::uint32_t> cluster_of(g.num_vertices(),
                                          static_cast<std::uint32_t>(-1));
    for (VertexId lv = 0; lv < sub.graph.num_vertices(); ++lv) {
      cluster_of[sub.to_parent[lv]] = decomp.component[lv];
    }

    // E_i lists (ambient edge ids) per cluster; an edge with endpoints in
    // two clusters joins both lists.
    std::vector<std::vector<EdgeId>> cluster_edges(decomp.num_components);
    std::vector<EdgeId> estar;
    for (const EdgeId e : current) {
      const auto [u, v] = g.edge(e);
      const std::uint32_t cu = cluster_of[u];
      const std::uint32_t cv = cluster_of[v];
      if (cu == cv) {
        cluster_edges[cu].push_back(e);
      } else {
        cluster_edges[cu].push_back(e);
        cluster_edges[cv].push_back(e);
        estar.push_back(e);
      }
    }

    // Collect the level's non-trivial clusters into one scheduler epoch.
    // Every item reads only level-shared immutable state (sub, decomp,
    // groups, cluster_edges) plus its own pre-split Rng, so results are
    // bit-identical whether the epoch runs sequentially or on any number
    // of host threads; outputs merge in cluster order below.
    std::vector<std::uint32_t> todo;
    for (std::uint32_t c = 0; c < decomp.num_components; ++c) {
      if (!cluster_edges[c].empty() && !members[c].empty()) todo.push_back(c);
    }
    struct ClusterOut {
      std::vector<Triangle> tris;
      std::uint64_t queries = 0;
    };
    std::vector<Rng> item_rngs;
    item_rngs.reserve(todo.size());
    for (const std::uint32_t c : todo) item_rngs.push_back(rng.fork(c));

    const auto run_cluster = [&](std::uint32_t c, Rng& crng,
                                 congest::RoundLedger& lg) {
      ClusterOut res;

      // Cluster slice as a zero-copy view over the level subgraph.  Every
      // branch below hands the cluster to a router, and routers are the
      // materialization boundary (they renumber densely), so the CSR is
      // still built exactly once per cluster via materialize_induced();
      // the view contributes the edge counts that pick the branch.
      std::vector<VertexId> ambient_members;
      ambient_members.reserve(members[c].size());
      for (const VertexId lv : members[c]) {
        ambient_members.push_back(sub.to_parent[lv]);
      }
      const GraphView cluster_view(sub.graph, nullptr, VertexSet(members[c]));
      const LiveSubgraph cluster_sub = cluster_view.materialize_induced();

      // Membership and ambient->local ids live in the worker thread's
      // stamped arena: an O(1) epoch bump replaces the seed's two O(n)
      // vectors per cluster.
      auto& scratch = TriangleScratch::for_thread();
      scratch.to_local.begin_epoch(g.num_vertices());
      for (std::size_t i = 0; i < ambient_members.size(); ++i) {
        scratch.to_local.put(ambient_members[i], static_cast<VertexId>(i));
      }

      if (cluster_view.num_nonloop_edges() == 0 ||
          ambient_members.size() == 1) {
        // Single vertex or edgeless cluster: its E_i edges all touch one
        // vertex, which can join them locally (deg(v) messages over its
        // own edges -- absorbed into one query charge).
        lg.charge(1, "Triangle/tiny-cluster");
        std::unique_ptr<routing::Router> no_router;
        // Local join without routing.
        routing::HierarchicalParams hp;
        hp.depth = prm.router_depth;
        hp.tau_mix = 1;
        routing::HierarchicalRouter local(cluster_sub.graph, lg, hp);
        local.preprocess();
        res.tris = enumerate_cluster(g, cluster_edges[c], groups, p_global,
                                     local, ambient_members, scratch);
        res.queries = local.queries();
      } else if (prm.backend == RouterBackend::kCharged) {
        routing::HierarchicalParams hp;
        hp.depth = prm.router_depth;
        routing::HierarchicalRouter router(cluster_sub.graph, lg, hp);
        router.preprocess();
        res.tris = enumerate_cluster(g, cluster_edges[c], groups, p_global,
                                     router, ambient_members, scratch);
        res.queries = router.queries();
      } else if (prm.backend == RouterBackend::kTree) {
        congest::Network cluster_net(cluster_sub.graph, lg, crng());
        routing::TreeRouter router(cluster_net);
        router.preprocess();
        res.tris = enumerate_cluster(g, cluster_edges[c], groups, p_global,
                                     router, ambient_members, scratch);
        res.queries = router.queries();
      } else {
        congest::Network cluster_net(cluster_sub.graph, lg, crng());
        routing::SimulatedHierarchicalParams sp;
        sp.depth = prm.router_depth;
        routing::SimulatedHierarchicalRouter router(cluster_net, sp);
        router.preprocess();
        res.tris = enumerate_cluster(g, cluster_edges[c], groups, p_global,
                                     router, ambient_members, scratch);
        res.queries = router.queries();
      }
      return res;
    };

    // Concurrent clusters share the clock: forked branches join by max.
    std::vector<ClusterOut> cluster_out(todo.size());
    congest::EpochScheduler::run_epoch(
        prm.scheduler_threads, ledger, todo.size(),
        [&](std::size_t i, congest::RoundLedger& lg) {
          cluster_out[i] = run_cluster(todo[i], item_rngs[i], lg);
        });
    // Each cluster's output is already sorted; one merge per level folds
    // them into the running list (no per-triangle std::set node churn).
    std::vector<Triangle> level_tris;
    for (std::size_t i = 0; i < todo.size(); ++i) {
      ++out.clusters_processed;
      out.router_queries += cluster_out[i].queries;
      level_tris.insert(level_tris.end(), cluster_out[i].tris.begin(),
                        cluster_out[i].tris.end());
    }
    merge_triangles(found, level_tris);

    // --- 4. Recurse on E*. ---
    if (estar.size() >= current.size()) {
      // No shrink (pathological split): finish the remainder as one
      // cluster to guarantee termination.
      const EdgeSubgraph rest = subgraph_of_edges(g, estar);
      auto& scratch = TriangleScratch::for_thread();
      scratch.to_local.begin_epoch(g.num_vertices());
      std::vector<VertexId> ambient_members;
      ambient_members.reserve(rest.to_parent.size());
      for (std::size_t i = 0; i < rest.to_parent.size(); ++i) {
        scratch.to_local.put(rest.to_parent[i], static_cast<VertexId>(i));
        ambient_members.push_back(rest.to_parent[i]);
      }
      routing::HierarchicalParams hp;
      hp.depth = prm.router_depth;
      hp.tau_mix = std::max<std::uint32_t>(diameter_double_sweep(rest.graph), 1);
      routing::HierarchicalRouter router(rest.graph, ledger, hp);
      router.preprocess();
      auto tris = enumerate_cluster(g, estar, groups, p_global, router,
                                    ambient_members, scratch);
      merge_triangles(found, tris);
      out.router_queries += router.queries();
      current.clear();
      break;
    }
    current = std::move(estar);
  }

  out.triangles = std::move(found);
  out.rounds = ledger.rounds() - before;
  return out;
}

}  // namespace xd::triangle
