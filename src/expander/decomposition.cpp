#include "expander/decomposition.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <utility>

#include "congest/network.hpp"
#include "congest/scheduler.hpp"
#include "graph/graph_view.hpp"
#include "graph/metrics.hpp"
#include "graph/subgraph.hpp"
#include "ldd/ldd.hpp"
#include "sparsecut/partition.hpp"
#include "util/check.hpp"

namespace xd::expander {

namespace {

/// One schedulable unit of decomposition work.  Items of an epoch are
/// vertex-disjoint, carry their own seed-split Rng, and never mutate shared
/// driver state -- their effects come back as an ItemResult that the driver
/// merges in item-index order at the epoch barrier.  That discipline is the
/// whole determinism argument: an item's computation depends only on its
/// own inputs, so neither the host thread running it nor the finish order
/// can change what it produces.
struct WorkItem {
  enum class Kind {
    kLdd,     ///< Phase 1 step 1: LDD the part, emit kCut per component
    kCut,     ///< Phase 1 step 2: sparse-cut one component
    kPhase2,  ///< the whole Phase 2 level loop for one entered component
  };
  Kind kind;
  std::vector<VertexId> u;
  std::uint32_t depth = 0;
  Rng rng{0};
};

/// Deferred effects of one work item, applied by the driver at the barrier.
/// `input` keeps the item's own vertex set so the εm budget guard can
/// finalize the part untouched when its removals no longer fit.
struct ItemResult {
  std::vector<VertexId> input;
  std::vector<std::pair<EdgeId, RemoveReason>> removals;
  std::vector<std::vector<VertexId>> finals;
  std::vector<WorkItem> children;
  std::uint64_t sparse_cut_calls = 0;
  std::uint64_t phase2_entries = 0;
  std::uint64_t singletons = 0;
  std::uint32_t depth_seen = 0;
};

/// Epoch-batched driver shared by the sequential and concurrent modes.
struct Driver {
  const Graph* g = nullptr;
  DecompositionParams prm;
  Schedule schedule;
  congest::RoundLedger* ledger = nullptr;

  std::vector<char> removed;               // ambient edge overlay
  std::vector<std::vector<VertexId>> finals;
  std::uint64_t removal_budget = 0;        // ⌊ε·|E|⌋, enforced at the barrier
  DecompositionResult* out = nullptr;

  std::uint64_t ambient_volume(const std::vector<VertexId>& ids) const {
    std::uint64_t vol = 0;
    for (VertexId v : ids) vol += g->degree(v);
    return vol;
  }

  void mark_removed(EdgeId ambient, RemoveReason reason) {
    XD_CHECK(!removed[ambient]);
    removed[ambient] = 1;
    ++out->removed_by[static_cast<int>(reason)];
  }

  void run(std::vector<VertexId> start, Rng top_rng);
  ItemResult run_item(WorkItem& item, congest::RoundLedger& lg) const;
  ItemResult run_ldd(WorkItem& item, congest::RoundLedger& lg) const;
  ItemResult run_cut(WorkItem& item, congest::RoundLedger& lg) const;
  ItemResult run_phase2(WorkItem& item, congest::RoundLedger& lg) const;
};

void Driver::run(std::vector<VertexId> start, Rng top_rng) {
  std::vector<WorkItem> epoch;
  epoch.push_back(
      WorkItem{WorkItem::Kind::kLdd, std::move(start), 0, top_rng});

  // Sequential mode charges the root ledger directly (components pay one
  // after another: rounds SUM).  Concurrent mode runs each epoch's items on
  // the host pool against forked ledger branches and joins them at the
  // barrier (components share the clock: rounds advance by the epoch MAX,
  // the composition the paper's Theorem 1/2 bounds assume).
  const bool concurrent = prm.scheduler_threads >= 1;
  const congest::EpochScheduler pool(concurrent ? prm.scheduler_threads : 1);

  while (!epoch.empty()) {
    ++out->epochs;
    std::vector<ItemResult> results(epoch.size());
    if (concurrent) {
      pool.run_forked(*ledger, epoch.size(),
                      [&](std::size_t i, congest::RoundLedger& lg) {
                        results[i] = run_item(epoch[i], lg);
                      });
    } else {
      for (std::size_t i = 0; i < epoch.size(); ++i) {
        results[i] = run_item(epoch[i], *ledger);
      }
    }

    // Barrier merge, in item-index order so ids and counters replay
    // identically at every thread count.  The εm budget guard lives here,
    // not in the items: items race on host threads and cannot see a shared
    // running total without breaking bit-identity, while the merge order is
    // the same at every thread count, so "which item hit the ceiling"
    // replays exactly.  A guarded item's work was still done (and charged),
    // so its sparse-cut calls and depth count; its effects are dropped.
    std::vector<WorkItem> next;
    for (auto& res : results) {
      out->sparse_cut_calls += res.sparse_cut_calls;
      out->max_phase1_depth = std::max(out->max_phase1_depth, res.depth_seen);
      if (out->total_removed() + res.removals.size() > removal_budget) {
        finals.push_back(std::move(res.input));
        ++out->guard_finalized;
        continue;
      }
      for (const auto& [ambient, reason] : res.removals) {
        mark_removed(ambient, reason);
      }
      for (auto& part : res.finals) finals.push_back(std::move(part));
      for (auto& child : res.children) next.push_back(std::move(child));
      out->phase2_entries += res.phase2_entries;
      out->singleton_components += res.singletons;
    }
    epoch = std::move(next);
  }
}

ItemResult Driver::run_item(WorkItem& item, congest::RoundLedger& lg) const {
  // The kind handlers consume item.u; keep a copy for the budget guard.
  std::vector<VertexId> input = item.u;
  ItemResult res;
  switch (item.kind) {
    case WorkItem::Kind::kLdd:
      res = run_ldd(item, lg);
      break;
    case WorkItem::Kind::kCut:
      res = run_cut(item, lg);
      break;
    case WorkItem::Kind::kPhase2:
      res = run_phase2(item, lg);
      break;
  }
  res.input = std::move(input);
  return res;
}

// Phase 1, step 1: LDD on G{U}; Remove-1 its cut edges; one kCut child per
// surviving component.
ItemResult Driver::run_ldd(WorkItem& item, congest::RoundLedger& lg) const {
  ItemResult res;
  res.depth_seen = item.depth;
  std::vector<VertexId>& u = item.u;
  if (u.size() <= 1) {
    res.finals.push_back(std::move(u));
    return res;
  }
  if (item.depth > schedule.d) {
    // Lemma 1 proves this cannot happen with the paper constants; with
    // practical constants it is a stopgap, and the affected part simply
    // becomes final (costing conductance quality, never correctness of the
    // partition).
    res.finals.push_back(std::move(u));
    return res;
  }

  // Practical preset skips the call when the part's measured diameter
  // already meets the O(log²n/β²) bound LDD guarantees -- the LDD is then
  // a no-op by its own contract (it may legally cut nothing), and the
  // 2 ln n / β MPX epochs are saved.  Paper mode always runs it, so only
  // the practical probe pays for the zero-copy overlay (whose construction
  // scan nothing in the materialized path would read).
  const double logn = std::log(std::max<double>(g->num_vertices(), 2));
  const double ldd_diameter_bound =
      150.0 * logn * logn / (schedule.beta * schedule.beta);
  std::optional<GraphView> live;
  if (prm.preset != Preset::kPaper) {
    live.emplace(*g, &removed, VertexSet(u));
  }
  const bool run_ldd_call =
      !live ||
      static_cast<double>(diameter_double_sweep(*live)) > ldd_diameter_bound;

  std::vector<std::vector<VertexId>> comps;
  if (run_ldd_call) {
    // The CONGEST kernel wants a dense renumbering (per-vertex inbox
    // arrays, slot-keyed congestion): the one place Phase 1 still pays for
    // a materialized G{U}.
    const LiveSubgraph mat =
        live ? live->materialize() : live_subgraph(*g, removed, VertexSet(u));
    ldd::LddParams ldd_prm;
    ldd_prm.beta = schedule.beta;
    ldd_prm.K = prm.ldd_K;
    congest::Network net(mat.graph, lg, item.rng());
    const ldd::LddResult ldd_res =
        ldd::low_diameter_decomposition(net, ldd_prm, item.rng);
    for (EdgeId e = 0; e < mat.graph.num_edges(); ++e) {
      if (ldd_res.cut_edge[e]) {
        const EdgeId parent = mat.edge_to_parent[e];
        XD_CHECK(parent != LiveSubgraph::kNoEdge);
        res.removals.emplace_back(parent, RemoveReason::kLdd);
      }
    }
    comps.resize(ldd_res.num_components);
    for (VertexId lv = 0; lv < mat.graph.num_vertices(); ++lv) {
      comps[ldd_res.component[lv]].push_back(mat.to_parent[lv]);
    }
  } else {
    auto [comp, count] = connected_components(*live);
    comps.resize(count);
    for (const VertexId v : live->vertices()) {
      comps[comp[v]].push_back(v);
    }
  }

  // Each surviving component becomes a sparse-cut item of the next epoch,
  // with its own stream split off this item's (fork does not advance the
  // parent, and child ids only count scheduled children, so the split is a
  // pure function of the item's deterministic computation).
  std::uint64_t child_id = 0;
  for (auto& comp : comps) {
    if (comp.empty()) continue;
    if (comp.size() == 1) {
      res.finals.push_back(std::move(comp));
      continue;
    }
    res.children.push_back(WorkItem{WorkItem::Kind::kCut, std::move(comp),
                                    item.depth, item.rng.fork(child_id++)});
  }
  return res;
}

// Phase 1, step 2 for one component: nearly most balanced sparse cut, then
// finalize / enter Phase 2 / Remove-2 and recurse.
ItemResult Driver::run_cut(WorkItem& item, congest::RoundLedger& lg) const {
  ItemResult res;
  res.depth_seen = item.depth;
  std::vector<VertexId>& comp = item.u;
  // The whole sparse-cut stack (Partition -> ParallelNibble -> Nibble) runs
  // on the zero-copy overlay; the cut comes back in ambient ids.
  const GraphView comp_live(*g, &removed, VertexSet(comp));
  if (comp_live.volume() == 0) {
    res.finals.push_back(std::move(comp));
    return res;
  }
  ++res.sparse_cut_calls;
  const auto diameter = diameter_double_sweep(comp_live);
  const auto cut_res = sparsecut::nearly_most_balanced_sparse_cut(
      comp_live, schedule.phi[0], prm.preset, item.rng, lg, diameter,
      prm.thorough_partition);

  if (!cut_res.found()) {
    res.finals.push_back(std::move(comp));  // certified: Φ(G{U}) >= φ₀ (whp)
    return res;
  }
  const std::uint64_t vol_u = comp_live.volume();
  const std::uint64_t vol_c = volume(comp_live, cut_res.cut);
  // Phase-2 entry (Step 2b).  The paper's ε/12 threshold composes with
  // Theorem 3's bal >= min{b/2, 1/48} only when ε <= 1/4; the min keeps
  // the Lemma 2 argument valid for every ε in (0, 1).
  const double entry = std::min(prm.epsilon / 12.0, 1.0 / 48.0);
  if (static_cast<double>(vol_c) <= entry * static_cast<double>(vol_u)) {
    ++res.phase2_entries;
    // Cut edges intentionally kept (Step 2b); the Phase 2 loop inherits
    // this item's stream.
    res.children.push_back(WorkItem{WorkItem::Kind::kPhase2, std::move(comp),
                                    item.depth, item.rng});
    return res;
  }

  // Step 2c: Remove-2 the cut edges, recurse on both sides.  Live-edge
  // iteration visits surviving edges in the same order a materialized copy
  // numbers them, so the removal log replays identically.
  const auto in_cut = cut_res.cut.bitmap(g->num_vertices());
  comp_live.for_each_live_edge([&](EdgeId ambient, VertexId x, VertexId y) {
    if (in_cut[x] != in_cut[y]) {
      res.removals.emplace_back(ambient, RemoveReason::kSparseCut);
    }
  });
  std::vector<VertexId> side_c, side_rest;
  for (const VertexId v : comp_live.vertices()) {
    (in_cut[v] ? side_c : side_rest).push_back(v);
  }
  res.children.push_back(WorkItem{WorkItem::Kind::kLdd, std::move(side_c),
                                  item.depth + 1, item.rng.fork(0)});
  res.children.push_back(WorkItem{WorkItem::Kind::kLdd, std::move(side_rest),
                                  item.depth + 1, item.rng.fork(1)});
  return res;
}

// Phase 2: the level schedule with Remove-3 rip-outs, sequential within one
// entered component (the loop's state genuinely chains), concurrent across
// components.  The item works against a private copy of the removal overlay
// because its own rip-outs must be visible to its next iteration; only its
// component's edges differ from the shared snapshot.
ItemResult Driver::run_phase2(WorkItem& item, congest::RoundLedger& lg) const {
  ItemResult res;
  res.depth_seen = item.depth;
  std::vector<VertexId> u = std::move(item.u);
  std::vector<char> local_removed = removed;
  const auto rip = [&](EdgeId ambient) {
    XD_CHECK(!local_removed[ambient]);
    local_removed[ambient] = 1;
    res.removals.emplace_back(ambient, RemoveReason::kRipOut);
  };

  const std::uint64_t vol_u = ambient_volume(u);
  XD_CHECK(vol_u > 0);
  const double m1 = (prm.epsilon / 6.0) * static_cast<double>(vol_u);
  const double tau = std::pow(m1, 1.0 / static_cast<double>(prm.k));

  // Communication uses all of G* = G{U}; its diameter bounds the O(D) terms
  // for every sparse-cut call in this phase (paper, end of §2).
  const std::uint32_t diameter =
      diameter_double_sweep(GraphView(*g, &local_removed, VertexSet(u)));

  int level = 1;
  std::vector<VertexId> uprime = std::move(u);
  // Per-level iteration guard: the paper bounds each level by 2τ rounds of
  // the loop; the +2 absorbs rounding with practical constants.
  const auto level_budget =
      static_cast<std::uint64_t>(std::ceil(2.0 * tau)) + 2;
  std::uint64_t level_iterations = 0;
  // Lemma 2 invariant: the total volume ripped out in Phase 2 is at most
  // m₁ = (ε/6) Vol(U).  Paper constants guarantee it; practical constants
  // enforce it as a hard stop so one mis-balanced cut cannot cascade.
  std::uint64_t ripped_volume = 0;

  while (true) {
    if (uprime.empty()) return res;
    // The per-level G{U'} is the view overlay that used to be the dominant
    // rebuild cost: one fresh CSR per level iteration, now one O(Vol) scan.
    const GraphView live(*g, &local_removed, VertexSet(uprime));
    if (live.volume() == 0 || uprime.size() == 1) {
      res.finals.push_back(std::move(uprime));
      return res;
    }
    ++res.sparse_cut_calls;
    const auto cut_res = sparsecut::nearly_most_balanced_sparse_cut(
        live, schedule.phi[static_cast<std::size_t>(level)], prm.preset,
        item.rng, lg, diameter, prm.thorough_partition);
    if (!cut_res.found()) {
      res.finals.push_back(std::move(uprime));
      return res;
    }

    const std::uint64_t vol_c = volume(live, cut_res.cut);
    const double m_level = m1 / std::pow(tau, level - 1);
    if (static_cast<double>(vol_c) <= m_level / (2.0 * tau)) {
      ++level;
      level_iterations = 0;
      if (level > prm.k) {
        // Impossible with the paper identity m_k/(2τ) = 1/2 < Vol(C);
        // practical guard only.
        res.finals.push_back(std::move(uprime));
        return res;
      }
      continue;
    }

    if (++level_iterations > level_budget) {
      res.finals.push_back(std::move(uprime));  // practical guard
      return res;
    }
    if (static_cast<double>(ripped_volume + vol_c) > m1) {
      res.finals.push_back(std::move(uprime));  // Lemma 2 hard stop
      return res;
    }
    ripped_volume += vol_c;

    // Remove-3: every edge incident to C goes; C's vertices become
    // singleton components.  Collect first, then rip: the view reads the
    // overlay lazily, so mutating it mid-iteration would change what
    // "live" means for the slots not yet visited.
    const auto in_cut = cut_res.cut.bitmap(g->num_vertices());
    std::vector<EdgeId> to_rip;
    live.for_each_live_edge([&](EdgeId ambient, VertexId x, VertexId y) {
      if (in_cut[x] || in_cut[y]) to_rip.push_back(ambient);
    });
    for (const EdgeId ambient : to_rip) rip(ambient);
    std::vector<VertexId> rest;
    for (const VertexId pv : live.vertices()) {
      if (in_cut[pv]) {
        ++res.singletons;
        res.finals.push_back({pv});
      } else {
        rest.push_back(pv);
      }
    }
    uprime = std::move(rest);
  }
}

/// Final assembly: splits every finalized part into its connected
/// components on the removed-edge overlay (a final part can be
/// disconnected via the practical guards), assigns dense ids in finals
/// order, and checks the partition covers V exactly once.
void assemble_components(const Graph& g, const std::vector<char>& removed,
                         const std::vector<std::vector<VertexId>>& finals,
                         DecompositionResult& out) {
  // Assemble component ids; every vertex must appear exactly once.
  out.component.assign(g.num_vertices(), static_cast<std::uint32_t>(-1));
  std::uint32_t next_id = 0;
  for (const auto& ids : finals) {
    // A final part can still be disconnected (e.g. the depth guard); split
    // it so components are genuinely connected in the remaining graph --
    // on the view overlay, where removed edges read as loops and are never
    // traversed.
    const GraphView live(g, &removed, VertexSet(ids));
    auto [comp, count] = connected_components(live);
    std::vector<std::uint32_t> local_to_global(count,
                                               static_cast<std::uint32_t>(-1));
    for (const VertexId pv : live.vertices()) {
      auto& slot = local_to_global[comp[pv]];
      if (slot == static_cast<std::uint32_t>(-1)) slot = next_id++;
      XD_CHECK_MSG(out.component[pv] == static_cast<std::uint32_t>(-1),
                   "vertex " << pv << " assigned twice");
      out.component[pv] = slot;
    }
    if (live.num_active() == 0 && !ids.empty()) {
      // Degenerate: isolated final ids (an empty active set cannot happen
      // for non-empty ids, but keep the invariant airtight).
      for (VertexId pv : ids) out.component[pv] = next_id++;
    }
  }
  out.num_components = next_id;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    XD_CHECK_MSG(out.component[v] != static_cast<std::uint32_t>(-1),
                 "vertex " << v << " missing from the decomposition");
  }
}

}  // namespace

DecompositionResult expander_decomposition(const Graph& g,
                                           const DecompositionParams& prm,
                                           Rng& rng,
                                           congest::RoundLedger& ledger) {
  XD_CHECK(g.num_vertices() >= 2);
  DecompositionResult out;
  out.schedule = derive_schedule(prm, g.num_vertices(),
                                 std::max<std::size_t>(g.num_edges(), 1),
                                 std::max<std::uint64_t>(g.volume(), 1));
  out.removed_edge.assign(g.num_edges(), 0);

  const std::uint64_t rounds_before = ledger.rounds();

  Driver driver;
  driver.g = &g;
  driver.prm = prm;
  driver.schedule = out.schedule;
  driver.ledger = &ledger;
  driver.removed.assign(g.num_edges(), 0);
  driver.removal_budget = static_cast<std::uint64_t>(
      prm.epsilon * static_cast<double>(g.num_edges()));
  driver.out = &out;

  // Isolated vertices are their own components; everything else enters
  // Phase 1 as one part (the LDD splits disconnected inputs for free).
  std::vector<VertexId> start;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (g.degree(v) == 0) {
      driver.finals.push_back({v});
    } else {
      start.push_back(v);
    }
  }
  // One draw seeds the driver's item streams, so back-to-back calls on the
  // same caller Rng (e.g. the triangle recursion's levels) diverge.
  const Rng top_rng(rng());
  if (!start.empty()) driver.run(std::move(start), top_rng);

  out.removed_edge = driver.removed;
  out.rounds = ledger.rounds() - rounds_before;

  assemble_components(g, driver.removed, driver.finals, out);
  return out;
}

}  // namespace xd::expander
