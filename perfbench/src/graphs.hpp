#pragma once

// Planted-partition graphs for the benchmark, generated in O(m).
//
// The library's gen::planted_partition tests every vertex pair (O(n^2));
// this generator draws each block's G(b, p_in) by geometric skipping
// (Batagelj & Brandes) and then adds a fixed share of inter-block edges,
// deduplicated through a hash set, so GraphBuilder never sees a parallel
// edge.  The library receives only the finished Graph.

#include <cmath>
#include <cstdint>
#include <unordered_set>
#include <utility>

#include "graph/graph.hpp"
#include "util/rng.hpp"

namespace perfbench {

struct PlantedPartition {
  std::size_t n = 0;           ///< vertices (a multiple of block)
  std::size_t block = 0;       ///< vertices per planted block
  double intra_degree = 0.0;   ///< expected within-block degree
  double cross_share = 0.0;    ///< share of all edges that join two blocks
};

inline xd::Graph planted_partition(const PlantedPartition& spec,
                                   std::uint64_t seed) {
  xd::Rng rng(seed);
  const std::size_t b = spec.block;
  const double p = spec.intra_degree / static_cast<double>(b - 1);
  const double log_q = std::log(1.0 - p);
  xd::GraphBuilder builder(spec.n);
  builder.reserve(static_cast<std::size_t>(
      static_cast<double>(spec.n) * spec.intra_degree /
      (2.0 * (1.0 - spec.cross_share)) * 1.1));

  std::size_t intra = 0;
  for (std::size_t base = 0; base + b <= spec.n; base += b) {
    // Pair index (v, w), w < v, advanced by Geometric(p) skips.
    std::int64_t v = 1;
    std::int64_t w = -1;
    const auto bs = static_cast<std::int64_t>(b);
    while (v < bs) {
      const double r = rng.next_double();
      w += 1 + static_cast<std::int64_t>(std::floor(std::log(1.0 - r) / log_q));
      while (w >= v && v < bs) {
        w -= v;
        ++v;
      }
      if (v < bs) {
        builder.add_edge(static_cast<xd::VertexId>(base + v),
                         static_cast<xd::VertexId>(base + w));
        ++intra;
      }
    }
  }

  const auto cross = static_cast<std::size_t>(std::llround(
      static_cast<double>(intra) * spec.cross_share / (1.0 - spec.cross_share)));
  std::unordered_set<std::uint64_t> seen;
  seen.reserve(cross * 2);
  while (seen.size() < cross) {
    std::uint64_t u = rng.next_below(spec.n);
    std::uint64_t x = rng.next_below(spec.n);
    if (u / b == x / b) continue;
    if (u > x) std::swap(u, x);
    if (seen.insert(u * spec.n + x).second) {
      builder.add_edge(static_cast<xd::VertexId>(u),
                       static_cast<xd::VertexId>(x));
    }
  }
  return builder.build();
}

}  // namespace perfbench
