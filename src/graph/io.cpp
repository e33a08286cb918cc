#include "graph/io.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>
#include <utility>

#include "graph/file_bytes.hpp"
#include "util/check.hpp"

namespace xd {

void write_edge_list(const Graph& g, std::ostream& os) {
  os << g.num_vertices() << " " << g.num_edges() << "\n";
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    os << u << " " << v << "\n";
  }
}

void write_edge_list_file(const Graph& g, const std::string& path) {
  std::ofstream os(path);
  XD_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  write_edge_list(g, os);
}

Graph read_edge_list(std::istream& is) {
  std::size_t n = 0;
  std::size_t m = 0;
  XD_CHECK_MSG(static_cast<bool>(is >> n >> m), "bad edge-list header");
  GraphBuilder b(n, /*allow_parallel=*/true);
  b.reserve(m);
  for (std::size_t e = 0; e < m; ++e) {
    VertexId u = 0;
    VertexId v = 0;
    XD_CHECK_MSG(static_cast<bool>(is >> u >> v),
                 "edge list truncated at edge " << e << " of " << m);
    b.add_edge(u, v);
  }
  return b.build();
}

Graph read_edge_list_file(const std::string& path) {
  std::ifstream is(path);
  XD_CHECK_MSG(is.good(), "cannot open " << path);
  return read_edge_list(is);
}

// ---------------------------------------------------- binary edge lists --

namespace {

constexpr std::size_t kHeaderBytes = 24;

// All on-disk integers are little-endian; the loader memcpys them raw, so
// gate on the host byte order (every supported target is little-endian).
static_assert(std::endian::native == std::endian::little,
              "binary graph IO assumes a little-endian host");

template <typename T>
T load_le(const unsigned char* p) {
  T v;
  std::memcpy(&v, p, sizeof(T));
  return v;
}

template <typename T>
void store_le(T v, unsigned char* p) {
  std::memcpy(p, &v, sizeof(T));
}

/// Sorts keys with `threads` workers: chunk sorts in parallel, then a
/// binary merge tree.  Single-threaded (or small) inputs take std::sort.
void sort_keys(std::vector<std::uint64_t>& keys, unsigned threads) {
  const std::size_t n = keys.size();
  constexpr std::size_t kMinChunk = std::size_t{1} << 16;
  std::size_t chunks = threads;
  if (n >= 2 * kMinChunk) chunks = std::min<std::size_t>(chunks, n / kMinChunk);
  if (chunks < 2 || n < 2 * kMinChunk) {
    std::sort(keys.begin(), keys.end());
    return;
  }
  std::vector<std::size_t> bounds(chunks + 1);
  for (std::size_t c = 0; c <= chunks; ++c) bounds[c] = n * c / chunks;
  {
    std::vector<std::thread> workers;
    workers.reserve(chunks);
    for (std::size_t c = 0; c < chunks; ++c) {
      workers.emplace_back([&keys, &bounds, c] {
        std::sort(keys.begin() + static_cast<std::ptrdiff_t>(bounds[c]),
                  keys.begin() + static_cast<std::ptrdiff_t>(bounds[c + 1]));
      });
    }
    for (auto& w : workers) w.join();
  }
  for (std::size_t step = 1; step < chunks; step *= 2) {
    for (std::size_t c = 0; c + step < chunks; c += 2 * step) {
      const std::size_t hi = std::min(c + 2 * step, chunks);
      std::inplace_merge(
          keys.begin() + static_cast<std::ptrdiff_t>(bounds[c]),
          keys.begin() + static_cast<std::ptrdiff_t>(bounds[c + step]),
          keys.begin() + static_cast<std::ptrdiff_t>(bounds[hi]));
    }
  }
}

/// (deg desc, id asc) relabeling permutations for the given degree table.
void degree_order(const std::vector<std::uint32_t>& deg,
                  std::vector<VertexId>& old_to_new,
                  std::vector<VertexId>& new_to_old) {
  const std::size_t n = deg.size();
  new_to_old.resize(n);
  for (std::size_t v = 0; v < n; ++v) {
    new_to_old[v] = static_cast<VertexId>(v);
  }
  std::sort(new_to_old.begin(), new_to_old.end(),
            [&deg](VertexId a, VertexId b) {
              if (deg[a] != deg[b]) return deg[a] > deg[b];
              return a < b;
            });
  old_to_new.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    old_to_new[new_to_old[i]] = static_cast<VertexId>(i);
  }
}

/// CSR conversion of deduplicated (u <= v) keys.
Graph build_from_keys(std::size_t n, const std::vector<std::uint64_t>& keys) {
  GraphBuilder b(n, /*allow_parallel=*/true);
  b.reserve(keys.size());
  for (const std::uint64_t k : keys) {
    b.add_edge(static_cast<VertexId>(k >> 32),
               static_cast<VertexId>(k & 0xffffffffu));
  }
  return b.build();
}

std::uint64_t edge_key(VertexId u, VertexId v) {
  if (u > v) std::swap(u, v);
  return (static_cast<std::uint64_t>(u) << 32) | v;
}

}  // namespace

void write_binary_edge_list_file(const Graph& g, const std::string& path) {
  std::ofstream os(path, std::ios::binary);
  XD_CHECK_MSG(os.good(), "cannot open " << path << " for writing");
  unsigned char header[kHeaderBytes];
  store_le<std::uint32_t>(kBinaryGraphMagic, header);
  store_le<std::uint32_t>(0, header + 4);  // reserved / format flags
  store_le<std::uint64_t>(g.num_vertices(), header + 8);
  store_le<std::uint64_t>(g.num_edges(), header + 16);
  os.write(reinterpret_cast<const char*>(header), kHeaderBytes);
  std::vector<unsigned char> buf;
  constexpr std::size_t kFlushEdges = std::size_t{1} << 16;
  buf.reserve(kFlushEdges * 8);
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    unsigned char pair[8];
    store_le<std::uint32_t>(u, pair);
    store_le<std::uint32_t>(v, pair + 4);
    buf.insert(buf.end(), pair, pair + 8);
    if (buf.size() >= kFlushEdges * 8) {
      os.write(reinterpret_cast<const char*>(buf.data()),
               static_cast<std::streamsize>(buf.size()));
      buf.clear();
    }
  }
  if (!buf.empty()) {
    os.write(reinterpret_cast<const char*>(buf.data()),
             static_cast<std::streamsize>(buf.size()));
  }
  XD_CHECK_MSG(os.good(), "short write on " << path);
}

LoadedGraph read_binary_edge_list_file(const std::string& path,
                                       const BinaryLoadOptions& opt) {
  FileBytes file(path);
  XD_CHECK_MSG(file.size() >= kHeaderBytes,
               path << ": truncated header (" << file.size() << " bytes)");
  const unsigned char* p = file.data();
  const std::uint32_t magic = load_le<std::uint32_t>(p);
  XD_CHECK_MSG(magic == kBinaryGraphMagic,
               path << ": bad magic 0x" << std::hex << magic
                    << " (not an XDG1 binary edge list)");
  const std::uint64_t n64 = load_le<std::uint64_t>(p + 8);
  const std::uint64_t m = load_le<std::uint64_t>(p + 16);
  XD_CHECK_MSG(n64 <= 0xffffffffu, path << ": n=" << n64 << " exceeds u32 ids");
  const std::size_t n = static_cast<std::size_t>(n64);
  // Division form: kHeaderBytes + 8 * m wraps for m >= 2^61.
  const std::size_t payload = file.size() - kHeaderBytes;
  XD_CHECK_MSG(payload % 8 == 0 && payload / 8 == m,
               path << ": size " << file.size() << " != header + 8*m for m="
                    << m);

  // Normalize (u <= v), drop loops unless kept, pack to one u64 per edge.
  std::vector<std::uint64_t> keys;
  keys.reserve(static_cast<std::size_t>(m));
  const unsigned char* q = p + kHeaderBytes;
  for (std::uint64_t e = 0; e < m; ++e, q += 8) {
    const std::uint32_t u = load_le<std::uint32_t>(q);
    const std::uint32_t v = load_le<std::uint32_t>(q + 4);
    XD_CHECK_MSG(u < n && v < n, path << ": edge " << e << " = (" << u << ","
                                      << v << ") out of range n=" << n);
    if (u == v && !opt.keep_self_loops) continue;
    keys.push_back(edge_key(u, v));
  }

  const unsigned hw = std::thread::hardware_concurrency();
  const unsigned threads = opt.threads != 0 ? opt.threads : (hw != 0 ? hw : 1);
  sort_keys(keys, threads);
  keys.erase(std::unique(keys.begin(), keys.end()), keys.end());

  LoadedGraph out;
  if (opt.reorder_by_degree) {
    std::vector<std::uint32_t> deg(n, 0);
    for (const std::uint64_t k : keys) {
      ++deg[static_cast<std::uint32_t>(k >> 32)];
      ++deg[static_cast<std::uint32_t>(k & 0xffffffffu)];
    }
    degree_order(deg, out.old_to_new, out.new_to_old);
    for (std::uint64_t& k : keys) {
      k = edge_key(out.old_to_new[static_cast<std::uint32_t>(k >> 32)],
                   out.old_to_new[static_cast<std::uint32_t>(k & 0xffffffffu)]);
    }
    sort_keys(keys, threads);  // relabeling is a bijection: no new dups
  }
  out.graph = build_from_keys(n, keys);
  return out;
}

LoadedGraph reorder_by_degree(const Graph& g) {
  const std::size_t n = g.num_vertices();
  std::vector<std::uint32_t> deg(n);
  for (VertexId v = 0; v < n; ++v) deg[v] = g.degree(v);
  LoadedGraph out;
  degree_order(deg, out.old_to_new, out.new_to_old);
  GraphBuilder b(n, /*allow_parallel=*/true);
  b.reserve(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    const auto [u, v] = g.edge(e);
    b.add_edge(out.old_to_new[u], out.old_to_new[v]);
  }
  out.graph = b.build();
  return out;
}

}  // namespace xd
