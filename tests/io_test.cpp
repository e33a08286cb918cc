#include "graph/io.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "graph/generators.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

#if defined(__unix__) || defined(__APPLE__)
#define XD_IO_TEST_HAVE_FIFO 1
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <thread>
#endif

namespace xd {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

/// Normalized (u <= v) edge multiset -- the identity the loader preserves.
std::vector<std::pair<VertexId, VertexId>> edge_set(const Graph& g) {
  std::vector<std::pair<VertexId, VertexId>> edges;
  edges.reserve(g.num_edges());
  for (EdgeId e = 0; e < g.num_edges(); ++e) {
    auto [u, v] = g.edge(e);
    if (u > v) std::swap(u, v);
    edges.emplace_back(u, v);
  }
  std::sort(edges.begin(), edges.end());
  return edges;
}

/// Hand-writes a binary file: header (possibly lying) plus raw pairs.
void write_raw(const std::string& path, std::uint32_t magic, std::uint64_t n,
               std::uint64_t m,
               const std::vector<std::pair<std::uint32_t, std::uint32_t>>&
                   pairs,
               std::size_t truncate_to = static_cast<std::size_t>(-1)) {
  std::vector<unsigned char> bytes(24 + 8 * pairs.size());
  std::memcpy(bytes.data(), &magic, 4);
  const std::uint32_t reserved = 0;
  std::memcpy(bytes.data() + 4, &reserved, 4);
  std::memcpy(bytes.data() + 8, &n, 8);
  std::memcpy(bytes.data() + 16, &m, 8);
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    std::memcpy(bytes.data() + 24 + 8 * i, &pairs[i].first, 4);
    std::memcpy(bytes.data() + 24 + 8 * i + 4, &pairs[i].second, 4);
  }
  if (truncate_to < bytes.size()) bytes.resize(truncate_to);
  std::ofstream os(path, std::ios::binary);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

TEST(TextEdgeList, RoundTrip) {
  Rng rng(5);
  const Graph g = gen::gnp(60, 0.2, rng);
  std::stringstream ss;
  write_edge_list(g, ss);
  const Graph back = read_edge_list(ss);
  EXPECT_EQ(back.num_vertices(), g.num_vertices());
  EXPECT_EQ(edge_set(back), edge_set(g));
}

TEST(BinaryEdgeList, RoundTrip) {
  Rng rng(6);
  const Graph g = gen::gnp(200, 0.1, rng);
  const std::string path = tmp_path("roundtrip.xdg");
  write_binary_edge_list_file(g, path);
  const LoadedGraph loaded = read_binary_edge_list_file(path);
  EXPECT_EQ(loaded.graph.num_vertices(), g.num_vertices());
  EXPECT_EQ(edge_set(loaded.graph), edge_set(g));
  EXPECT_TRUE(loaded.old_to_new.empty());  // no reorder requested
  EXPECT_TRUE(loaded.new_to_old.empty());
}

TEST(BinaryEdgeList, NormalizesDedupsAndDropsLoops) {
  const std::string path = tmp_path("dedup.xdg");
  // (1,2) three times in both orientations, a loop, and (0,3).
  write_raw(path, kBinaryGraphMagic, 5, 6,
            {{1, 2}, {2, 1}, {4, 4}, {1, 2}, {0, 3}, {2, 1}});
  const LoadedGraph loaded = read_binary_edge_list_file(path);
  const std::vector<std::pair<VertexId, VertexId>> want = {{0, 3}, {1, 2}};
  EXPECT_EQ(edge_set(loaded.graph), want);
  EXPECT_EQ(loaded.graph.num_loops(), 0u);

  BinaryLoadOptions keep;
  keep.keep_self_loops = true;
  const LoadedGraph with_loops = read_binary_edge_list_file(path, keep);
  EXPECT_EQ(with_loops.graph.num_loops(), 1u);
  EXPECT_EQ(with_loops.graph.num_edges(), 3u);
}

TEST(BinaryEdgeList, MalformedInputsThrow) {
  EXPECT_THROW((void)read_binary_edge_list_file(tmp_path("missing.xdg")),
               CheckError);

  const std::string bad_magic = tmp_path("bad_magic.xdg");
  write_raw(bad_magic, 0xdeadbeefu, 4, 1, {{0, 1}});
  EXPECT_THROW((void)read_binary_edge_list_file(bad_magic), CheckError);

  const std::string truncated = tmp_path("truncated.xdg");
  write_raw(truncated, kBinaryGraphMagic, 4, 2, {{0, 1}, {2, 3}},
            /*truncate_to=*/24 + 8 + 4);
  EXPECT_THROW((void)read_binary_edge_list_file(truncated), CheckError);

  const std::string short_header = tmp_path("short_header.xdg");
  {
    std::ofstream os(short_header, std::ios::binary);
    os << "XDG1";
  }
  EXPECT_THROW((void)read_binary_edge_list_file(short_header), CheckError);

  const std::string out_of_range = tmp_path("out_of_range.xdg");
  write_raw(out_of_range, kBinaryGraphMagic, 3, 1, {{0, 7}});
  EXPECT_THROW((void)read_binary_edge_list_file(out_of_range), CheckError);

  // m = 2^61 + 1 makes header + 8*m wrap to exactly this one-pair file's
  // size; the check must catch the lie before anything is reserved.
  const std::string wrapped_m = tmp_path("wrapped_m.xdg");
  write_raw(wrapped_m, kBinaryGraphMagic, 4, (std::uint64_t{1} << 61) + 1,
            {{0, 1}});
  EXPECT_THROW((void)read_binary_edge_list_file(wrapped_m), CheckError);
}

TEST(BinaryEdgeList, ThreadCountDoesNotChangeResult) {
  Rng rng(7);
  const Graph g = gen::preferential_attachment(3000, 4, rng);
  const std::string path = tmp_path("threads.xdg");
  write_binary_edge_list_file(g, path);
  BinaryLoadOptions one;
  one.threads = 1;
  BinaryLoadOptions three;
  three.threads = 3;
  const LoadedGraph a = read_binary_edge_list_file(path, one);
  const LoadedGraph b = read_binary_edge_list_file(path, three);
  EXPECT_EQ(edge_set(a.graph), edge_set(b.graph));
  one.reorder_by_degree = three.reorder_by_degree = true;
  const LoadedGraph ra = read_binary_edge_list_file(path, one);
  const LoadedGraph rb = read_binary_edge_list_file(path, three);
  EXPECT_EQ(ra.old_to_new, rb.old_to_new);
  EXPECT_EQ(edge_set(ra.graph), edge_set(rb.graph));
}

/// The reorder pass: degrees non-increasing in the new labeling, the
/// permutations mutually inverse, and the relabeled graph isomorphic to the
/// original under new_to_old.
void check_reorder(const Graph& original, const LoadedGraph& r) {
  const std::size_t n = original.num_vertices();
  ASSERT_EQ(r.graph.num_vertices(), n);
  ASSERT_EQ(r.old_to_new.size(), n);
  ASSERT_EQ(r.new_to_old.size(), n);
  for (VertexId v = 0; v < n; ++v) {
    EXPECT_EQ(r.old_to_new[r.new_to_old[v]], v);
    if (v + 1 < n) {
      EXPECT_GE(r.graph.degree(v), r.graph.degree(v + 1));
    }
    EXPECT_EQ(r.graph.degree(v), original.degree(r.new_to_old[v]));
  }
  std::vector<std::pair<VertexId, VertexId>> mapped;
  for (EdgeId e = 0; e < r.graph.num_edges(); ++e) {
    auto [u, v] = r.graph.edge(e);
    VertexId ou = r.new_to_old[u];
    VertexId ov = r.new_to_old[v];
    if (ou > ov) std::swap(ou, ov);
    mapped.emplace_back(ou, ov);
  }
  std::sort(mapped.begin(), mapped.end());
  EXPECT_EQ(mapped, edge_set(original));
}

TEST(DegreeReorder, LoaderPassRelabelsByDegree) {
  Rng rng(8);
  const Graph g = gen::preferential_attachment(400, 3, rng);
  const std::string path = tmp_path("reorder.xdg");
  write_binary_edge_list_file(g, path);
  BinaryLoadOptions opt;
  opt.reorder_by_degree = true;
  check_reorder(g, read_binary_edge_list_file(path, opt));
}

TEST(DegreeReorder, StandalonePassMatchesSemantics) {
  Rng rng(9);
  const Graph g = gen::gnp(150, 0.15, rng);
  check_reorder(g, reorder_by_degree(g));
  // Star: the hub must land at id 0.
  const Graph star = gen::star(50);
  const LoadedGraph rs = reorder_by_degree(star);
  EXPECT_EQ(rs.graph.degree(0), 49u);
  // Ties break by ascending original id (stable relabeling).
  EXPECT_LT(rs.new_to_old[1], rs.new_to_old[2]);
}

TEST(BinaryEdgeList, EmptyGraph) {
  const std::string path = tmp_path("empty.xdg");
  write_raw(path, kBinaryGraphMagic, 0, 0, {});
  const LoadedGraph loaded = read_binary_edge_list_file(path);
  EXPECT_EQ(loaded.graph.num_vertices(), 0u);
  EXPECT_EQ(loaded.graph.num_edges(), 0u);
}

#if XD_IO_TEST_HAVE_FIFO

std::vector<unsigned char> file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

/// Feeds `bytes` into the FIFO in tiny dribbled chunks so the reader's
/// read(2) calls return short counts -- the condition the streamed loader
/// must loop through instead of trusting one sized read.
std::thread dribble_into_fifo(const std::string& fifo,
                              std::vector<unsigned char> bytes) {
  return std::thread([fifo, bytes = std::move(bytes)] {
    const int fd = ::open(fifo.c_str(), O_WRONLY);
    EXPECT_GE(fd, 0);
    if (fd < 0) return;
    std::size_t off = 0;
    while (off < bytes.size()) {
      const std::size_t want = std::min<std::size_t>(97, bytes.size() - off);
      const ssize_t wrote = ::write(fd, bytes.data() + off, want);
      if (wrote < 0) {
        if (errno == EINTR) continue;
        ADD_FAILURE() << "fifo write failed";
        break;
      }
      off += static_cast<std::size_t>(wrote);
    }
    ::close(fd);
  });
}

TEST(BinaryEdgeList, StreamedPipeLoadMatchesMmapPath) {
  // A FIFO is not a regular file: the loader cannot mmap or size it, so
  // this exercises the streamed short-read fallback end to end against the
  // mmap path's result on identical bytes.
  Rng rng(10);
  const Graph g = gen::gnp(120, 0.08, rng);
  const std::string reg = tmp_path("pipe_src.xdg");
  write_binary_edge_list_file(g, reg);
  const std::string fifo = tmp_path("pipe.xdg");
  ::unlink(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer = dribble_into_fifo(fifo, file_bytes(reg));
  const LoadedGraph piped = read_binary_edge_list_file(fifo);
  writer.join();
  ::unlink(fifo.c_str());
  const LoadedGraph mapped = read_binary_edge_list_file(reg);
  EXPECT_EQ(edge_set(piped.graph), edge_set(mapped.graph));
  EXPECT_EQ(piped.graph.num_vertices(), mapped.graph.num_vertices());
}

TEST(BinaryEdgeList, TruncatedPipeSurfacesCheckError) {
  // The writer closes mid-record-area; EOF on the pipe must surface as the
  // size check's CheckError, never as a silently smaller graph.
  Rng rng(11);
  const Graph g = gen::gnp(60, 0.1, rng);
  const std::string reg = tmp_path("pipe_trunc_src.xdg");
  write_binary_edge_list_file(g, reg);
  std::vector<unsigned char> bytes = file_bytes(reg);
  ASSERT_GT(bytes.size(), 40u);
  bytes.resize(bytes.size() / 2);
  const std::string fifo = tmp_path("pipe_trunc.xdg");
  ::unlink(fifo.c_str());
  ASSERT_EQ(::mkfifo(fifo.c_str(), 0600), 0);
  std::thread writer = dribble_into_fifo(fifo, std::move(bytes));
  EXPECT_THROW((void)read_binary_edge_list_file(fifo), CheckError);
  writer.join();
  ::unlink(fifo.c_str());
}

#endif  // XD_IO_TEST_HAVE_FIFO

}  // namespace
}  // namespace xd
