#include "serve/artifact.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "triangle/enumerate.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace xd::serve {
namespace {

std::string tmp_path(const std::string& name) {
  return ::testing::TempDir() + name;
}

std::uint64_t mix(std::uint64_t h, std::uint64_t x) {
  h ^= x + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

/// The golden enumeration fixture (golden_test.cpp): gnp(60, 0.2, Rng(31)),
/// TreeRouter backend, build seed 17.
Graph golden_graph() {
  Rng rng(31);
  return gen::gnp(60, 0.2, rng);
}

PrepareParams golden_params(int scheduler_threads) {
  PrepareParams prm;
  prm.enumerate.backend = triangle::RouterBackend::kTree;
  prm.enumerate.scheduler_threads = scheduler_threads;
  return prm;
}

std::uint64_t triangle_hash(const PreparedArtifact& art) {
  std::uint64_t h = 0;
  for (const auto& t : art.triangles) {
    h = mix(h, t[0]);
    h = mix(h, t[1]);
    h = mix(h, t[2]);
  }
  return h;
}

std::vector<unsigned char> read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path,
                const std::vector<unsigned char>& bytes) {
  std::ofstream os(path, std::ios::binary);
  os.write(reinterpret_cast<const char*>(bytes.data()),
           static_cast<std::streamsize>(bytes.size()));
}

template <typename T>
void patch(std::vector<unsigned char>& bytes, std::size_t offset, T value) {
  ASSERT_LE(offset + sizeof(T), bytes.size());
  std::memcpy(bytes.data() + offset, &value, sizeof(T));
}

template <typename T>
T peek(const std::vector<unsigned char>& bytes, std::size_t offset) {
  T v{};
  std::memcpy(&v, bytes.data() + offset, sizeof(T));
  return v;
}

constexpr std::size_t kHeader = 32;
constexpr std::size_t kEntry = 24;

std::size_t section_offset(const std::vector<unsigned char>& bytes,
                           std::size_t s) {
  return static_cast<std::size_t>(
      peek<std::uint64_t>(bytes, kHeader + s * kEntry + 8));
}

std::size_t section_size(const std::vector<unsigned char>& bytes,
                         std::size_t s) {
  return static_cast<std::size_t>(
      peek<std::uint64_t>(bytes, kHeader + s * kEntry + 16));
}

/// Small deterministic fixture with triangles and two far-apart regions: a
/// K5 bridged to a 5-path.
Graph small_graph() {
  GraphBuilder b(10);
  for (VertexId u = 0; u < 5; ++u) {
    for (VertexId v = u + 1; v < 5; ++v) b.add_edge(u, v);
  }
  for (VertexId v = 5; v < 9; ++v) b.add_edge(v, v + 1);
  b.add_edge(4, 5);
  return b.build();
}

// ------------------------------------------------------ golden conformance

TEST(Artifact, PrepareMatchesGoldenPinsAtEveryThreadCount) {
  const Graph g = golden_graph();
  PreparedArtifact base;
  bool have_base = false;
  for (const int threads : {0, 1, 2, 8}) {
    const auto art = prepare_artifact(g, golden_params(threads));
    // The golden enumeration pins carry through the prepare pipeline
    // unchanged: prepare draws the enumeration stream from a fresh
    // Rng(seed), exactly like a direct enumerate_congest call.
    EXPECT_EQ(art.triangles.size(), 240u) << "threads=" << threads;
    EXPECT_EQ(triangle_hash(art), 2309664143457515940ULL)
        << "threads=" << threads;
    EXPECT_EQ(art.enum_rounds, 3445u) << "threads=" << threads;
    EXPECT_EQ(art.seed, 17u);
    if (!have_base) {
      base = art;
      have_base = true;
      continue;
    }
    // Thread count shapes wall-clock only: every captured structure is
    // bit-identical (build_rounds excepted -- sequential execution sums
    // rounds where the scheduler charges per-epoch maxima).
    EXPECT_EQ(art.component, base.component) << "threads=" << threads;
    EXPECT_EQ(art.removed_edge, base.removed_edge) << "threads=" << threads;
    EXPECT_EQ(art.num_components, base.num_components);
    EXPECT_EQ(art.relay_parent, base.relay_parent) << "threads=" << threads;
    EXPECT_EQ(art.relay_depth, base.relay_depth) << "threads=" << threads;
    EXPECT_EQ(art.portals, base.portals) << "threads=" << threads;
    EXPECT_EQ(art.triangles, base.triangles) << "threads=" << threads;
    EXPECT_EQ(art.build_messages, base.build_messages)
        << "threads=" << threads;
  }
}

TEST(Artifact, ReloadedArtifactKeepsTheGoldenPins) {
  const auto art = prepare_artifact(golden_graph(), golden_params(0));
  const std::string path = tmp_path("golden.xda");
  save_artifact(art, path);
  const auto back = load_artifact(path);
  EXPECT_EQ(back.triangles.size(), 240u);
  EXPECT_EQ(triangle_hash(back), 2309664143457515940ULL);
  EXPECT_EQ(back.enum_rounds, 3445u);
  EXPECT_EQ(back.component, art.component);
  EXPECT_EQ(back.build_rounds, art.build_rounds);
}

// ------------------------------------------------------------- round trip

TEST(Artifact, SaveLoadSaveIsByteStable) {
  const auto art = prepare_artifact(golden_graph(), golden_params(0));
  const std::string p1 = tmp_path("rt1.xda");
  const std::string p2 = tmp_path("rt2.xda");
  save_artifact(art, p1);
  const auto back = load_artifact(p1);
  save_artifact(back, p2);
  EXPECT_EQ(read_file(p1), read_file(p2));
}

TEST(Artifact, RoundTripPreservesEveryField) {
  const auto art = prepare_artifact(small_graph(), golden_params(0));
  const std::string path = tmp_path("small.xda");
  save_artifact(art, path);
  const auto back = load_artifact(path);
  EXPECT_EQ(back.graph.num_vertices(), art.graph.num_vertices());
  EXPECT_EQ(back.graph.num_edges(), art.graph.num_edges());
  for (EdgeId e = 0; e < art.graph.num_edges(); ++e) {
    EXPECT_EQ(back.graph.edge(e), art.graph.edge(e));
  }
  EXPECT_EQ(back.component, art.component);
  EXPECT_EQ(back.num_components, art.num_components);
  EXPECT_EQ(back.removed_edge, art.removed_edge);
  for (int r = 0; r < 3; ++r) EXPECT_EQ(back.removed_by[r], art.removed_by[r]);
  ASSERT_EQ(back.components.size(), art.components.size());
  for (std::size_t c = 0; c < art.components.size(); ++c) {
    EXPECT_EQ(back.components[c].root, art.components[c].root);
    EXPECT_EQ(back.components[c].size, art.components[c].size);
    EXPECT_EQ(back.components[c].volume, art.components[c].volume);
    EXPECT_EQ(back.components[c].cut, art.components[c].cut);
    EXPECT_EQ(back.components[c].internal_edges,
              art.components[c].internal_edges);
    EXPECT_EQ(back.components[c].conductance, art.components[c].conductance);
    EXPECT_EQ(back.components[c].balance, art.components[c].balance);
    EXPECT_EQ(back.components[c].height, art.components[c].height);
    EXPECT_EQ(back.components[c].beta, art.components[c].beta);
  }
  EXPECT_EQ(back.router_depth, art.router_depth);
  EXPECT_EQ(back.relay_parent, art.relay_parent);
  EXPECT_EQ(back.relay_depth, art.relay_depth);
  EXPECT_EQ(back.portals, art.portals);
  EXPECT_EQ(back.triangles, art.triangles);
  EXPECT_EQ(back.epsilon, art.epsilon);
  EXPECT_EQ(back.k, art.k);
  EXPECT_EQ(back.phi0, art.phi0);
  EXPECT_EQ(back.backend, art.backend);
  EXPECT_EQ(back.decomp_backend, art.decomp_backend);
  EXPECT_EQ(back.seed, art.seed);
  EXPECT_EQ(back.build_rounds, art.build_rounds);
  EXPECT_EQ(back.build_messages, art.build_messages);
  EXPECT_EQ(back.enum_rounds, art.enum_rounds);
  EXPECT_EQ(back.router_queries, art.router_queries);
  EXPECT_EQ(back.enum_levels, art.enum_levels);
  EXPECT_EQ(back.clusters_processed, art.clusters_processed);
  // The derived incidence index is rebuilt on load.
  EXPECT_EQ(back.tri_offsets, art.tri_offsets);
  EXPECT_EQ(back.tri_ids, art.tri_ids);
}

TEST(Artifact, LegacySimpleParallelMetaStillLoads) {
  // Files built by the since-removed simple-parallel driver carry 1 in
  // META's decomposition-driver slot.  Their partition is still a valid
  // decomposition, so they load, report 1, and re-save byte-identically
  // apart from the checksum the legacy zero sentinel gains on save.
  const auto art = prepare_artifact(small_graph(), golden_params(0));
  EXPECT_EQ(art.decomp_backend, 0);
  const std::string path = tmp_path("legacy_sp.xda");
  save_artifact(art, path);
  auto legacy = read_file(path);
  patch<std::uint64_t>(legacy, 24, 0);  // CRC 0: legacy "no checksum"
  patch<std::uint32_t>(legacy, section_offset(legacy, 5) + 68, 1u);
  write_file(path, legacy);

  const auto back = load_artifact(path);
  EXPECT_EQ(back.decomp_backend, 1);
  EXPECT_EQ(back.component, art.component);
  const std::string resaved_path = tmp_path("legacy_sp_resaved.xda");
  save_artifact(back, resaved_path);
  auto resaved = read_file(resaved_path);
  EXPECT_NE(peek<std::uint64_t>(resaved, 24), 0u);
  patch<std::uint64_t>(resaved, 24, 0);
  EXPECT_EQ(resaved, legacy);
  EXPECT_EQ(load_artifact(resaved_path).decomp_backend, 1);
}

// ------------------------------------------------------------ query layer

TEST(Artifact, TriangleQueriesMatchTheTupleList) {
  const auto art = prepare_artifact(golden_graph(), golden_params(0));
  std::size_t incidences = 0;
  for (VertexId v = 0; v < art.graph.num_vertices(); ++v) {
    const auto span = art.triangles_of(v);
    incidences += span.size();
    for (const std::uint32_t id : span) {
      const auto& t = art.triangles[id];
      EXPECT_TRUE(t[0] == v || t[1] == v || t[2] == v);
    }
  }
  EXPECT_EQ(incidences, 3 * art.triangles.size());
  for (const auto& t : art.triangles) {
    EXPECT_TRUE(art.has_triangle(t[0], t[1], t[2]));
    EXPECT_TRUE(art.has_triangle(t[2], t[0], t[1]));  // order-insensitive
  }
  EXPECT_FALSE(art.has_triangle(0, 0, 1));  // degenerate triples never list
}

TEST(Artifact, RelayPathsWalkTheForest) {
  const auto art = prepare_artifact(small_graph(), golden_params(0));
  for (VertexId u = 0; u < art.graph.num_vertices(); ++u) {
    for (VertexId v = 0; v < art.graph.num_vertices(); ++v) {
      std::vector<VertexId> path;
      const bool ok = art.relay_path(u, v, path);
      if (art.component_of(u) != art.component_of(v)) {
        EXPECT_FALSE(ok);
        continue;
      }
      if (!ok) continue;  // fragmented component: disjoint relay trees
      ASSERT_FALSE(path.empty());
      EXPECT_EQ(path.front(), u);
      EXPECT_EQ(path.back(), v);
      // Every hop is a parent link of the relay forest.
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const VertexId x = path[i];
        const VertexId y = path[i + 1];
        EXPECT_TRUE(art.relay_parent[x] == y || art.relay_parent[y] == x)
            << u << "->" << v << " hop " << i;
      }
    }
  }
}

// -------------------------------------------------------- malformed files

class ArtifactReject : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto art = prepare_artifact(small_graph(), golden_params(0));
    ASSERT_GT(art.triangles.size(), 0u);  // the grid patches TRIS entries
    path_ = tmp_path("reject.xda");
    save_artifact(art, path_);
    bytes_ = read_file(path_);
    n_ = art.graph.num_vertices();
    m_ = art.graph.num_edges();
  }

  void expect_reject(const std::vector<unsigned char>& bytes,
                     const char* what) {
    const std::string p = tmp_path("reject_mut.xda");
    write_file(p, bytes);
    EXPECT_THROW((void)load_artifact(p), CheckError) << what;
  }

  std::string path_;
  std::vector<unsigned char> bytes_;
  std::size_t n_ = 0;
  std::size_t m_ = 0;
};

TEST_F(ArtifactReject, MissingFile) {
  EXPECT_THROW((void)load_artifact(tmp_path("no_such.xda")), CheckError);
}

TEST_F(ArtifactReject, TruncatedHeader) {
  auto b = bytes_;
  b.resize(16);
  expect_reject(b, "16-byte file");
  b.clear();
  expect_reject(b, "empty file");
}

TEST_F(ArtifactReject, BadMagic) {
  auto b = bytes_;
  patch<std::uint32_t>(b, 0, 0xdeadbeefu);
  expect_reject(b, "magic");
}

TEST_F(ArtifactReject, BadVersion) {
  auto b = bytes_;
  patch<std::uint32_t>(b, 4, kArtifactVersion + 1);
  expect_reject(b, "version");
}

TEST_F(ArtifactReject, BadSectionCount) {
  auto b = bytes_;
  patch<std::uint64_t>(b, 8, 7);
  expect_reject(b, "section count");
}

TEST_F(ArtifactReject, TruncatedFile) {
  auto b = bytes_;
  ASSERT_GT(b.size(), kHeader);
  b.resize(b.size() - 1);  // header file_size no longer matches
  expect_reject(b, "truncation");
}

TEST_F(ArtifactReject, WrongSectionTag) {
  auto b = bytes_;
  patch<std::uint32_t>(b, kHeader + 2 * kEntry, 0x21212121u);
  expect_reject(b, "tag");
}

TEST_F(ArtifactReject, NonContiguousSections) {
  auto b = bytes_;
  patch<std::uint64_t>(b, kHeader + 1 * kEntry + 8,
                       section_offset(b, 1) + 8);
  expect_reject(b, "offset gap");
}

TEST_F(ArtifactReject, SectionOverrunsFile) {
  auto b = bytes_;
  patch<std::uint64_t>(b, kHeader + 5 * kEntry + 16, section_size(b, 5) + 8);
  expect_reject(b, "overrun");
}

TEST_F(ArtifactReject, TrailingBytes) {
  auto b = bytes_;
  b.insert(b.end(), 4, 0);
  patch<std::uint64_t>(b, 16, b.size());
  expect_reject(b, "trailing bytes");
}

TEST_F(ArtifactReject, GraphEdgeOutOfRange) {
  auto b = bytes_;
  patch<std::uint32_t>(b, section_offset(b, 0) + 16, 0xfffffff0u);
  expect_reject(b, "edge endpoint");
}

TEST_F(ArtifactReject, GraphEdgeCountMismatch) {
  auto b = bytes_;
  patch<std::uint64_t>(b, section_offset(b, 0) + 8, m_ + 1);
  expect_reject(b, "edge count");
}

TEST_F(ArtifactReject, ComponentLabelOutOfRange) {
  auto b = bytes_;
  patch<std::uint32_t>(b, section_offset(b, 1) + 32, 0xffffffffu);
  expect_reject(b, "component label");
}

TEST_F(ArtifactReject, RemovedFlagNotBoolean) {
  auto b = bytes_;
  patch<std::uint8_t>(b, section_offset(b, 1) + 32 + 4 * n_, 2);
  expect_reject(b, "removed flag");
}

TEST_F(ArtifactReject, ComponentSizesDontSum) {
  auto b = bytes_;
  const std::size_t off = section_offset(b, 2) + 4;  // first size field
  patch<std::uint32_t>(b, off, peek<std::uint32_t>(b, off) + 1);
  expect_reject(b, "size sum");
}

TEST_F(ArtifactReject, ZeroRouterDepth) {
  auto b = bytes_;
  patch<std::uint32_t>(b, section_offset(b, 3), 0);
  expect_reject(b, "depth 0");
}

TEST_F(ArtifactReject, RelayParentOutOfRange) {
  auto b = bytes_;
  patch<std::uint32_t>(b, section_offset(b, 3) + 8, 0xffffffffu);
  expect_reject(b, "relay parent");
}

TEST_F(ArtifactReject, RelayDepthInconsistent) {
  auto b = bytes_;
  const std::size_t depth0 = section_offset(b, 3) + 8 + 4 * n_;
  patch<std::uint32_t>(b, depth0, peek<std::uint32_t>(b, depth0) + 5);
  expect_reject(b, "relay depth");
}

TEST_F(ArtifactReject, TrianglesNotSorted) {
  auto b = bytes_;
  patch<std::uint32_t>(b, section_offset(b, 4) + 8, 0xfffffff0u);
  expect_reject(b, "triangle order");
}

TEST_F(ArtifactReject, UnknownDecompositionBackend) {
  // Zero the whole-file checksum first (legacy "no checksum" sentinel) so
  // the META range check itself fires, not the CRC mismatch.  The high-bit
  // values must be rejected on the raw u32, not after a cast to int.
  for (const std::uint32_t code : {2u, 7u, 0x80000000u, 0xffffffffu}) {
    auto b = bytes_;
    patch<std::uint64_t>(b, 24, 0);
    patch<std::uint32_t>(b, section_offset(b, 5) + 68, code);
    expect_reject(b, "decomposition backend");
  }
}

TEST_F(ArtifactReject, UnknownRouterBackend) {
  for (const std::int32_t code : {3, -1}) {
    auto b = bytes_;
    patch<std::uint64_t>(b, 24, 0);
    patch<std::int32_t>(b, section_offset(b, 5) + 20, code);
    expect_reject(b, "router backend");
  }
}

TEST_F(ArtifactReject, SectionSizeWrapsAroundTheFile) {
  // A u64 GRPH size of 2^64 - 8 wraps offset + size back to 8 bytes
  // before the section's own start; DCMP's offset and size are re-tiled
  // from there so every later check still lines up, and the GRPH edge
  // count is set to match the wrapped payload.  Without the wrap check
  // the loader goes on to reserve 2^61 edges.
  auto b = bytes_;
  patch<std::uint64_t>(b, 24, 0);
  const std::uint64_t t = section_offset(b, 0);
  const std::uint64_t s0 = section_size(b, 0);
  const std::uint64_t s1 = section_size(b, 1);
  const std::uint64_t wrapped = ~std::uint64_t{0} - 7;  // 2^64 - 8
  patch<std::uint64_t>(b, kHeader + 0 * kEntry + 16, wrapped);
  patch<std::uint64_t>(b, t + 8, (wrapped - 16) / 8);  // GRPH m
  patch<std::uint64_t>(b, kHeader + 1 * kEntry + 8, t - 8);
  patch<std::uint64_t>(b, kHeader + 1 * kEntry + 16, s0 + s1 + 8);
  expect_reject(b, "wrapped section size");
}

TEST_F(ArtifactReject, MetaSizeWrong) {
  auto b = bytes_;
  patch<std::uint64_t>(b, kHeader + 5 * kEntry + 16, section_size(b, 5) - 8);
  patch<std::uint64_t>(b, 16, b.size() - 8);
  b.resize(b.size() - 8);
  expect_reject(b, "meta size");
}

}  // namespace
}  // namespace xd::serve
