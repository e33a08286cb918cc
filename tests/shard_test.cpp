#include "congest/shard_plane.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>
#include <vector>

#include "congest/ledger.hpp"
#include "congest/network.hpp"
#include "corpus.hpp"
#include "graph/generators.hpp"
#include "oracles/delivery_oracle.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace xd::congest {
namespace {

using corpus::topology;

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// A deliberately messy multi-round program: descending-slot sends (defeats
/// the per-buffer sorted fast path), same-slot re-sends (congestion > 1),
/// silent vertices, and a per-vertex fold hash over full envelope contents
/// (sender, tag, payload) so any reorder or loss flips the fingerprint.
struct Chatter final : VertexProgram {
  explicit Chatter(const Graph& g) : g(&g), acc(g.num_vertices(), 0) {}

  const Graph* g;
  int round = 0;
  std::vector<std::uint64_t> acc;

  /// v's sends this round as send(slot, msg) -- shared by the engine's
  /// on_send and the oracle run.
  template <class Send>
  void emit(VertexId v, Send send) const {
    if (v % 3 == 2) return;
    const auto nbrs = g->neighbors(v);
    for (std::uint32_t s = static_cast<std::uint32_t>(nbrs.size()); s-- > 0;) {
      if (nbrs[s] == v) continue;
      send(s, Message{static_cast<std::uint32_t>(round),
                      (std::uint64_t{v} << 32) | s, v + 1});
      if (s == 0 && round % 2 == 0) send(s, Message{7, v});
    }
  }

  void on_send(VertexId v, Outbox& out) override {
    emit(v, [&](std::uint32_t s, const Message& m) { out.send(s, m); });
  }

  void on_receive(VertexId v, std::span<const Envelope> inbox) override {
    for (const Envelope& e : inbox) {
      acc[v] = mix(acc[v], e.from);
      acc[v] = mix(acc[v], e.msg.tag);
      acc[v] = mix(acc[v], e.msg.words[0]);
      acc[v] = mix(acc[v], e.msg.words[1]);
    }
  }
};

struct RunResult {
  std::vector<std::uint64_t> acc;
  std::vector<std::uint64_t> rounds_per_step;
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;

  friend bool operator==(const RunResult&, const RunResult&) = default;
};

RunResult run_chatter(const Graph& g, int shards, int threads) {
  RoundLedger ledger;
  Network net(g, ledger, /*seed=*/7);
  net.set_shards(shards);
  net.set_threads(threads);
  Chatter program(g);
  RunResult r;
  for (program.round = 0; program.round < 4; ++program.round) {
    r.rounds_per_step.push_back(net.run_round(program, "chatter"));
  }
  r.acc = program.acc;
  r.rounds = ledger.rounds();
  r.messages = ledger.messages();
  return r;
}

/// The same four Chatter rounds delivered by the naive reference oracle.
RunResult run_chatter_oracle(const Graph& g) {
  oracle::DeliveryOracle ref(g);
  Chatter program(g);
  RunResult r;
  for (program.round = 0; program.round < 4; ++program.round) {
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      program.emit(v, [&](std::uint32_t s, const Message& m) {
        ref.send(v, s, m);
      });
    }
    const oracle::Delivery d = ref.deliver();
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      program.on_receive(v, d.inbox[v]);
    }
    r.rounds_per_step.push_back(d.rounds);
    r.rounds += d.rounds;
    r.messages += d.messages;
  }
  r.acc = program.acc;
  return r;
}

// The delivery conformance grid: inbox fold hashes (contents and order),
// per-step round charges (max congestion), and ledger totals must match
// the naive reference oracle at every shards x threads combination.
TEST(ShardConformance, GridMatchesOracleOnAllTopologies) {
  for (const char* name : {"expander", "dumbbell", "star"}) {
    SCOPED_TRACE(name);
    const Graph g = topology(name);
    const RunResult baseline = run_chatter_oracle(g);
    EXPECT_GT(baseline.messages, 0u);
    for (const int shards : {1, 2, 4, 8}) {
      for (const int threads : {1, 2, 8}) {
        SCOPED_TRACE("shards=" + std::to_string(shards) +
                     " threads=" + std::to_string(threads));
        EXPECT_EQ(run_chatter(g, shards, threads), baseline);
      }
    }
  }
}

// Direct send()/send_to() staging (no VertexProgram) routes straight into
// the sender shard's aggregation buffers: contents, order, and round charges
// must match the oracle at every shard count, including same-slot re-send
// ties staged out of order.
TEST(ShardConformance, DirectExchangeMatchesOracle) {
  const Graph g = topology("gnp-medium");
  const auto stage_all = [&](auto& net) {
    for (VertexId v = g.num_vertices(); v-- > 0;) {
      const auto nbrs = g.neighbors(v);
      for (std::uint32_t s = 0; s < nbrs.size(); ++s) {
        if (nbrs[s] == v) continue;
        net.send(v, s, Message{s, v});
        if (v % 5 == 0) net.send_to(v, nbrs[s], Message{99, v});
      }
    }
  };
  oracle::DeliveryOracle ref(g);
  stage_all(ref);
  const oracle::Delivery want = ref.deliver();
  EXPECT_GT(want.rounds, 1u);

  for (const int shards : {1, 2, 4, 8}) {
    SCOPED_TRACE("shards=" + std::to_string(shards));
    RoundLedger ledger;
    Network net(g, ledger);
    net.set_shards(shards);
    net.set_threads(4);
    stage_all(net);
    EXPECT_EQ(net.exchange("direct"), want.rounds);
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      const auto got = net.inbox(v);
      ASSERT_EQ(got.size(), want.inbox[v].size()) << "vertex " << v;
      for (std::size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].from, want.inbox[v][i].from)
            << "vertex " << v << " msg " << i;
        EXPECT_EQ(got[i].msg, want.inbox[v][i].msg)
            << "vertex " << v << " msg " << i;
      }
    }
    EXPECT_EQ(ledger.rounds(), want.rounds);
    EXPECT_EQ(ledger.messages(), want.messages);
  }
}

// Direct sends staged before a run_round must precede the send phase's
// messages on the same slot (staging order breaks slot ties) at any S.
TEST(ShardConformance, DirectSendsPrecedeProgramStagingOnSlotTies) {
  const Graph g = gen::path(2);
  auto run = [&](int shards) {
    RoundLedger ledger;
    Network net(g, ledger);
    net.set_shards(shards);
    net.send_to(0, 1, Message{1, 100});
    auto program = make_program(
        [](VertexId v, Outbox& out) {
          if (v == 0) {
            out.send_to(1, Message{2, 200});
            out.send_to(1, Message{3, 300});
          }
        },
        [](VertexId, std::span<const Envelope>) {});
    const std::uint64_t rounds = net.run_round(program, "ties");
    EXPECT_EQ(rounds, 3u);
    std::vector<std::uint32_t> tags;
    for (const Envelope& e : net.inbox(1)) tags.push_back(e.msg.tag);
    return tags;
  };
  const std::vector<std::uint32_t> want{1, 2, 3};
  EXPECT_EQ(run(1), want);
  EXPECT_EQ(run(2), want);
}

TEST(ShardConformance, EmptyExchangeChargesOneRoundAndOverridesHold) {
  const Graph g = gen::star(9);
  RoundLedger ledger;
  Network net(g, ledger);
  net.set_shards(4);
  EXPECT_EQ(net.exchange("idle"), 1u);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(net.inbox(v).empty());
  }
  // Congestion 2 under an override of 5 charges 5; an override below the
  // congestion is rejected, same as at S = 1.
  net.send_to(1, 0, Message{1, 1});
  net.send_to(1, 0, Message{2, 2});
  EXPECT_EQ(net.exchange_charging("override", 5), 5u);
  net.send_to(1, 0, Message{1, 1});
  net.send_to(1, 0, Message{2, 2});
  net.send_to(1, 0, Message{3, 3});
  EXPECT_THROW((void)net.exchange_charging("override", 2), CheckError);
}

TEST(ShardPlaneUnit, PartitionIsContiguousAndCoversAllVertices) {
  const Graph g = gen::star(11);  // n = 11, not divisible by 4
  ShardPlane plane;
  plane.configure(g, 4);
  std::size_t covered = 0;
  std::size_t prev_hi = 0;
  for (int s = 0; s < 4; ++s) {
    const auto [lo, hi] = plane.shard_range(s);
    EXPECT_EQ(lo, prev_hi);
    for (std::size_t v = lo; v < hi; ++v) {
      EXPECT_EQ(plane.shard_of(static_cast<VertexId>(v)), s);
    }
    covered += hi - lo;
    prev_hi = hi;
  }
  EXPECT_EQ(covered, g.num_vertices());
  EXPECT_EQ(prev_hi, g.num_vertices());
}

TEST(ShardPlaneUnit, RejectsInvalidShardCountsAndPendingTraffic) {
  const Graph g = gen::star(5);
  RoundLedger ledger;
  Network net(g, ledger);
  EXPECT_THROW(net.set_shards(0), CheckError);
  EXPECT_THROW(net.set_shards(-2), CheckError);
  net.send_to(1, 0, Message{1, 1});
  EXPECT_THROW(net.set_shards(4), CheckError);
  (void)net.exchange("drain");
  net.set_shards(4);
  EXPECT_EQ(net.shards(), 4);
  net.set_shards(1);
  EXPECT_EQ(net.shards(), 1);
}

TEST(ShardPlaneUnit, DeliveryStatsAccountEveryMessage) {
  Rng rng(3);
  const Graph g = gen::random_regular(64, 4, rng);
  RoundLedger ledger;
  Network net(g, ledger);
  net.set_shards(4);
  net.set_threads(4);
  std::size_t sent = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::uint32_t s = 0; s < nbrs.size(); ++s) {
      if (nbrs[s] == v) continue;
      net.send(v, s, Message{1, v});
      ++sent;
    }
  }
  EXPECT_EQ(net.staged(), sent);
  (void)net.exchange("flood");
  const ShardDeliveryStats& st = net.shard_delivery_stats();
  ASSERT_EQ(st.shard.size(), 4u);
  std::uint64_t received = 0;
  for (const auto& s : st.shard) received += s.received;
  EXPECT_EQ(received, sent);
  EXPECT_EQ(st.staged, sent);
  EXPECT_GE(st.max_congestion, 1u);
  EXPECT_EQ(net.staged(), 0u);
}

TEST(ShardWire, BufferRoundTrip) {
  detail::StagingBuffer buf;
  buf.push(17, 3, Message{1, 0xdeadbeefull, 42});
  buf.push(17, 3, Message{2, 7});
  buf.push(901, 12, Message{3, 0xffffffffffffffffull, 1});
  const std::vector<unsigned char> bytes =
      encode_shard_buffer(3, 5, buf, /*seq=*/77);
  EXPECT_EQ(bytes.size(), 40u + 28u * buf.size());

  std::uint32_t sender = 0;
  std::uint32_t dest = 0;
  std::uint64_t seq = 0;
  detail::StagingBuffer back;
  back.push(999, 999, Message{9, 9});  // decode must clear stale contents
  decode_shard_buffer(bytes, &sender, &dest, &back, &seq);
  EXPECT_EQ(sender, 3u);
  EXPECT_EQ(dest, 5u);
  EXPECT_EQ(seq, 77u);
  ASSERT_EQ(back.size(), buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    EXPECT_EQ(back.slot[i], buf.slot[i]);
    EXPECT_EQ(back.from[i], buf.from[i]);
    EXPECT_EQ(back.msg[i], buf.msg[i]);
  }
}

// Version 1 (24-byte header, no sequence number or CRC) is retired: a
// hand-built v1 frame is a typed decode error, never a silent accept.
TEST(ShardWire, RejectsRetiredV1Frames) {
  detail::StagingBuffer buf;
  buf.push(5, 2, Message{4, 11, 12});
  std::vector<unsigned char> v1;
  const auto put32 = [&v1](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      v1.push_back(static_cast<unsigned char>(v >> (8 * b)));
    }
  };
  const auto put64 = [&v1](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      v1.push_back(static_cast<unsigned char>(v >> (8 * b)));
    }
  };
  put32(kShardBufferMagic);
  put32(1);  // version 1
  put32(1);  // sender
  put32(2);  // dest
  put64(buf.size());
  for (std::size_t i = 0; i < buf.size(); ++i) {
    put32(buf.slot[i]);
    put32(buf.from[i]);
    put32(buf.msg[i].tag);
    put64(buf.msg[i].words[0]);
    put64(buf.msg[i].words[1]);
  }
  std::uint32_t sender = 0;
  std::uint32_t dest = 0;
  detail::StagingBuffer back;
  EXPECT_FALSE(try_decode_shard_buffer(v1, &sender, &dest, &back));
  try {
    decode_shard_buffer(v1, &sender, &dest, &back);
    FAIL() << "v1 frame decoded";
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("version 1"), std::string::npos)
        << e.what();
  }
}

// Any single flipped bit in a v2 frame -- header or payload -- must fail
// the CRC (or a structural check) and be rejected; try_decode reports it
// without throwing.
TEST(ShardWire, CrcCatchesEveryBitFlip) {
  detail::StagingBuffer buf;
  buf.push(9, 4, Message{2, 0x123456789abcdef0ull, 3});
  buf.push(10, 4, Message{5, 6});
  const std::vector<unsigned char> bytes = encode_shard_buffer(1, 2, buf, 13);
  std::uint32_t sender = 0;
  std::uint32_t dest = 0;
  detail::StagingBuffer out;
  ASSERT_TRUE(try_decode_shard_buffer(bytes, &sender, &dest, &out));
  for (std::size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::vector<unsigned char> damaged = bytes;
    damaged[bit / 8] ^= static_cast<unsigned char>(1u << (bit % 8));
    EXPECT_FALSE(try_decode_shard_buffer(damaged, &sender, &dest, &out))
        << "flip of bit " << bit << " went undetected";
    EXPECT_THROW(decode_shard_buffer(damaged, &sender, &dest, &out),
                 CheckError);
  }
}

TEST(ShardWire, RejectsMalformedBuffers) {
  detail::StagingBuffer buf;
  buf.push(1, 0, Message{1, 1});
  std::vector<unsigned char> bytes = encode_shard_buffer(0, 1, buf);
  std::uint32_t sender = 0;
  std::uint32_t dest = 0;
  detail::StagingBuffer out;

  std::vector<unsigned char> truncated(bytes.begin(), bytes.end() - 4);
  EXPECT_THROW(decode_shard_buffer(truncated, &sender, &dest, &out),
               CheckError);
  std::vector<unsigned char> short_header(bytes.begin(), bytes.begin() + 10);
  EXPECT_THROW(decode_shard_buffer(short_header, &sender, &dest, &out),
               CheckError);
  std::vector<unsigned char> bad_magic = bytes;
  bad_magic[0] ^= 0xff;
  EXPECT_THROW(decode_shard_buffer(bad_magic, &sender, &dest, &out),
               CheckError);
  std::vector<unsigned char> bad_version = bytes;
  bad_version[4] ^= 0xff;
  EXPECT_THROW(decode_shard_buffer(bad_version, &sender, &dest, &out),
               CheckError);
}

TEST(ShardCount, ParserRejectsGarbageLoudly) {
  EXPECT_EQ(parse_shard_count("1"), 1);
  EXPECT_EQ(parse_shard_count("8"), 8);
  EXPECT_EQ(parse_shard_count(" 16 "), 16);
  EXPECT_THROW((void)parse_shard_count("0"), CheckError);
  EXPECT_THROW((void)parse_shard_count("-4"), CheckError);
  EXPECT_THROW((void)parse_shard_count(""), CheckError);
  EXPECT_THROW((void)parse_shard_count("four"), CheckError);
  EXPECT_THROW((void)parse_shard_count("4x"), CheckError);
  EXPECT_THROW((void)parse_shard_count("4.5"), CheckError);
  EXPECT_THROW((void)parse_shard_count("99999999999999999999"), CheckError);
  EXPECT_THROW((void)parse_shard_count("1048577"), CheckError);  // > 2^20
  EXPECT_THROW((void)parse_shard_count(nullptr), CheckError);
}

// A garbage XD_SHARDS value must fail Network construction loudly, not
// silently fall back to one shard.
TEST(ShardCount, NetworkCtorRejectsGarbageEnv) {
  const char* saved = std::getenv("XD_SHARDS");
  const std::string restore = saved != nullptr ? saved : "";
  const Graph g = gen::star(5);
  RoundLedger ledger;
  ::setenv("XD_SHARDS", "bogus", 1);
  EXPECT_THROW((Network{g, ledger}), CheckError);
  ::setenv("XD_SHARDS", "0", 1);
  EXPECT_THROW((Network{g, ledger}), CheckError);
  ::setenv("XD_SHARDS", "2", 1);
  {
    Network net(g, ledger);
    EXPECT_EQ(net.shards(), 2);
  }
  if (saved != nullptr) {
    ::setenv("XD_SHARDS", restore.c_str(), 1);
  } else {
    ::unsetenv("XD_SHARDS");
  }
}

}  // namespace
}  // namespace xd::congest
