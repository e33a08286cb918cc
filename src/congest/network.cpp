#include "congest/network.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>

#include "congest/scheduler.hpp"
#include "util/check.hpp"

namespace xd::congest {

int parse_shard_count(const char* text) {
  XD_CHECK_MSG(text != nullptr, "shard count: null string");
  errno = 0;
  char* end = nullptr;
  const long v = std::strtol(text, &end, 10);
  XD_CHECK_MSG(end != text, "shard count '" << text << "' is not a number");
  while (*end != '\0' &&
         std::isspace(static_cast<unsigned char>(*end)) != 0) {
    ++end;
  }
  XD_CHECK_MSG(*end == '\0',
               "shard count '" << text << "' has trailing garbage");
  XD_CHECK_MSG(errno != ERANGE && v >= 1 && v <= (1L << 20),
               "shard count " << text << " out of range [1, 2^20]");
  return static_cast<int>(v);
}

Network::Network(const Graph& graph, RoundLedger& ledger, std::uint64_t seed)
    : graph_(&graph), ledger_(&ledger) {
  Rng master(seed);
  rngs_.reserve(graph.num_vertices());
  for (VertexId v = 0; v < graph.num_vertices(); ++v) {
    rngs_.push_back(master.fork(v));
  }
  // XD_SHARDS sets the shard count of every network in the process -- how
  // the *_sharded CTest variants re-run whole suites over a multi-shard
  // plane without touching call sites (docs/sharding.md).
  const char* env = std::getenv("XD_SHARDS");
  plane_.configure(graph, env != nullptr ? parse_shard_count(env) : 1);
}

void Network::set_threads(int threads) {
  XD_CHECK_MSG(threads >= 1, "thread count must be >= 1");
  threads_ = threads;
}

void Network::set_shards(int shards) {
  XD_CHECK_MSG(shards >= 1, "shard count must be >= 1");
  XD_CHECK_MSG(staged() == 0,
               "cannot reshard while " << staged() << " messages are staged");
  plane_.configure(*graph_, shards);
}

// Staging aggregates at the sender: records go straight into the sender
// shard's per-destination buffers, preserving per-sender staging order --
// the only order the canonical delivery sort can observe.  Distinct sender
// shards write disjoint buffer rows, so the parallel send phase may call
// these concurrently.

void Network::send(VertexId from, std::uint32_t slot, const Message& msg) {
  XD_CHECK_MSG(from < graph_->num_vertices(), "bad sender " << from);
  XD_CHECK_MSG(slot < graph_->degree(from),
               "slot " << slot << " out of range for vertex " << from);
  XD_CHECK_MSG(graph_->neighbors(from)[slot] != from,
               "cannot send over a self-loop slot");
  // Directed slot index: position of this slot in the global CSR layout.
  // Unique per (from, slot) pair, which is exactly per directed edge use.
  plane_.stage(graph_->slot_base(from) + slot, from, msg);
}

void Network::send_to(VertexId from, VertexId to, const Message& msg) {
  XD_CHECK_MSG(from < graph_->num_vertices(), "bad sender " << from);
  XD_CHECK_MSG(to != from, "cannot send over a self-loop slot");
  std::uint64_t probes = 0;
  const std::uint32_t slot = graph_->slot_of(from, to, &probes);
  slot_lookup_probes_.fetch_add(probes, std::memory_order_relaxed);
  XD_CHECK_MSG(slot != Graph::kNoSlot,
               "send_to: {" << from << "," << to << "} is not an edge");
  plane_.stage(graph_->slot_base(from) + slot, from, msg);
}

std::uint64_t Network::exchange(std::string_view reason) {
  return do_exchange(reason, /*has_override=*/false, 0);
}

std::uint64_t Network::exchange_charging(std::string_view reason,
                                         std::uint64_t rounds_override) {
  return do_exchange(reason, /*has_override=*/true, rounds_override);
}

std::uint64_t Network::do_exchange(std::string_view reason, bool has_override,
                                   std::uint64_t rounds_override) {
  plane_.deliver(threads_);
  const ShardDeliveryStats& st = plane_.last_delivery();
  ledger_->count_messages(st.staged);
  std::uint64_t rounds = std::max<std::uint64_t>(st.max_congestion, 1);
  if (has_override) {
    XD_CHECK_MSG(
        st.max_congestion <= std::max<std::uint64_t>(rounds_override, 1),
        "exchange_charging: congestion " << st.max_congestion
                                         << " exceeds declared rounds "
                                         << rounds_override);
    rounds = rounds_override;
  }
  if (rounds > 0) ledger_->charge(rounds, reason);
  return rounds;
}

std::uint64_t Network::run_round(VertexProgram& program,
                                 std::string_view reason) {
  const int S = plane_.shards();
  const int workers = std::min(threads_, S);

  // Send phase: the shard is the partition unit -- each worker runs whole
  // shards, staging straight into that sender shard's aggregation buffers
  // (rows are disjoint across shards), so which worker runs a shard can
  // never change what gets staged where.  EpochScheduler::run_partitioned
  // runs one worker inline and rethrows the first worker exception after
  // its join barrier.
  EpochScheduler::run_partitioned(
      static_cast<std::size_t>(S), workers,
      [&](int /*w*/, std::size_t lo, std::size_t hi) {
        Outbox out(this);
        for (std::size_t s = lo; s < hi; ++s) {
          const auto [vlo, vhi] = plane_.shard_range(static_cast<int>(s));
          for (auto v = static_cast<VertexId>(vlo); v < vhi; ++v) {
            out.vertex_ = v;
            program.on_send(v, out);
          }
        }
      });

  const std::uint64_t rounds = do_exchange(reason, false, 0);

  EpochScheduler::run_partitioned(
      static_cast<std::size_t>(S), workers,
      [&](int /*w*/, std::size_t lo, std::size_t hi) {
        for (std::size_t s = lo; s < hi; ++s) {
          const auto [vlo, vhi] = plane_.shard_range(static_cast<int>(s));
          for (auto v = static_cast<VertexId>(vlo); v < vhi; ++v) {
            program.on_receive(v, inbox(v));
          }
        }
      });
  return rounds;
}

std::uint64_t Network::run_rounds(VertexProgram& program, int rounds,
                                  std::string_view reason) {
  std::uint64_t total = 0;
  for (int r = 0; r < rounds; ++r) total += run_round(program, reason);
  return total;
}

void Network::tick(std::uint64_t rounds, std::string_view reason) {
  if (rounds > 0) ledger_->charge(rounds, reason);
}

// ---------------------------------------------------------------- Outbox --

void Outbox::send(std::uint32_t slot, const Message& msg) {
  net_->send(vertex_, slot, msg);
}

void Outbox::send_to(VertexId to, const Message& msg) {
  net_->send_to(vertex_, to, msg);
}

Rng& Outbox::rng() const { return net_->rng(vertex_); }

}  // namespace xd::congest
