#include "serve_loop.hpp"

#include <cmath>
#include <deque>
#include <utility>

#include "util/rng.hpp"

namespace perfbench {

using xd::VertexId;
using xd::serve::Query;
using xd::serve::QueryKind;

namespace {

constexpr std::size_t kPoolSize = 4096;

QueryPool::Answer reference(const xd::serve::PreparedArtifact& art,
                            const Query& q) {
  QueryPool::Answer a;
  a.ok = true;
  switch (q.kind) {
    case QueryKind::kTriangleCount:
      a.value = art.triangle_count();
      break;
    case QueryKind::kTrianglesOf: {
      const auto ids = art.triangles_of(q.a);
      a.ids.assign(ids.begin(), ids.end());
      a.value = ids.size();
      break;
    }
    case QueryKind::kTriangleMembership:
      a.value = art.has_triangle(q.a, q.b, q.c) ? 1 : 0;
      break;
    case QueryKind::kRoute: {
      std::vector<VertexId> path;
      a.ok = art.relay_path(q.a, q.b, path);
      if (a.ok) {
        a.value = path.size() - 1;
        a.ids.assign(path.begin(), path.end());
      }
      break;
    }
    case QueryKind::kConductance:
      a.scalar = art.components[q.a].conductance;
      a.value = art.components[q.a].size;
      break;
    case QueryKind::kComponentOf:
      a.value = art.component_of(q.a);
      break;
  }
  return a;
}

bool matches(const xd::serve::QueryResult& r, const QueryPool::Answer& a) {
  if (r.ok != a.ok || r.value != a.value || r.ids != a.ids) return false;
  // Conductance of a component with an empty side is +inf; compare bits.
  return r.kind != QueryKind::kConductance || r.scalar == a.scalar ||
         (std::isinf(r.scalar) && std::isinf(a.scalar));
}

}  // namespace

QueryPool make_query_pool(const xd::serve::PreparedArtifact& art,
                          std::size_t block, std::uint64_t seed) {
  const std::size_t n = art.graph.num_vertices();
  xd::Rng rng(seed);
  const auto vertex = [&] { return static_cast<VertexId>(rng.next_below(n)); };
  QueryPool pool;
  pool.queries.reserve(kPoolSize);
  for (std::size_t i = 0; i < kPoolSize; ++i) {
    Query q;
    const std::uint64_t pick = rng.next_below(10);
    if (pick < 3) {
      q.kind = QueryKind::kRoute;
      const std::size_t base = rng.next_below(n / block) * block;
      q.a = static_cast<VertexId>(base + rng.next_below(block));
      q.b = static_cast<VertexId>(base + rng.next_below(block));
    } else if (pick < 6) {
      q.kind = QueryKind::kTrianglesOf;
      q.a = vertex();
    } else if (pick < 7) {
      q.kind = QueryKind::kTriangleMembership;
      if (!art.triangles.empty() && rng.next_bool(0.5)) {
        auto t = art.triangles[rng.next_below(art.triangles.size())];
        std::swap(t[0], t[rng.next_below(3)]);
        q.a = t[0];
        q.b = t[1];
        q.c = t[2];
      } else {
        q.a = vertex();
        q.b = vertex();
        q.c = vertex();
      }
    } else if (pick < 8) {
      q.kind = QueryKind::kTriangleCount;
    } else if (pick < 9) {
      q.kind = QueryKind::kConductance;
      q.a = static_cast<VertexId>(rng.next_below(art.num_components));
    } else {
      q.kind = QueryKind::kComponentOf;
      q.a = vertex();
    }
    pool.queries.push_back(q);
  }
  pool.answers.reserve(kPoolSize);
  for (const Query& q : pool.queries) pool.answers.push_back(reference(art, q));
  return pool;
}

void LatencySample::add(double us) {
  ++seen_;
  sum_ += us;
  if (values_.size() < kCapacity) {
    if (values_.empty()) values_.reserve(kCapacity);
    values_.push_back(us);
    return;
  }
  state_ = state_ * 6364136223846793005ULL + 1442695040888963407ULL;
  const std::uint64_t slot = (state_ >> 11) % seen_;
  if (slot < kCapacity) values_[slot] = us;
}

void LoopStats::add(const LoopStats& o) {
  seconds += o.seconds;
  served += o.served;
  wrong += o.wrong;
  degraded += o.degraded;
  submits += o.submits;
  rejected += o.rejected;
  flushes += o.flushes;
  drain_rounds += o.drain_rounds;
  query_rounds += o.query_rounds;
}

LoopStats closed_loop(const xd::serve::PreparedArtifact& art,
                      const QueryPool& pool, int threads, double seconds,
                      Tracer& tracer, LatencySample& latency,
                      std::vector<char>& pool_failed) {
  xd::serve::ServiceParams prm;
  prm.threads = threads;
  // A quarter of the clients fit in the admission queue, so the loop runs
  // against backpressure: rejected clients retry after the next flush.
  prm.max_pending = kClients / 4;
  xd::serve::QueryService svc(art, prm);

  LoopStats st;
  // Clients wait in FIFO order, so a rejected client is first in line
  // after the next flush and none starves.
  std::deque<std::uint32_t> ready;
  for (std::uint32_t c = 0; c < kClients; ++c) ready.push_back(c);
  std::vector<std::size_t> query_of(kClients, 0);
  std::vector<char> has_query(kClients, 0);
  std::vector<Clock::time_point> first_try(kClients);
  std::size_t cursor = 0;
  std::vector<char> answered(pool.queries.size(), 0);
  std::size_t unanswered = pool.queries.size();

  const auto span = tracer.span("serve.closed_loop");
  const auto t0 = Clock::now();
  while (seconds_since(t0) < seconds || unanswered > 0) {
    while (!ready.empty()) {
      const std::uint32_t c = ready.front();
      if (!has_query[c]) {
        query_of[c] = cursor++ % pool.queries.size();
        has_query[c] = 1;
        first_try[c] = Clock::now();
      }
      ++st.submits;
      if (!svc.submit(c, pool.queries[query_of[c]])) {
        ++st.rejected;
        break;
      }
      ready.pop_front();
    }
    std::vector<xd::serve::QueryResult> batch;
    {
      const auto flush_span = tracer.span("serve.flush");
      batch = svc.flush();
    }
    const auto done = Clock::now();
    ++st.flushes;
    for (const auto& r : batch) {
      const std::uint32_t c = r.client;
      const std::size_t q = query_of[c];
      latency.add(std::chrono::duration<double, std::micro>(done - first_try[c])
                      .count());
      if (!r.exact) {
        ++st.degraded;  // a fallback answer, not compared
        pool_failed[q] = 1;
      } else if (!matches(r, pool.answers[q])) {
        ++st.wrong;
        pool_failed[q] = 1;
      }
      if (!answered[q]) {
        answered[q] = 1;
        --unanswered;
      }
      has_query[c] = 0;
      ready.push_back(c);
    }
    st.served += batch.size();
  }
  st.seconds = seconds_since(t0);
  st.drain_rounds = svc.ledger().rounds_for("Serve/drain");
  st.query_rounds = svc.ledger().rounds_for("Serve/query");
  return st;
}

}  // namespace perfbench
