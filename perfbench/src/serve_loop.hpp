#pragma once

// Closed-loop clients for xd::serve::QueryService, with every answer checked
// against a reference read directly from the PreparedArtifact.

#include <cstdint>
#include <vector>

#include "serve/artifact.hpp"
#include "serve/service.hpp"
#include "trace.hpp"

namespace perfbench {

/// A fixed, seeded query mix plus the reference answer of each query.
struct QueryPool {
  std::vector<xd::serve::Query> queries;
  struct Answer {
    bool ok = false;
    std::uint64_t value = 0;
    double scalar = 0.0;
    std::vector<std::uint32_t> ids;
  };
  std::vector<Answer> answers;
};

/// 30% route (both ends in one planted block of `block` vertices), 30%
/// triangles-of, 10% each membership (half of them listed triangles),
/// count, conductance and component-of.
QueryPool make_query_pool(const xd::serve::PreparedArtifact& art,
                          std::size_t block, std::uint64_t seed);

/// Uniform sample of at most kCapacity latencies (reservoir sampling), so
/// the benchmark's own memory does not grow with the query rate.
class LatencySample {
 public:
  static constexpr std::size_t kCapacity = 1 << 20;
  void add(double us);
  [[nodiscard]] const std::vector<double>& values() const { return values_; }
  [[nodiscard]] double mean() const {
    return seen_ ? sum_ / static_cast<double>(seen_) : 0.0;
  }

 private:
  std::vector<double> values_;
  std::uint64_t seen_ = 0;
  double sum_ = 0.0;
  std::uint64_t state_ = 0x5EED;
};

struct LoopStats {
  double seconds = 0.0;           ///< loop wall time
  std::uint64_t served = 0;       ///< answers received
  std::uint64_t wrong = 0;        ///< answers differing from the reference
  std::uint64_t degraded = 0;     ///< answers with exact == false
  std::uint64_t submits = 0;      ///< submit() calls, retries included
  std::uint64_t rejected = 0;     ///< backpressure rejections (retried)
  std::uint64_t flushes = 0;
  std::uint64_t drain_rounds = 0; ///< service ledger, "Serve/drain"
  std::uint64_t query_rounds = 0; ///< service ledger, "Serve/query"

  void add(const LoopStats& other);
  [[nodiscard]] double qps() const {
    return seconds > 0 ? static_cast<double>(served) / seconds : 0.0;
  }
};

inline constexpr std::size_t kClients = 256;
/// Service workers of the measured loops.  With more than one, each flush
/// forks and joins them, and a worker whose core the host takes away for a
/// moment stalls the whole batch: on a shared host that halves qps and
/// multiplies p99 for as long as the host is busy.  One worker answers
/// inline; the forked service is measured in the traced run
/// (serve.qps_t4, serve.p99_us_t4).
inline constexpr int kServiceThreads = 1;

/// Runs `kClients` closed-loop clients (one outstanding query each)
/// against one QueryService with `threads` workers, for `seconds` and at
/// least until every pool query has been answered once.  Each flush() is a
/// "serve.flush" span inside a "serve.closed_loop" span.  Every answer's
/// latency -- from the client's first submit attempt to the flush return
/// that delivered it, backpressure waits included -- goes into `latency`.
/// `pool_failed` (one flag per pool query) is set for each query that got
/// a degraded or wrong answer.
LoopStats closed_loop(const xd::serve::PreparedArtifact& art,
                      const QueryPool& pool, int threads, double seconds,
                      Tracer& tracer, LatencySample& latency,
                      std::vector<char>& pool_failed);

}  // namespace perfbench
