#include "expander/cross_check.hpp"

#include <cmath>
#include <sstream>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace xd::expander {

namespace {

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return h;
}

/// The determinism contract compares the full output, not a digest: a
/// digest collision may be astronomically unlikely, but a direct compare
/// is just as cheap and names no failure mode at all.
bool outputs_identical(const DecompositionResult& a,
                       const DecompositionResult& b) {
  return a.component == b.component && a.num_components == b.num_components &&
         a.removed_edge == b.removed_edge &&
         a.removed_by[0] == b.removed_by[0] &&
         a.removed_by[1] == b.removed_by[1] &&
         a.removed_by[2] == b.removed_by[2] &&
         a.guard_finalized == b.guard_finalized &&
         a.sparse_cut_calls == b.sparse_cut_calls;
}

DecompositionResult run_once(const Graph& g, DecompositionParams prm,
                             std::uint64_t seed, int threads,
                             std::uint64_t* rounds_out = nullptr) {
  prm.scheduler_threads = threads;
  Rng rng(seed);
  congest::RoundLedger ledger;
  DecompositionResult res = expander_decomposition(g, prm, rng, ledger);
  if (rounds_out != nullptr) *rounds_out = ledger.rounds();
  return res;
}

}  // namespace

std::uint64_t theorem1_round_budget(std::size_t n, std::size_t m) {
  XD_CHECK(n >= 2);
  std::uint64_t log2n = 0;
  while ((std::uint64_t{1} << log2n) < n) ++log2n;
  const std::uint64_t polylog = (log2n + 1) * (log2n + 1) * (log2n + 1);
  return 32 * static_cast<std::uint64_t>(n + m) * polylog;
}

std::uint64_t partition_fingerprint(const DecompositionResult& result) {
  std::uint64_t h = 0;
  h = mix(h, result.num_components);
  for (const std::uint32_t c : result.component) h = mix(h, c);
  for (const char r : result.removed_edge) {
    h = mix(h, static_cast<std::uint64_t>(r != 0));
  }
  for (const std::uint64_t r : result.removed_by) h = mix(h, r);
  return h;
}

Theorem1Observation observe_theorem1(const Graph& g, DecompositionParams prm,
                                     std::uint64_t seed) {
  Theorem1Observation obs;

  std::uint64_t seq_rounds = 0;
  obs.result = run_once(g, prm, seed, /*threads=*/0, &seq_rounds);
  obs.fingerprint = partition_fingerprint(obs.result);
  obs.round_budget = theorem1_round_budget(g.num_vertices(), g.num_edges());

  const auto fail = [&](const std::string& what) {
    obs.violations.push_back(what);
  };

  // (1) The verify.cpp oracles, against the schedule's φ_k floor.
  const double phi = obs.result.schedule.phi_final();
  obs.report = verify_decomposition(g, obs.result, prm.epsilon, phi);
  if (!obs.report.is_partition) fail("components do not partition V");
  if (!obs.report.cut_within_epsilon) {
    std::ostringstream msg;
    msg << "cut fraction " << obs.report.cut_fraction << " exceeds epsilon "
        << prm.epsilon;
    fail(msg.str());
  }
  if (!obs.report.conductance_meets_phi) {
    std::ostringstream msg;
    msg << "min conductance lower bound " << obs.report.min_conductance_lower
        << " below promised phi " << phi;
    fail(msg.str());
  }

  // (2) Charged budget on the sequential (summing) accounting.
  if (seq_rounds > obs.round_budget) {
    std::ostringstream msg;
    msg << "sequential rounds " << seq_rounds << " exceed the charged budget "
        << obs.round_budget;
    fail(msg.str());
  }

  // (3) Bit-identical outputs at every scheduler thread count, and the
  // epoch-max accounting never charges more than the sequential sum.
  for (const int threads : {1, 2, 8}) {
    std::uint64_t rounds = 0;
    const DecompositionResult forked = run_once(g, prm, seed, threads, &rounds);
    if (threads == 2) obs.scheduled_rounds = rounds;
    if (!outputs_identical(obs.result, forked)) {
      std::ostringstream msg;
      msg << "output at scheduler_threads=" << threads
          << " diverges from the sequential run";
      fail(msg.str());
    }
    if (rounds > seq_rounds) {
      std::ostringstream msg;
      msg << "scheduled rounds " << rounds << " at threads=" << threads
          << " exceed the sequential sum " << seq_rounds;
      fail(msg.str());
    }
  }
  return obs;
}

std::string Theorem1Observation::summary() const {
  std::string all;
  for (const std::string& v : violations) {
    if (!all.empty()) all += "; ";
    all += v;
  }
  return all;
}

}  // namespace xd::expander
