// The workloads: build-sbm and build-dense time prepare_artifact on planted
// partitions, then serve each artifact through a closed loop against
// QueryService.  Every run also checks its outputs (triangle set, Theorem 1
// certificate, determinism, XDA1 round trip, served answers).

#include <sys/resource.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>

#include "bench.hpp"
#include "expander/cross_check.hpp"
#include "expander/verify.hpp"
#include "serve_loop.hpp"
#include "triangle/baseline_local.hpp"

namespace perfbench {

using xd::serve::PreparedArtifact;

namespace {

constexpr int kBuildSetupReps = 15;  ///< graph generation repetitions
constexpr int kLoadReps = 15;        ///< timed loads per artifact
constexpr double kServeSliceSeconds = 1.0;  ///< serving after each build

std::uint64_t mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Outcome of the exactness and contract checks on one artifact.
struct ArtifactCheck {
  bool triangles_exact = false;
  bool dcmp_ok = false;          ///< verify_decomposition at φ_k
  bool round_trip_exact = false; ///< save -> load -> save byte-identical
  std::uint64_t bad_components = 0;   ///< conductance_lower < φ_k
  std::uint64_t lower_gt_upper = 0;   ///< certified lower > witnessed upper
  std::uint64_t inter_edges = 0;
  std::uint64_t edges = 0;
  std::uint64_t artifact_bytes = 0;
  double load_s = 0.0;                ///< median of kLoadReps loads
  PreparedArtifact loaded;
};

ArtifactCheck check_artifact(const Instance& inst, const PreparedArtifact& art,
                             const std::string& path, Tracer& tracer) {
  const xd::Graph& g = inst.graph;
  ArtifactCheck c;
  {
    const auto span = tracer.span("triangle.local_baseline");
    xd::congest::RoundLedger ledger;
    c.triangles_exact =
        xd::triangle::enumerate_local_baseline(g, ledger).triangles ==
        art.triangles;
  }
  {
    const auto span = tracer.span("expander.verify");
    const auto dprm = decomposition_params(inst.prepare);
    const double phi_k =
        xd::expander::derive_schedule(dprm, g.num_vertices(), g.num_edges(),
                                      g.volume())
            .phi_final();
    const auto rep =
        xd::expander::verify_decomposition(g, dcmp_of(art), dprm.epsilon, phi_k);
    c.dcmp_ok = rep.ok();
    for (const auto& q : rep.components) {
      if (q.conductance_lower < phi_k) ++c.bad_components;
      if (q.conductance_lower > q.conductance_upper) ++c.lower_gt_upper;
    }
    c.inter_edges = rep.inter_component_edges;
    c.edges = g.num_edges();
  }
  {
    const auto span = tracer.span("serve.save_artifact");
    xd::serve::save_artifact(art, path);
  }
  c.artifact_bytes = std::filesystem::file_size(path);
  std::vector<double> loads;
  for (int r = 0; r < kLoadReps; ++r) {
    const auto span = tracer.span("serve.load_artifact");
    const auto t0 = Clock::now();
    c.loaded = xd::serve::load_artifact(path);
    loads.push_back(seconds_since(t0));
  }
  c.load_s = median(loads);
  const std::string again = path + ".again";
  xd::serve::save_artifact(c.loaded, again);
  c.round_trip_exact = read_file(path) == read_file(again);
  std::filesystem::remove(path);
  std::filesystem::remove(again);
  return c;
}

/// Tallies and metrics shared by every workload.
struct Accumulated {
  std::vector<double> setup_s;
  std::vector<double> build_s;          ///< per round, mean per instance
  std::vector<double> build_s_traced;   ///< traced rounds (trace mode)
  std::uint64_t build_rounds = 0;       ///< summed over instances
  std::uint64_t build_messages = 0;
  std::uint64_t inter_edges = 0;
  std::uint64_t edges = 0;
  std::uint64_t bad_components = 0;
  std::uint64_t lower_gt_upper = 0;
  std::uint64_t artifact_bytes = 0;
  std::vector<double> load_s;           ///< per instance
  LoopStats serve;
  LoopStats serve_traced;
  LatencySample latency;
  LatencySample latency_traced;
};

/// One instance's checked and loaded artifact, and what serving it found.
struct Served {
  ArtifactCheck check;
  QueryPool pool;
  std::vector<char> pool_failed;  ///< per pool query: a bad answer seen
  std::uint64_t wrong = 0;        ///< answers differing from the reference
};

/// Books instance `inst`.  Its build is one operation, failed when the
/// checks fail or when a repeated build's signature differed from the
/// first build's.  Each pool query is one operation, failed when any of its
/// answers was degraded or differed from the reference (a difference is
/// also an exactness error).  Counting each once, however many times the
/// timed loop built or served it, keeps `attempted` and `failed` a
/// function of the seed alone.
void book(const Instance& inst, const PreparedArtifact& art, const Served& s,
          std::uint64_t nondeterministic, Tally& tally, Accumulated& acc) {
  const ArtifactCheck& check = s.check;
  const std::string tag = "instance graph_seed=" +
                          std::to_string(inst.graph_seed) + ": ";
  if (!check.triangles_exact) {
    tally.inexact(tag + "triangle set differs from enumerate_local_baseline");
  }
  if (!check.round_trip_exact) {
    tally.inexact(tag + "save -> load -> save is not byte-identical");
  }
  if (nondeterministic > 0) {
    tally.inexact(tag + "repeated builds differ in rounds, messages, DCMP "
                        "or triangles");
  }
  if (s.wrong > 0) {
    tally.inexact(tag + std::to_string(s.wrong) +
                  " served answers differ from the artifact reference");
  }
  if (!check.dcmp_ok) {
    tally.problems.push_back(
        tag + "DCMP fails verify_decomposition at phi_k (" +
        std::to_string(check.bad_components) + " components below phi_k)");
  }
  const bool checks_ok =
      check.triangles_exact && check.round_trip_exact && check.dcmp_ok;
  tally.op(checks_ok && nondeterministic == 0);
  const auto bad = static_cast<std::uint64_t>(
      std::count(s.pool_failed.begin(), s.pool_failed.end(), 1));
  tally.op(true, s.pool_failed.size() - bad);
  tally.op(false, bad);

  acc.build_rounds += art.build_rounds;
  acc.build_messages += art.build_messages;
  acc.inter_edges += check.inter_edges;
  acc.edges += check.edges;
  acc.bad_components += check.bad_components;
  acc.lower_gt_upper += check.lower_gt_upper;
  acc.artifact_bytes += check.artifact_bytes;
  acc.load_s.push_back(check.load_s);
}

std::string artifact_path(const Options& opt, std::size_t i) {
  return opt.out_dir + "/" + opt.workload + "-" + std::to_string(opt.seed) +
         "-" + std::to_string(i) + ".xda";
}

double mean(const std::vector<double>& v) {
  double s = 0.0;
  for (const double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

void emit(const Accumulated& acc, std::size_t instances, Tracer& tracer,
          RunResult& out) {
  const double k = static_cast<double>(instances);
  const LoopStats& sv = acc.serve;
  if (!tracer.enabled()) {
    Metrics& m = out.e2e;
    m.set("setup_s", median(acc.setup_s), "s");
    m.set("build_s", median(acc.build_s), "s");
    m.set("build_rounds", static_cast<double>(acc.build_rounds) / k, "count");
    m.set("build_messages", static_cast<double>(acc.build_messages) / k,
          "count");
    m.set("cut_frac",
          static_cast<double>(acc.inter_edges) / static_cast<double>(acc.edges),
          "fraction");
    m.set("load_s", mean(acc.load_s), "s");
    m.set("peak_rss_mb", peak_rss_mb(), "MB");
    return;
  }
  Metrics& m = out.layers;
  const LoopStats& tr = acc.serve_traced;
  const std::vector<double> flush = tracer.durations("serve.flush");
  m.set("serve.save_s", tracer.total("serve.save_artifact") /
                            static_cast<double>(
                                tracer.durations("serve.save_artifact").size()),
        "s");
  m.set("serve.artifact_bytes", static_cast<double>(acc.artifact_bytes) / k,
        "bytes");
  m.set("serve.load_s", mean(acc.load_s), "s");
  // Serving as measured in the untraced rounds.
  m.set("serve.qps", sv.qps(), "1/s");
  m.set("serve.p50_us", percentile(acc.latency.values(), 0.50), "us");
  m.set("serve.p99_us", percentile(acc.latency.values(), 0.99), "us");
  m.set("serve.flush_p50_s", percentile(flush, 0.50), "s");
  m.set("serve.flush_p99_s", percentile(flush, 0.99), "s");
  m.set("serve.batch",
        static_cast<double>(tr.served) / static_cast<double>(tr.flushes),
        "queries");
  m.set("serve.flush_share",
        tracer.total("serve.flush") / tracer.total("serve.closed_loop"),
        "fraction");
  m.set("serve.client_self_s", tracer.self_total("serve.closed_loop"), "s");
  m.set("serve.rejected_frac",
        static_cast<double>(sv.rejected + tr.rejected) /
            static_cast<double>(sv.submits + tr.submits),
        "fraction");
  m.set("serve.degraded", static_cast<double>(sv.degraded + tr.degraded),
        "count");
  m.set("serve.drain_rounds",
        static_cast<double>(tr.drain_rounds) / static_cast<double>(tr.flushes),
        "rounds/flush");
  m.set("serve.query_rounds",
        static_cast<double>(tr.query_rounds) / static_cast<double>(tr.flushes),
        "rounds/flush");
  m.set("expander.bad_components", static_cast<double>(acc.bad_components),
        "count");
  m.set("expander.lower_gt_upper", static_cast<double>(acc.lower_gt_upper),
        "count");
  m.set("trace.build_overhead_s",
        median(acc.build_s_traced) - median(acc.build_s), "s");
  m.set("trace.serve_overhead_us",
        acc.latency_traced.mean() - acc.latency.mean(), "us");
  m.set("bench.build_self_s", tracer.self_total("build.round"), "s");
  m.set("checks.failed_frac",
        static_cast<double>(out.tally.failed) /
            static_cast<double>(out.tally.attempted),
        "fraction");
  m.set("trace.peak_rss_mb", peak_rss_mb(), "MB");
}

/// The timed builds.  Records each artifact's signature (the first
/// round's, or a mismatch against it).
struct Builds {
  std::vector<PreparedArtifact> arts;
  std::vector<BuildSignature> first;
  std::vector<std::uint64_t> nondeterministic;
  std::uint64_t rounds = 0;  ///< completed rounds

  explicit Builds(std::size_t k) : arts(k), first(k), nondeterministic(k, 0) {}

  /// Builds instance i in the current round; returns its wall time.
  double build(const Instance& inst, std::size_t i, Tracer& tracer) {
    double seconds = 0.0;
    {
      const auto prep = tracer.span("serve.prepare_artifact");
      const auto t0 = Clock::now();
      arts[i] = xd::serve::prepare_artifact(inst.graph, inst.prepare);
      seconds = seconds_since(t0);
    }
    const BuildSignature sig = signature(arts[i]);
    if (rounds == 0) {
      first[i] = sig;
    } else if (!(sig == first[i])) {
      ++nondeterministic[i];
    }
    return seconds;
  }
};

void run_builds(const Options& opt, const WorkloadSpec& spec, Tracer& tracer,
                RunResult& out) {
  Accumulated acc;
  std::vector<Instance> inst;
  for (int rep = 0; rep < kBuildSetupReps; ++rep) {
    const auto span = tracer.span("setup.generate");
    const auto t0 = Clock::now();
    inst = make_instances(spec, opt.seed);
    acc.setup_s.push_back(seconds_since(t0));
  }

  // Measured loop: rounds of one prepare_artifact per instance, until the
  // next round would overrun the run length (at least two rounds, so
  // determinism is checked).  Each build is followed by a slice of serving
  // its artifact, which the first round checks and loads.  Serving is thus
  // sampled across the whole run, not in one stretch: on a shared host the
  // serving rate changes by a quarter from one second to the next.  The
  // traced run alternates untraced and traced rounds, serving included;
  // the checks are always recorded.
  const std::size_t k = inst.size();
  Builds builds(k);
  std::vector<Served> served(k);
  const auto t0 = Clock::now();
  while (true) {
    const bool traced = tracer.enabled() && builds.rounds % 2 == 1;
    tracer.set_recording(traced);
    double total = 0.0;
    {
      const auto span = tracer.span("build.round");
      for (std::size_t i = 0; i < k; ++i) {
        total += builds.build(inst[i], i, tracer);
        Served& s = served[i];
        if (builds.rounds == 0) {
          tracer.set_recording(true);
          s.check = check_artifact(inst[i], builds.arts[i],
                                   artifact_path(opt, i), tracer);
          tracer.set_recording(traced);
          s.pool = make_query_pool(s.check.loaded, spec.graph.block,
                                   mix(inst[i].graph_seed));
          s.pool_failed.assign(s.pool.queries.size(), 0);
        }
        const LoopStats st =
            closed_loop(s.check.loaded, s.pool, kServiceThreads,
                        kServeSliceSeconds, tracer,
                        traced ? acc.latency_traced : acc.latency,
                        s.pool_failed);
        s.wrong += st.wrong;
        (traced ? acc.serve_traced : acc.serve).add(st);
      }
    }
    ++builds.rounds;
    (traced ? acc.build_s_traced : acc.build_s)
        .push_back(total / static_cast<double>(k));
    const double elapsed = seconds_since(t0);
    const auto done = static_cast<double>(builds.rounds);
    if (builds.rounds >= 2 && elapsed + elapsed / done > opt.seconds) break;
  }
  tracer.set_recording(true);

  for (std::size_t i = 0; i < k; ++i) {
    book(inst[i], builds.arts[i], served[i], builds.nondeterministic[i],
         out.tally, acc);
  }
  emit(acc, k, tracer, out);
  if (tracer.enabled()) {
    layer_pass(inst[0], builds.arts[0], spec.graph.block, tracer, out.layers);
  }
}

}  // namespace

std::vector<Instance> make_instances(const WorkloadSpec& spec,
                                     std::uint64_t seed) {
  std::vector<Instance> out(spec.instances);
  for (std::size_t i = 0; i < spec.instances; ++i) {
    Instance& inst = out[i];
    inst.graph_seed = mix(seed * 0x100 + i);
    inst.prepare.seed = mix(inst.graph_seed);
    inst.prepare.enumerate.scheduler_threads = kBuildThreads;
    inst.graph = planted_partition(spec.graph, inst.graph_seed);
  }
  return out;
}

xd::expander::DecompositionParams decomposition_params(
    const xd::serve::PrepareParams& prm) {
  xd::expander::DecompositionParams d;
  d.epsilon = prm.enumerate.epsilon;
  d.k = prm.enumerate.k;
  d.phi0_override = prm.enumerate.phi0_override;
  d.scheduler_threads = prm.enumerate.scheduler_threads;
  d.backend = prm.decomp_backend;
  return d;
}

xd::expander::DecompositionResult dcmp_of(const PreparedArtifact& art) {
  xd::expander::DecompositionResult d;
  d.component = art.component;
  d.num_components = art.num_components;
  d.removed_edge = art.removed_edge;
  for (int r = 0; r < 3; ++r) d.removed_by[r] = art.removed_by[r];
  return d;
}

BuildSignature signature(const PreparedArtifact& art) {
  BuildSignature s;
  s.rounds = art.build_rounds;
  s.messages = art.build_messages;
  s.dcmp = xd::expander::partition_fingerprint(dcmp_of(art));
  std::uint64_t h = art.triangles.size();
  for (const auto& t : art.triangles) {
    h = mix(h ^ (std::uint64_t{t[0]} << 32 | t[1])) ^ t[2];
  }
  s.triangles = h;
  return s;
}

void run_workload(const Options& opt, const WorkloadSpec& spec,
                  Tracer& tracer, RunResult& out) {
  run_builds(opt, spec, tracer, out);
}

}  // namespace perfbench
