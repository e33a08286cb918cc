#pragma once

// Shared types of the benchmark program: workloads, build instances,
// correctness tallies and the per-run outputs.

#include <cstdint>
#include <string>
#include <vector>

#include "expander/decomposition.hpp"
#include "expander/params.hpp"
#include "graph/graph.hpp"
#include "graphs.hpp"
#include "serve/artifact.hpp"
#include "trace.hpp"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string out_dir;
  std::string source_id;
};

/// Scheduler threads of every prepare_artifact.  One core of the 4-core
/// host is left to the benchmark and the system: builds hardly gain from
/// the fourth thread, and without the spare core any other activity stalls
/// an epoch barrier.
inline constexpr int kBuildThreads = 3;

struct WorkloadSpec {
  const char* name;
  PlantedPartition graph;
  std::size_t instances;  ///< independent graphs built per round
};

/// One generated input and the parameters it is prepared with.
struct Instance {
  std::uint64_t graph_seed = 0;
  xd::serve::PrepareParams prepare;
  xd::Graph graph;
};

/// Instance i of `spec` under the workload seed: its graph and build seeds
/// are pure functions of (seed, i).
std::vector<Instance> make_instances(const WorkloadSpec& spec,
                                     std::uint64_t seed);

/// The decomposition parameters prepare_artifact derives from its
/// PrepareParams (the Theorem 1 pass that produces DCMP).
xd::expander::DecompositionParams decomposition_params(
    const xd::serve::PrepareParams& prm);

/// What must repeat bit-for-bit when the same instance is built again.
struct BuildSignature {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t dcmp = 0;       ///< expander::partition_fingerprint
  std::uint64_t triangles = 0;  ///< hash of the sorted triangle list
  bool operator==(const BuildSignature&) const = default;
};
BuildSignature signature(const xd::serve::PreparedArtifact& art);

/// Operations attempted and failed (the result line's counts), plus
/// whether every exactness check held.  A Theorem 1 certificate miss fails
/// its builds but is not an exactness error: the decomposition contract
/// holds with high probability, and the miss is what the benchmark reports.
struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  bool correct = true;
  std::vector<std::string> problems;

  void op(bool ok, std::uint64_t count = 1) {
    attempted += count;
    if (!ok) failed += count;
  }
  void inexact(const std::string& what) {
    correct = false;
    problems.push_back(what);
  }
};

struct RunResult {
  Metrics e2e;
  Metrics layers;
  Tally tally;
};

/// Runs one workload; fills e2e metrics, and per-layer metrics when the
/// tracer is enabled.
void run_workload(const Options& opt, const WorkloadSpec& spec,
                  Tracer& tracer, RunResult& out);

/// The traced layer pass: each layer's public entry point called on its
/// own on `inst`, with spans and counters.  `art` is the instance's
/// prepared artifact, for consistency checks against the replay.
void layer_pass(const Instance& inst, const xd::serve::PreparedArtifact& art,
                std::size_t block, Tracer& tracer, Metrics& layers);

/// The artifact's DCMP section as a DecompositionResult, for the verifier
/// and the partition fingerprint.
xd::expander::DecompositionResult dcmp_of(
    const xd::serve::PreparedArtifact& art);

}  // namespace perfbench
