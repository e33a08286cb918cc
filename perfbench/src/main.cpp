// xd_perfbench: one workload, one run.  Prints a metadata line, then the
// result line {"correct", "attempted", "failed", "metrics"}.  perfbench/run.py
// builds this program and selects the metrics BENCHMARK.json declares.
//
//   xd_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                --out-dir DIR [--source-id ID]

#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "bench.hpp"
#include "serve_loop.hpp"
#include "triangle/intersect.hpp"

namespace {

using perfbench::WorkloadSpec;

// Sizes and shares are chosen in perfbench/README.md ("Workloads").
constexpr WorkloadSpec kWorkloads[] = {
    {"build-sbm", {20000, 250, 8.0, 0.03}, 4},
    {"build-dense", {5000, 100, 40.0, 0.02}, 5},
};

std::string cpu_model() {
  std::ifstream is("/proc/cpuinfo");
  std::string line;
  while (std::getline(is, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) {
        const auto start = line.find_first_not_of(' ', colon + 1);
        return start == std::string::npos ? "" : line.substr(start);
      }
    }
  }
  return "unknown";
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out + "\"";
}

int usage(const char* why) {
  std::cerr << "xd_perfbench: " << why
            << "\nusage: xd_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1 --out-dir DIR [--source-id ID]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options opt;
  bool have_seed = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    try {
      std::size_t pos = 0;
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value, &pos);
        have_seed = pos == value.size() && value[0] != '-';
        if (!have_seed) return usage("bad --seed");
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value, &pos);
        if (pos != value.size() || !(opt.seconds > 0)) {
          return usage("bad --seconds");
        }
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage("bad --trace");
        opt.trace = value == "1";
        have_trace = true;
      } else if (flag == "--out-dir") {
        opt.out_dir = value;
      } else if (flag == "--source-id") {
        opt.source_id = value;
      } else {
        return usage(("unknown flag " + flag).c_str());
      }
    } catch (const std::exception&) {
      return usage(("bad value for " + flag).c_str());
    }
  }
  const WorkloadSpec* spec = nullptr;
  for (const WorkloadSpec& w : kWorkloads) {
    if (opt.workload == w.name) spec = &w;
  }
  if (spec == nullptr) return usage("unknown --workload");
  if (!have_seed || !have_trace || opt.seconds <= 0 || opt.out_dir.empty()) {
    return usage("--seed, --seconds, --trace and --out-dir are required");
  }

  namespace is = xd::triangle::intersect;
  std::cout << "{\"meta\": {\"workload\": " << quoted(opt.workload)
            << ", \"seed\": " << opt.seed
            << ", \"seconds\": " << perfbench::format_number(opt.seconds)
            << ", \"trace\": " << (opt.trace ? 1 : 0)
            << ", \"n\": " << spec->graph.n
            << ", \"block\": " << spec->graph.block
            << ", \"intra_degree\": "
            << perfbench::format_number(spec->graph.intra_degree)
            << ", \"cross_share\": "
            << perfbench::format_number(spec->graph.cross_share)
            << ", \"instances\": " << spec->instances
            << ", \"build_threads\": " << perfbench::kBuildThreads
            << ", \"service_threads\": " << perfbench::kServiceThreads
            << ", \"nproc\": " << std::thread::hardware_concurrency()
            << ", \"cpu\": " << quoted(cpu_model())
            << ", \"compiler\": " << quoted(PERFBENCH_COMPILER)
            << ", \"build_type\": " << quoted(PERFBENCH_BUILD_TYPE)
            << ", \"isa\": " << quoted(is::isa_name(is::active_isa()))
            << ", \"source\": " << quoted(opt.source_id) << "}}" << std::endl;

  perfbench::Tracer tracer(opt.trace);
  perfbench::RunResult result;
  try {
    perfbench::run_workload(opt, *spec, tracer, result);
    if (opt.trace) {
      tracer.write(opt.out_dir + "/trace-" + opt.workload + "-" +
                   std::to_string(opt.seed) + ".jsonl");
    }
  } catch (const std::exception& e) {
    std::cerr << "xd_perfbench: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& p : result.tally.problems) {
    std::cerr << "xd_perfbench: " << p << "\n";
  }
  const perfbench::Tally& t = result.tally;
  std::cout << "{\"correct\": " << (t.correct ? "true" : "false")
            << ", \"attempted\": " << t.attempted
            << ", \"failed\": " << t.failed << ", \"metrics\": "
            << (opt.trace ? result.layers : result.e2e).json() << "}"
            << std::endl;
  return 0;
}
