// perfbench_driver: runs one benchmark workload and prints its raw
// measurements as JSON lines (perfbench/run.py turns them into metrics).
//
//   perfbench_driver --workload <name> --seed <n> --seconds <s>
//                    [--trace 0|1] [--tiny]
//
// Workloads: moldyn-tmkopt, bfs-tmkbase, pagerank-chaos-tcp, serve-mixed.
// Exit codes: 0 ran (correctness is judged from the records), 2 usage,
// 3 the affinity mask has fewer CPUs than the workload's nodes.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/src/machine.hpp"
#include "perfbench/src/workloads.hpp"

namespace {

int usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench_driver: %s\nusage: perfbench_driver --workload "
               "<name> --seed <n> --seconds <s> [--trace 0|1] [--tiny]\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  RunConfig cfg;
  double seconds = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const bool has_value = i + 1 < argc;
    if (a == "--tiny") {
      cfg.tiny = true;
    } else if (a == "--workload" && has_value) {
      cfg.workload = argv[++i];
    } else if (a == "--seed" && has_value) {
      cfg.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (a == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (a == "--trace" && has_value) {
      cfg.trace = std::strcmp(argv[++i], "0") != 0;
    } else {
      return usage(("unknown argument " + a).c_str());
    }
  }
  if (cfg.workload.empty() || seconds < 0) {
    return usage("--workload and --seconds are required");
  }
  cfg.budget_ns = static_cast<std::int64_t>(seconds * 1e9);

  emit_fingerprint();
  if (affinity_cpus() < static_cast<int>(kNodes)) {
    std::fprintf(stderr,
                 "perfbench_driver: %d CPUs in the affinity mask, %u nodes "
                 "need at least %u; refusing to measure an oversubscribed "
                 "box\n",
                 affinity_cpus(), kNodes, kNodes);
    return 3;
  }
  Rec("calibration").s("at", "start").i("ns", calibration_ns()).emit();

  Tracer tracer;
  if (cfg.workload == "serve-mixed") {
    run_serve(cfg, tracer);
  } else if (!run_batch(cfg, tracer)) {
    return usage(("unknown workload " + cfg.workload).c_str());
  }
  if (cfg.trace) run_probes(cfg, tracer);

  Rec("calibration").s("at", "end").i("ns", calibration_ns()).emit();
  tracer.write();
  Rec("end")
      .i("peak_rss_bytes", peak_rss_bytes())
      .i("spans", tracer.spans())
      .emit();
  return 0;
}
