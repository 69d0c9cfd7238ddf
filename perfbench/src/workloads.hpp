// The benchmark's workloads and layer probes.  Each emits JSON-lines
// records (perfbench/src/record.hpp); perfbench/run.py turns them into the
// metrics named in BENCHMARK.json.
#pragma once

#include <cstdint>
#include <string>

#include "perfbench/src/record.hpp"

namespace perfbench {

/// Every workload runs at this many nodes: one per CPU of the reference
/// box, so the node threads do not oversubscribe it.
inline constexpr std::uint32_t kNodes = 4;

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  std::int64_t budget_ns = 0;  ///< measured window after the cold repetition
  bool trace = false;          ///< record spans and run the layer probes
  bool tiny = false;           ///< smoke-test sizes
};

/// moldyn-tmkopt, bfs-tmkbase, pagerank-chaos-tcp.  Returns false for an
/// unknown workload name.
bool run_batch(const RunConfig& cfg, Tracer& tracer);

/// serve-mixed: closed-loop job stream against an in-process KernelServer
/// over its 127.0.0.1 control socket.
void run_serve(const RunConfig& cfg, Tracer& tracer);

/// The vm fault-latency and net round-trip/bandwidth probes (traced runs).
void run_probes(const RunConfig& cfg, Tracer& tracer);

/// True while a traced run should record spans for repetition `rep`:
/// the cold repetition and every odd warm one.  The even warm ones run
/// untraced, so the tracing overhead is the difference between the two.
inline bool traced_rep(const RunConfig& cfg, int rep) {
  return cfg.trace && (rep == 0 || rep % 2 == 1);
}

}  // namespace perfbench
