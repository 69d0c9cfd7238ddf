// serve_app: drive a persistent KernelServer over its socket control
// protocol — the serving layer end to end in one binary.  The app starts a
// server (warm engines, bounded queue, schedule cache), connects a socket
// client to its 127.0.0.1 control port, and pushes a mixed job stream:
// moldyn (structure-cacheable — the second round replays cached inspector
// schedules executor-only) interleaved with bfs (frontier-driven, rebuilt
// every step, never cached), on the Tmk-optimized and CHAOS backends.
//
// Build & run:   ./build/serve_app [--transport=inproc|socket]
//                                  [--backend=chaos|tmk-optimized]
//                                  [--schedule=serial|tournament]
//                                  [--coherence=static|adaptive]
//                                  [--exec=rows|bucketed]
//                                  [--nprocs=N] [--smoke]
//
// Every job runs the knobs of the command line.  The server's engines are
// in-process: --mode=processes exits 2.
//
// --smoke is the CI mode: every check (completions, bit-exact repeat
// checksums, hit-path inspector runs = 0, zero queue leaks at shutdown)
// turns into a process exit code instead of a table footnote.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "src/api/backend.hpp"
#include "src/harness/options.hpp"
#include "src/serve/client.hpp"
#include "src/serve/server.hpp"

using namespace sdsm;

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++failures;
  }
}

}  // namespace

int main(int argc, char** argv) {
  const harness::Options opt =
      harness::Options::parse(argc, argv, {"smoke", "nprocs"});
  const bool smoke = opt.flag("smoke");
  opt.threads_only("serve_app's engines run node threads");
  std::vector<api::Backend> backends;  // the stream's pair, per --backend
  for (const api::Backend b : {api::Backend::kTmkOptimized,
                               api::Backend::kChaos}) {
    if (std::ranges::count(opt.backends, b) > 0) backends.push_back(b);
  }
  if (backends.empty()) {
    harness::Options::reject(
        "--backend", api::backend_name(opt.backends.front()),
        "serve_app streams the Tmk-optimized and CHAOS backends");
  }

  serve::ServerConfig cfg;
  cfg.nprocs = 4;
  if (const auto v = opt.value("nprocs")) {
    cfg.nprocs = static_cast<std::uint32_t>(std::atoi(v->c_str()));
  }
  cfg.workers = 2;
  cfg.queue_capacity = 16;
  cfg.listen = true;
  serve::KernelServer server(cfg);
  std::printf("serve_app: %u-node server on 127.0.0.1:%d (%zu workers, "
              "queue %zu)\n\n",
              cfg.nprocs, server.port(), cfg.workers, cfg.queue_capacity);

  serve::Client client = serve::Client::connect_local(server.port());

  // Two rounds of the same four jobs: the second round's moldyn jobs hit
  // the schedule cache; bfs stays executor-fresh every time (its frontier
  // builders are stateful, so it is not structure-cacheable).
  std::vector<serve::JobRequest> stream;
  for (int round = 0; round < 2; ++round) {
    for (const api::Backend b : backends) {
      serve::JobRequest m;
      m.kernel = "moldyn";
      m.graph.num_elements = 512;
      m.graph.num_steps = 8;
      m.graph.update_interval = 4;
      m.backend = b;
      m.knobs = opt.knobs;
      stream.push_back(m);

      serve::JobRequest g;
      g.kernel = "bfs";
      g.graph.num_elements = 1024;
      g.graph.num_steps = 8;
      g.graph.chords_per_vertex = 2;
      g.backend = b;
      g.knobs = opt.knobs;
      stream.push_back(g);
    }
  }

  std::vector<std::uint64_t> ids;
  for (const serve::JobRequest& r : stream) {
    const serve::SubmitResult sub = client.submit(r);
    check(sub.accepted, "job admitted");
    if (!sub.accepted) {
      std::printf("  rejected: %s\n", sub.reason.c_str());
      continue;
    }
    ids.push_back(sub.job_id);
  }

  std::vector<serve::JobStats> stats;
  for (const std::uint64_t id : ids) stats.push_back(client.wait(id));

  std::printf("%-4s %-9s %-14s %9s %7s %6s %10s %12s\n", "job", "kernel",
              "backend", "insp.runs", "cache", "ok", "messages", "checksum");
  for (const serve::JobStats& s : stats) {
    std::printf("%-4llu %-9s %-14s %9lld %7s %6s %10llu %12.4f\n",
                static_cast<unsigned long long>(s.job_id), s.kernel.c_str(),
                api::backend_name(s.backend),
                static_cast<long long>(s.inspector_runs),
                s.cache_hit ? "hit" : (s.cache_eligible ? "miss" : "-"),
                s.ok ? "yes" : "NO",
                static_cast<unsigned long long>(s.messages), s.checksum);
    check(s.ok, "job completed ok");
  }

  // Round 2 must reproduce round 1 bit-exactly, job for job, and its
  // moldyn jobs must have run executor-only.
  const std::size_t half = stats.size() / 2;
  for (std::size_t i = 0; i + half < stats.size(); ++i) {
    const serve::JobStats& first = stats[i];
    const serve::JobStats& repeat = stats[i + half];
    check(repeat.checksum == first.checksum, "repeat checksum bit-exact");
    if (repeat.kernel == "moldyn") {
      check(repeat.cache_hit, "repeat moldyn job hit the schedule cache");
      check(repeat.inspector_runs == 0, "hit-path inspector runs == 0");
    } else {
      check(!repeat.cache_eligible, "bfs stays cache-ineligible");
    }
  }

  const serve::ServerStats st = client.server_stats();
  std::printf("\nserver: %llu submitted, %llu completed, %llu failed, "
              "%llu rejected, cache %llu hits / %llu misses\n",
              static_cast<unsigned long long>(st.submitted),
              static_cast<unsigned long long>(st.completed),
              static_cast<unsigned long long>(st.failed),
              static_cast<unsigned long long>(st.rejected),
              static_cast<unsigned long long>(st.cache_hits),
              static_cast<unsigned long long>(st.cache_misses));
  check(st.completed == stream.size(), "every submitted job completed");
  check(st.failed == 0, "no job failed");
  check(st.queue_depth == 0 && st.in_flight == 0,
        "zero queue leaks after the stream drained");

  if (failures > 0) {
    std::printf("\nserve_app: %d check(s) FAILED\n", failures);
    return 1;
  }
  std::printf("\nserve_app: all checks passed%s\n",
              smoke ? " (smoke mode)" : "");
  return 0;
}
