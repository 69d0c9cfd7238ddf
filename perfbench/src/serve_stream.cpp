// serve-mixed: one client in a closed loop on the 127.0.0.1 control
// socket of an in-process KernelServer (default config, 4 nodes).
//
// The job stream comes from a pool of small distinct jobs — five kernels x
// all four backends, graphs drawn by seed — with skewed repeat counts, so
// half of the cache-eligible jobs hit the schedule cache.  Each repetition
// replays the same stream against a fresh server, so its message and byte
// sums are exact and comparable across repetitions.
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "perfbench/src/workloads.hpp"
#include "src/apps/app_types.hpp"
#include "src/common/rng.hpp"
#include "src/serve/client.hpp"
#include "src/serve/server.hpp"

namespace perfbench {

namespace {

using namespace sdsm;

constexpr int kMinWarmReps = 2;
/// Setup-only cycles (server construction through a live client) made
/// before the first stream and after every stream, so setup_s is a median
/// over many samples spread across the run.
constexpr int kSetupCycles = 8;

/// One (kernel, backend) class of the stream.  All of a class's jobs
/// share one graph, so every repeat after the first is a cache hit on the
/// cache-eligible kernels.
struct PoolJob {
  serve::JobRequest req;
  int graph = 0;  ///< jobs with equal graph ids must agree on the checksum
  int count = 0;  ///< occurrences per stream
};

constexpr api::Backend kServeBackends[] = {
    api::Backend::kChaos, api::Backend::kTmkBase, api::Backend::kTmkOptimized,
    api::Backend::kHybrid};

/// Five kernels x four backends.  The seed draws each kernel's graph; the
/// repeat counts (1..3, mean 2, so half of the eligible jobs hit the
/// cache) are fixed per class, keeping the stream's kernel/backend mix —
/// and so its latency profile — the same for every seed.
std::vector<PoolJob> make_pool(std::uint64_t seed, bool tiny) {
  Rng rng(seed ^ 0x5e57e5u);
  const std::int64_t scale = tiny ? 1 : 2;
  std::vector<serve::JobRequest> kinds(5);
  kinds[0].kernel = "moldyn";
  kinds[0].graph.num_elements = 256 * scale;
  kinds[0].graph.num_steps = 4;
  kinds[0].graph.update_interval = 2;
  kinds[1].kernel = "spmv";
  kinds[1].graph.num_elements = 1024 * scale;
  kinds[1].graph.num_steps = 4;
  kinds[1].graph.edges_per_vertex = 4;
  kinds[2].kernel = "pagerank";
  kinds[2].graph.num_elements = 1024 * scale;
  kinds[2].graph.num_steps = 4;
  kinds[2].graph.edges_per_vertex = 4;
  kinds[3].kernel = "bfs";
  kinds[3].graph.num_elements = 1024 * scale;
  kinds[3].graph.chords_per_vertex = 2;
  kinds[4].kernel = "nbf";  // nbf graphs have no seed
  kinds[4].graph.num_elements = 512 * scale;
  kinds[4].graph.num_steps = 4;
  kinds[4].graph.partners = 16;

  std::vector<PoolJob> pool;
  for (std::size_t k = 0; k < kinds.size(); ++k) {
    if (kinds[k].kernel != "nbf") {
      kinds[k].graph.seed = 1 + rng.next_below(1u << 30);
    }
    for (std::size_t b = 0; b < 4; ++b) {
      PoolJob j;
      j.req = kinds[k];
      j.req.backend = kServeBackends[b];
      j.graph = static_cast<int>(k);
      j.count = tiny ? 1 + static_cast<int>((k + b) % 2)
                     : 1 + static_cast<int>((k + b) % 3);
      pool.push_back(j);
    }
  }
  return pool;
}

/// Every class `count` times, in one fixed shuffled order.  The order is
/// part of the workload, not of the seed: it alone moved peak RSS by ~30%
/// between seeds (which jobs' threads reuse which malloc arenas).
std::vector<int> make_stream(const std::vector<PoolJob>& pool) {
  std::vector<int> stream;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    stream.insert(stream.end(), static_cast<std::size_t>(pool[i].count),
                  static_cast<int>(i));
  }
  Rng rng(0x57e4a3u);
  for (std::size_t i = stream.size(); i > 1; --i) {
    std::swap(stream[i - 1], stream[rng.next_below(i)]);
  }
  return stream;
}

serve::ServerConfig server_config() {
  serve::ServerConfig c;  // defaults: 4 nodes, 2 workers, queue 8, cache 32
  c.nprocs = kNodes;
  c.listen = true;
  return c;
}

/// Server construction through a live client (one stats round trip).
struct Session {
  std::unique_ptr<serve::KernelServer> server;
  std::unique_ptr<serve::Client> client;
  std::int64_t setup_ns = 0;
};

Session open_session(Tracer& tracer) {
  Session s;
  const std::int64_t t0 = now_ns();
  {
    auto span = tracer.span("serve.start");
    s.server = std::make_unique<serve::KernelServer>(server_config());
  }
  {
    auto span = tracer.span("serve.connect");
    s.client = std::make_unique<serve::Client>(
        serve::Client::connect_local(s.server->port()));
    s.client->server_stats();
  }
  s.setup_ns = now_ns() - t0;
  return s;
}

void close_session(Session& s, Tracer& tracer) {
  auto span = tracer.span("serve.shutdown");
  s.client.reset();
  s.server->shutdown();
  s.server.reset();
}

void setup_cycles(Tracer& tracer) {
  for (int i = 0; i < kSetupCycles; ++i) {
    Session s = open_session(tracer);
    Rec("setup").i("setup_ns", s.setup_ns).emit();
    close_session(s, tracer);
  }
}

}  // namespace

void run_serve(const RunConfig& cfg, Tracer& tracer) {
  const std::vector<PoolJob> pool = make_pool(cfg.seed, cfg.tiny);
  const std::vector<int> stream = make_stream(pool);
  tracer.enable(cfg.trace);
  setup_cycles(tracer);

  std::map<int, double> reference;  // graph id -> first checksum seen
  std::int64_t window_start = 0;
  std::int64_t last_ns = 0;
  for (int rep = 0;; ++rep) {
    if (rep > (cfg.tiny ? 1 : kMinWarmReps) &&
        now_ns() - window_start + last_ns > cfg.budget_ns) {
      break;
    }
    if (rep == 1) window_start = now_ns();
    const bool traced = traced_rep(cfg, rep);
    tracer.enable(traced);
    const std::int64_t t_start = now_ns();
    auto rep_span = std::make_unique<Tracer::Scope>(tracer, "rep", rep);
    Session s = open_session(tracer);

    for (std::size_t idx = 0; idx < stream.size(); ++idx) {
      const PoolJob& pj = pool[static_cast<std::size_t>(stream[idx])];
      const std::int64_t job = static_cast<std::int64_t>(idx);
      auto job_span = tracer.span("job", job);
      const std::int64_t t0 = now_ns();
      serve::SubmitResult sub;
      {
        auto span = tracer.span("serve.submit", job);
        sub = s.client->submit(pj.req);
      }
      serve::JobStats st;
      if (sub.accepted) {
        auto span = tracer.span("serve.wait", job);
        st = s.client->wait(sub.job_id);
      }
      const std::int64_t latency = now_ns() - t0;
      bool checksum_ok = false;
      if (st.ok) {
        const auto [it, fresh] = reference.emplace(pj.graph, st.checksum);
        checksum_ok = fresh || apps::checksum_close(it->second, st.checksum);
      }
      Rec("job")
          .i("rep", rep)
          .b("cold", rep == 0)
          .b("traced", traced)
          .i("idx", job)
          .i("pool", stream[idx])
          .s("kernel", pj.req.kernel)
          .s("backend", api::backend_name(pj.req.backend))
          .b("accepted", sub.accepted)
          .b("ok", st.ok)
          .b("checksum_ok", checksum_ok)
          .i("latency_ns", latency)
          .i("queue_ns", to_ns(st.queue_seconds))
          .i("run_ns", to_ns(st.run_seconds))
          .i("steps_run", st.steps_run)
          .u("messages", st.messages)
          .i("bytes", std::llround(st.megabytes * 1e6))
          .b("cache_eligible", st.cache_eligible)
          .b("cache_hit", st.cache_hit)
          .u("structure_messages", st.structure_messages)
          .u("replications", st.replications)
          .u("migrations", st.migrations)
          .u("ghost_promotions", st.ghost_promotions)
          .emit();
    }
    close_session(s, tracer);
    rep_span.reset();
    last_ns = now_ns() - t_start;
    Rec("stream")
        .i("rep", rep)
        .b("cold", rep == 0)
        .b("traced", traced)
        .i("setup_ns", s.setup_ns)
        .i("wall_ns", last_ns)
        .emit();
    setup_cycles(tracer);
  }
}

}  // namespace perfbench
