// The batch workloads: each repetition runs the KernelSpec on a fresh
// runtime (api::make_runtime + IrregularRuntime::run), its checksum
// compared with the single-threaded reference.
#include <functional>
#include <memory>

#include "perfbench/src/workloads.hpp"
#include "src/api/api.hpp"
#include "src/apps/graph/bfs.hpp"
#include "src/apps/moldyn/moldyn_kernel.hpp"
#include "src/apps/pagerank/pagerank.hpp"

namespace perfbench {

namespace {

using namespace sdsm;
using namespace sdsm::apps;

/// Warm repetitions a run makes even when one repetition outlasts the
/// measured window.
constexpr int kMinWarmReps = 3;

/// Zero-step repetitions a traced run makes after its window: their
/// overhead_seconds is the warmup's share alone (the untimed inspector or
/// Read_indices scan), which the timed share is separated from.
constexpr int kWarmupOnlyReps = 3;

template <typename T>
struct Batch {
  api::Backend backend;
  api::BackendOptions options;
  /// Input generation + partition -> a spec.
  std::function<api::KernelSpec<T>()> make_kernel;
  std::function<AppRunResult()> run_seq;
  /// True when the kernel keeps per-run state (bfs's level counters), so
  /// every repetition needs its own spec; stateless specs are reused.
  bool fresh_spec_per_rep = false;
};

void emit_rep(int rep, bool traced, std::int64_t t_start, std::int64_t t_a,
              std::int64_t t_b, std::int64_t t_c, std::int64_t t_d,
              const api::KernelResult& r, bool ok) {
  const api::TmkCounters& k = r.tmk;
  Rec("rep")
      .i("rep", rep)
      .b("cold", rep == 0)
      .b("traced", traced)
      .i("total_ns", t_d - t_start)
      .i("make_kernel_ns", t_a - t_start)
      .i("make_runtime_ns", t_b - t_a)
      .i("run_ns", t_c - t_b)
      .i("teardown_ns", t_d - t_c)
      .i("wall_ns", t_d - t_a)
      .i("timed_ns", to_ns(r.seconds))
      .i("steps_run", r.steps_run)
      .u("messages", r.messages)
      .u("bytes", r.bytes)
      .d("checksum", r.checksum)
      .b("checksum_ok", ok)
      .i("overhead_ns", to_ns(r.overhead_seconds))
      .i("diff_create_ns", to_ns(r.diff_create_seconds))
      .i("diff_apply_ns", to_ns(r.diff_apply_seconds))
      .i("rebuilds", r.rebuilds)
      .d("barriers_per_step", r.barriers_per_step)
      .u("validate_calls", k.validate_calls)
      .u("validate_recomputes", k.validate_recomputes)
      .u("read_faults", k.read_faults)
      .u("pages_prefetched", k.pages_prefetched)
      .u("twins_created", k.twins_created)
      .u("whole_pages", k.whole_pages)
      .u("diff_bytes", k.diff_bytes)
      .u("replications", k.replications)
      .u("migrations", k.migrations)
      .u("ghost_promotions", k.ghost_promotions)
      .emit();
}

template <typename T>
void drive(const RunConfig& cfg, Tracer& tracer, const Batch<T>& w) {
  tracer.enable(cfg.trace);
  AppRunResult seq;
  {
    auto span = tracer.span("apps.run_seq");
    seq = w.run_seq();
  }
  Rec("seq")
      .s("backend", api::backend_name(w.backend))
      .s("transport", net::transport_name(w.options.transport))
      .i("timed_ns", to_ns(seq.seconds))
      .d("checksum", seq.checksum)
      .emit();

  api::KernelSpec<T> spec;
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
    if (rep == 0 || w.fresh_spec_per_rep) {
      auto span = tracer.span("apps.make_kernel");
      spec = w.make_kernel();
    }
    const std::int64_t t_a = now_ns();
    std::unique_ptr<api::IrregularRuntime> rt;
    {
      auto span = tracer.span("api.make_runtime");
      rt = api::make_runtime(w.backend, kNodes, w.options);
    }
    const std::int64_t t_b = now_ns();
    api::KernelResult r;
    {
      auto span = tracer.span("api.run");
      r = rt->run(spec);
    }
    const std::int64_t t_c = now_ns();
    {
      auto span = tracer.span("api.teardown");
      rt.reset();
    }
    const std::int64_t t_d = now_ns();
    rep_span.reset();

    emit_rep(rep, traced, t_start, t_a, t_b, t_c, t_d, r,
             checksum_close(seq.checksum, r.checksum));
    last_ns = t_d - t_start;
  }

  if (!cfg.trace) return;
  tracer.enable(false);
  for (int i = 0; i < kWarmupOnlyReps; ++i) {
    api::KernelSpec<T> zero = w.fresh_spec_per_rep ? w.make_kernel() : spec;
    zero.num_steps = 0;
    const api::KernelResult r =
        api::make_runtime(w.backend, kNodes, w.options)->run(zero);
    Rec("warmup_only")
        .i("overhead_ns", to_ns(r.overhead_seconds))
        .i("rebuilds", r.rebuilds)
        .emit();
  }
}

}  // namespace

bool run_batch(const RunConfig& cfg, Tracer& tracer) {
  const std::uint64_t seed = cfg.seed;
  if (cfg.workload == "moldyn-tmkopt") {
    // Paper Table 1 scale: bench_table1_moldyn's parameters at 4 nodes.
    moldyn::Params p;
    p.num_molecules = cfg.tiny ? 2048 : 16384;
    p.num_steps = cfg.tiny ? 6 : 40;
    p.update_interval = cfg.tiny ? 3 : 20;
    p.box = cfg.tiny ? 12.7 : 25.4;  // unit lattice spacing
    p.cutoff = cfg.tiny ? 2.0 : 4.6;
    p.seed = seed;
    p.nprocs = kNodes;
    Batch<double3> w{api::Backend::kTmkOptimized, moldyn::default_options(),
                     [p] {
                       const moldyn::System sys = moldyn::make_system(p);
                       return moldyn::make_kernel(p, sys);
                     },
                     [p] {
                       return moldyn::run_seq(p, moldyn::make_system(p));
                     },
                     false};
    drive(cfg, tracer, w);
    return true;
  }
  if (cfg.workload == "bfs-tmkbase") {
    bfs::Params p;
    p.num_vertices = cfg.tiny ? 8192 : 262144;
    p.chords_per_vertex = 4;
    p.isolated = p.num_vertices / 4;  // node 3's block: never reached
    p.num_steps = 24;
    p.seed = seed;
    p.nprocs = kNodes;
    Batch<double> w{api::Backend::kTmkBase, bfs::default_options(),
                    [p] { return bfs::make_kernel(p); },
                    [p] { return bfs::run_seq(p); },
                    true};
    drive(cfg, tracer, w);
    return true;
  }
  if (cfg.workload == "pagerank-chaos-tcp") {
    pagerank::Params p;
    p.num_vertices = cfg.tiny ? 8192 : 262144;
    p.edges_per_vertex = 8;
    p.num_steps = cfg.tiny ? 4 : 16;
    p.seed = seed;
    p.nprocs = kNodes;
    api::BackendOptions opts = pagerank::default_options();
    opts.transport = net::TransportKind::kSocket;
    Batch<double> w{api::Backend::kChaos, opts,
                    [p] { return pagerank::make_kernel(p); },
                    [p] { return pagerank::run_seq(p); },
                    false};
    drive(cfg, tracer, w);
    return true;
  }
  return false;
}

}  // namespace perfbench
