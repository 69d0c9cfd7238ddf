// Tests for sdsm::proc, the real multi-process deployment.
//
// The headline assertions are the PR's acceptance contract: a Tmk job run
// as spawned worker processes (cross-process page faults over the
// MeshTransport) produces a checksum bit-exact with — and message, byte,
// and barrier counts exactly equal to — a threaded socket run of the
// identical job.  The failure-path tests drive the launcher's robustness
// machinery through the worker's SDSM_PROC_TEST_* hooks: a worker crash
// mid-run, a rendezvous timeout, and an arena base collision must each
// fail the run with an explicit diagnostic instead of hanging ctest.
#include <gtest/gtest.h>

#include <string>
#include <type_traits>
#include <vector>

#include "src/api/api.hpp"
#include "src/api/plan/fold.hpp"
#include "src/proc/proc.hpp"
#include "src/proc/report.hpp"
#include "src/serve/workloads.hpp"

namespace sdsm::proc {
namespace {

constexpr std::uint32_t kNprocs = 4;

serve::JobRequest spmv_request(api::Backend b) {
  serve::JobRequest req;
  req.kernel = "spmv";
  req.graph.num_elements = 2048;
  req.graph.num_steps = 4;
  req.graph.edges_per_vertex = 4;
  req.backend = b;
  req.knobs.transport = net::TransportKind::kSocket;
  return req;
}

serve::JobRequest moldyn_request(api::Backend b) {
  serve::JobRequest req;
  req.kernel = "moldyn";
  req.graph.num_elements = 512;
  req.graph.num_steps = 8;
  req.graph.update_interval = 4;  // rebuilds inside the timed loop
  req.backend = b;
  req.knobs.transport = net::TransportKind::kSocket;
  return req;
}

/// The threaded reference: the byte-identical job, materialized by the
/// same prepare_job the workers call — the request's knobs included — on
/// the threaded socket fabric.
api::KernelResult run_threaded(const serve::JobRequest& req,
                               std::uint32_t nprocs) {
  const serve::PreparedJob prepared = serve::prepare_job(req, nprocs);
  if (prepared.is_double3) {
    return api::run_kernel(req.backend, prepared.spec3, prepared.options);
  }
  return api::run_kernel(req.backend, prepared.spec, prepared.options);
}

void expect_parity(const serve::JobRequest& req) {
  LaunchOptions lopt;
  lopt.nprocs = kNprocs;
  const LaunchResult lr = run_job(req, lopt);
  ASSERT_TRUE(lr.ok) << lr.error;

  const api::KernelResult t = run_threaded(req, kNprocs);

  // Bit-exact checksum: workers compute the same owned-slice sums and the
  // launcher folds them in node order, the threaded loop's FP order.
  EXPECT_EQ(lr.result.checksum, t.checksum);
  // Exact wire parity: same protocol, frame for frame.
  EXPECT_EQ(lr.result.messages, t.messages);
  EXPECT_EQ(lr.result.bytes, t.bytes);
  EXPECT_EQ(lr.result.barriers_per_step, t.barriers_per_step);
  // Globally uniform step accounting agrees too.
  EXPECT_EQ(lr.result.steps_run, t.steps_run);
  EXPECT_EQ(lr.result.rebuilds, t.rebuilds);
  EXPECT_EQ(lr.result.refs, t.refs);
  EXPECT_EQ(lr.result.max_row, t.max_row);
  EXPECT_EQ(lr.result.backend, t.backend);
}

/// A result whose every schema field and protocol counter holds a distinct
/// non-zero value.
api::KernelResult distinct_result() {
  api::KernelResult r;
  r.backend = api::Backend::kTmkOptimized;
  int next = 1;
  const auto fill = [&next](const api::ResultField&, auto& v) {
    v = static_cast<std::remove_reference_t<decltype(v)>>(next++) +
        static_cast<std::remove_reference_t<decltype(v)>>(0.25);
  };
  api::for_each_result_field(fill, r);
  api::for_each_tmk_counter(fill, r.tmk);
  return r;
}

// --- Report codec and fold ----------------------------------------------------

TEST(ProcReport, RoundTripsEveryField) {
  WorkerReport rep;
  rep.node = 3;
  rep.ok = false;
  rep.error = "boom";
  rep.result = distinct_result();
  Writer w;
  encode(w, rep);
  Reader r(w.bytes());
  const WorkerReport back = decode_report(r);
  EXPECT_TRUE(r.done());
  EXPECT_EQ(back.node, 3u);
  EXPECT_FALSE(back.ok);
  EXPECT_EQ(back.error, "boom");
  EXPECT_EQ(back.result.backend, api::Backend::kTmkOptimized);
  const auto same = [](const api::ResultField& f, const auto& a,
                       const auto& b) {
    using V = std::remove_cvref_t<decltype(a)>;
    EXPECT_NE(a, V{}) << f.name;
    EXPECT_EQ(a, b) << f.name;
  };
  api::for_each_result_field(same, back.result, rep.result);
  api::for_each_tmk_counter(same, back.result.tmk, rep.result.tmk);
}

TEST(ProcReport, FoldAppliesEachFieldsRule) {
  std::vector<api::KernelResult> parts(2, distinct_result());
  parts[1].checksum = 0.5;
  parts[1].seconds = 100;
  parts[1].bytes = 3'000'000;
  parts[1].overhead_seconds = 3;
  parts[1].max_row = 1;
  parts[1].tmk.ghost_promotions = 5;
  api::KernelResult agg;
  ASSERT_EQ(api::plan::fold_results(parts, agg), nullptr);
  EXPECT_EQ(agg.checksum, 0.0 + parts[0].checksum + 0.5);         // kNodeSum
  EXPECT_EQ(agg.seconds, 100);                                    // kMax
  EXPECT_EQ(agg.messages, 2 * parts[0].messages);                 // kSum
  EXPECT_EQ(agg.bytes, parts[0].bytes + 3'000'000);               // kSum
  EXPECT_EQ(agg.megabytes, static_cast<double>(agg.bytes) / 1e6);  // kDerived
  EXPECT_EQ(agg.overhead_seconds, (parts[0].overhead_seconds + 3) / 2);
  EXPECT_EQ(agg.max_row, parts[0].max_row);                       // kMax
  EXPECT_EQ(agg.rebuilds, parts[0].rebuilds);                     // kUniform
  EXPECT_EQ(agg.tmk.ghost_promotions, parts[0].tmk.ghost_promotions + 5);

  parts[1].steps_run += 1;
  EXPECT_STREQ(api::plan::fold_results(parts, agg), "steps_run");
  parts[1] = parts[0];
  parts[1].backend = api::Backend::kTmkBase;
  EXPECT_STREQ(api::plan::fold_results(parts, agg), "backend");
}

// --- Wire parity: the acceptance contract ----------------------------------

TEST(ProcParity, SpmvTmkBase) {
  expect_parity(spmv_request(api::Backend::kTmkBase));
}

TEST(ProcParity, SpmvTmkOptimized) {
  expect_parity(spmv_request(api::Backend::kTmkOptimized));
}

TEST(ProcParity, MoldynTmkBase) {
  expect_parity(moldyn_request(api::Backend::kTmkBase));
}

TEST(ProcParity, MoldynTmkOptimized) {
  expect_parity(moldyn_request(api::Backend::kTmkOptimized));
}

// Non-default knobs reach both sides: the workers decode them from the
// request, the threaded reference gets them from the same prepare_job.
TEST(ProcParity, MoldynAdaptiveBucketedTmkOptimized) {
  serve::JobRequest req = moldyn_request(api::Backend::kTmkOptimized);
  req.knobs.coherence = coherence::CoherencePolicy::kAdaptive;
  req.knobs.exec_engine = api::ExecEngine::kBucketed;
  expect_parity(req);
}

TEST(ProcParity, QuickstartTmkOptimized) {
  serve::JobRequest req;
  req.kernel = "quickstart";
  req.graph.num_elements = 2048;
  req.graph.num_steps = 4;
  req.backend = api::Backend::kTmkOptimized;
  req.knobs.transport = net::TransportKind::kSocket;
  expect_parity(req);
}

// --- Launcher admission ----------------------------------------------------

TEST(ProcLauncher, RejectsChaos) {
  LaunchOptions lopt;
  lopt.nprocs = 2;
  const LaunchResult lr = run_job(spmv_request(api::Backend::kChaos), lopt);
  EXPECT_FALSE(lr.ok);
  EXPECT_NE(lr.error.find("CHAOS"), std::string::npos) << lr.error;
}

TEST(ProcLauncher, SingleWorkerRuns) {
  LaunchOptions lopt;
  lopt.nprocs = 1;
  serve::JobRequest req = spmv_request(api::Backend::kTmkOptimized);
  const LaunchResult lr = run_job(req, lopt);
  ASSERT_TRUE(lr.ok) << lr.error;
  const api::KernelResult t = run_threaded(req, 1);
  EXPECT_EQ(lr.result.checksum, t.checksum);
  EXPECT_EQ(lr.result.messages, t.messages);  // zero: no peers
  EXPECT_EQ(lr.result.bytes, t.bytes);
}

// --- Failure paths: fail loud, never hang ----------------------------------

TEST(ProcFailure, WorkerKilledMidRun) {
  LaunchOptions lopt;
  lopt.nprocs = 2;
  lopt.timeout_seconds = 60;
  lopt.extra_env.push_back("SDSM_PROC_TEST_CRASH_NODE=1");
  const LaunchResult lr = run_job(spmv_request(api::Backend::kTmkBase), lopt);
  EXPECT_FALSE(lr.ok);
  // The error names the dead worker and its exit status.
  EXPECT_NE(lr.error.find("worker 1"), std::string::npos) << lr.error;
  EXPECT_NE(lr.error.find("42"), std::string::npos) << lr.error;
}

TEST(ProcFailure, RendezvousTimeout) {
  LaunchOptions lopt;
  lopt.nprocs = 2;
  lopt.timeout_seconds = 6;  // worker rendezvous deadline: 3 s
  lopt.extra_env.push_back("SDSM_PROC_TEST_STALL_NODE=1");
  const LaunchResult lr = run_job(spmv_request(api::Backend::kTmkBase), lopt);
  EXPECT_FALSE(lr.ok);
  // Node 0's own deadline fires first and its diagnostic surfaces in the
  // launcher error (via the failure report / stderr tail), naming the
  // missing peer count — a clean error, not a SIGKILL after a hang.
  EXPECT_NE(lr.error.find("rendezvous timeout"), std::string::npos)
      << lr.error;
}

TEST(ProcFailure, ArenaBaseCollision) {
  LaunchOptions lopt;
  lopt.nprocs = 2;
  lopt.timeout_seconds = 60;
  lopt.extra_env.push_back("SDSM_PROC_TEST_COLLIDE=1");
  const LaunchResult lr = run_job(spmv_request(api::Backend::kTmkBase), lopt);
  EXPECT_FALSE(lr.ok);
  EXPECT_NE(lr.error.find("arena base collision"), std::string::npos)
      << lr.error;
}

}  // namespace
}  // namespace sdsm::proc
