// The frontier-driven graph suite: BFS and connected components, whose
// item lists are data-dependent and rebuilt at EVERY step.  The matrix
// here is the acceptance contract: backend-identical distances/labels on
// all four backends x both transports x both round schedules, exact
// cross-transport message/byte parity per (backend, schedule), identical
// early-exit step counts from the DSM-published convergence flag, and the
// empty-WorkItems contract under fire — a permanently-empty node (the
// owner of an unreachable component) and fixed-step runs whose trailing
// steps have an empty frontier on EVERY node.
#include <gtest/gtest.h>

#include <algorithm>

#include "src/apps/graph/bfs.hpp"
#include "src/apps/graph/cc.hpp"

namespace sdsm::api {
namespace {

using apps::checksum_close;
using apps::Csr;

// The paper's three backends plus the hybrid.  The frontier kernels are the
// converging ones, so they pin the hybrid's convergence exchange and step
// barrier on both fabrics next to the classic backends.
constexpr Backend kMatrixBackends[] = {Backend::kChaos, Backend::kTmkBase,
                                       Backend::kTmkOptimized,
                                       Backend::kHybrid};

apps::graph::Params small_params() {
  apps::graph::Params p;
  p.num_vertices = 1024;
  p.chords_per_vertex = 2;
  // 1024 / 4 nodes: node 3 owns exactly the isolated tail, so its BFS
  // frontier is empty at every step of the run.
  p.isolated = 256;
  p.num_steps = 32;
  p.nprocs = 4;
  return p;
}

TEST(GraphBuild, DeterministicWithTwoComponents) {
  const auto p = small_params();
  const Csr a = apps::graph::build_graph(p);
  const Csr b = apps::graph::build_graph(p);
  ASSERT_EQ(a.offsets, b.offsets);
  ASSERT_EQ(a.values, b.values);
  ASSERT_EQ(a.rows(), static_cast<std::size_t>(p.num_vertices));
  // No edge crosses the core/tail boundary in either direction.
  const std::int64_t core = p.num_vertices - p.isolated;
  for (std::int64_t v = 0; v < p.num_vertices; ++v) {
    for (const std::int32_t nb : a.row(static_cast<std::size_t>(v))) {
      EXPECT_EQ(v < core, nb < core) << v << " -> " << nb;
    }
  }
  // BFS leaves exactly the tail unreached; CC finds exactly two labels.
  const auto dist = apps::bfs::seq_distances(p);
  std::int64_t unreached_count = 0;
  for (const double d : dist) {
    if (d == apps::graph::unreached(p)) ++unreached_count;
  }
  EXPECT_EQ(unreached_count, p.isolated);
  const auto labels = apps::cc::seq_labels(p);
  for (std::int64_t v = 0; v < p.num_vertices; ++v) {
    EXPECT_EQ(labels[static_cast<std::size_t>(v)],
              v < core ? 0.0 : static_cast<double>(core));
  }
}

// The full acceptance matrix: transports x schedules, swept over all four
// backends per workload.
class GraphMatrix
    : public ::testing::TestWithParam<
          std::tuple<net::TransportKind, RoundSchedule>> {
 public:
  static BackendOptions options(BackendOptions base) {
    base.transport = std::get<0>(GetParam());
    base.round_schedule = std::get<1>(GetParam());
    base.region_bytes = 16u << 20;
    return base;
  }
};

INSTANTIATE_TEST_SUITE_P(
    TransportsXSchedules, GraphMatrix,
    ::testing::Combine(::testing::Values(net::TransportKind::kInProc,
                                         net::TransportKind::kSocket),
                       ::testing::Values(RoundSchedule::kSerial,
                                         RoundSchedule::kTournament)),
    [](const auto& info) {
      return std::string(net::transport_name(std::get<0>(info.param))) + "_" +
             round_schedule_name(std::get<1>(info.param));
    });

TEST_P(GraphMatrix, BfsBackendIdenticalWithEarlyExit) {
  const auto p = small_params();
  std::int64_t seq_steps = 0;
  const double seq =
      apps::graph::int_vector_checksum(apps::bfs::seq_distances(p, &seq_steps));
  ASSERT_GT(seq_steps, 2);
  ASSERT_LT(seq_steps, p.num_steps);  // the convergence flag must fire early
  const auto opts = options(apps::bfs::default_options());
  for (const Backend b : kMatrixBackends) {
    const auto r = apps::bfs::run(b, p, opts);
    // Distances are small integers in doubles: sums are exact, so the
    // checksum must match bit for bit, not merely closely.
    EXPECT_EQ(seq, r.checksum) << backend_name(b);
    EXPECT_EQ(r.steps_run, seq_steps) << backend_name(b);
    // Frontier workloads rebuild at every executed step, warmup included.
    EXPECT_EQ(r.rebuilds, seq_steps + p.warmup_steps) << backend_name(b);
    EXPECT_GT(r.messages, 0u) << backend_name(b);
  }
}

TEST_P(GraphMatrix, CcBackendIdenticalWithEarlyExit) {
  const auto p = small_params();
  std::int64_t seq_steps = 0;
  const double seq =
      apps::graph::int_vector_checksum(apps::cc::seq_labels(p, &seq_steps));
  ASSERT_GT(seq_steps, 2);
  ASSERT_LT(seq_steps, p.num_steps);
  const auto opts = options(apps::cc::default_options());
  for (const Backend b : kMatrixBackends) {
    const auto r = apps::cc::run(b, p, opts);
    EXPECT_EQ(seq, r.checksum) << backend_name(b);
    EXPECT_EQ(r.steps_run, seq_steps) << backend_name(b);
    EXPECT_EQ(r.rebuilds, seq_steps + p.warmup_steps) << backend_name(b);
  }
}

// Exact message/byte parity across transports for every (backend,
// schedule) pair: the fabric changes what a message costs, never what the
// frontier traffic carries — convergence-flag exchanges and per-step
// rebuild allgathers included.
TEST(GraphTraffic, CrossTransportParityPerBackendAndSchedule) {
  const auto p = small_params();
  for (const bool bfs_workload : {true, false}) {
    for (const RoundSchedule s : kAllSchedules) {
      for (const Backend b : kMatrixBackends) {
        KernelResult by_transport[2];
        int t = 0;
        for (const net::TransportKind transport :
             {net::TransportKind::kInProc, net::TransportKind::kSocket}) {
          BackendOptions opts = apps::bfs::default_options();
          opts.transport = transport;
          opts.round_schedule = s;
          opts.region_bytes = 16u << 20;
          by_transport[t++] = bfs_workload ? apps::bfs::run(b, p, opts)
                                           : apps::cc::run(b, p, opts);
        }
        const char* label = bfs_workload ? "bfs" : "cc";
        EXPECT_EQ(by_transport[0].messages, by_transport[1].messages)
            << label << " " << backend_name(b) << " "
            << round_schedule_name(s);
        EXPECT_EQ(by_transport[0].megabytes, by_transport[1].megabytes)
            << label << " " << backend_name(b) << " "
            << round_schedule_name(s);
        EXPECT_EQ(by_transport[0].checksum, by_transport[1].checksum)
            << label << " " << backend_name(b) << " "
            << round_schedule_name(s);
        EXPECT_EQ(by_transport[0].steps_run, by_transport[1].steps_run)
            << label << " " << backend_name(b) << " "
            << round_schedule_name(s);
      }
    }
  }
}

// Regression (zero-item node under the tournament schedule): node 3 owns
// exactly the unreachable tail, so its frontier — and its touch-matrix row
// — is empty at EVERY step.  The bracket must pair the remaining
// contributors and seed every accumulator with the min-identity; the
// pre-fix backend assumed every node contributes somewhere and seeded
// accumulators with zero, which collapses every distance to 0 and trips a
// bogus instant convergence.
TEST(GraphEmptyFrontier, PermanentlyEmptyNodeUnderTournament) {
  const auto p = small_params();
  std::int64_t seq_steps = 0;
  const double seq =
      apps::graph::int_vector_checksum(apps::bfs::seq_distances(p, &seq_steps));
  for (const Backend b : {Backend::kTmkBase, Backend::kTmkOptimized}) {
    BackendOptions opts = apps::bfs::default_options();
    opts.round_schedule = RoundSchedule::kTournament;
    opts.region_bytes = 16u << 20;
    const auto r = apps::bfs::run(b, p, opts);
    EXPECT_EQ(seq, r.checksum) << backend_name(b);
    EXPECT_EQ(r.steps_run, seq_steps) << backend_name(b);
    // The empty node still pays every fused-round barrier: the round count
    // is derived from the shared touch matrix, not from local work.
    EXPECT_GT(r.barriers_per_step, 1.0) << backend_name(b);
  }
}

// Fixed-step runs (convergence off) keep executing after the reachable
// component is exhausted: the trailing steps have an empty frontier on
// EVERY node — an all-zero touch matrix, zero-item WorkItems everywhere,
// empty CHAOS exchanges — and must neither wedge nor change the answer.
TEST(GraphEmptyFrontier, AllNodesEmptyAfterExhaustionFixedSteps) {
  auto p = small_params();
  p.use_convergence = false;
  p.num_steps = 12;  // > diameter of the reachable component
  std::int64_t seq_steps = 0;
  const double seq =
      apps::graph::int_vector_checksum(apps::bfs::seq_distances(p, &seq_steps));
  ASSERT_EQ(seq_steps, p.num_steps);  // no early exit
  for (const RoundSchedule s : kAllSchedules) {
    for (const Backend b : kMatrixBackends) {
      BackendOptions opts = apps::bfs::default_options();
      opts.round_schedule = s;
      opts.region_bytes = 16u << 20;
      const auto r = apps::bfs::run(b, p, opts);
      EXPECT_EQ(seq, r.checksum)
          << backend_name(b) << " " << round_schedule_name(s);
      EXPECT_EQ(r.steps_run, p.num_steps)
          << backend_name(b) << " " << round_schedule_name(s);
      EXPECT_EQ(r.rebuilds, p.num_steps)
          << backend_name(b) << " " << round_schedule_name(s);
    }
  }
}

}  // namespace
}  // namespace sdsm::api
