// CSR work-item edge cases through the full backend matrix: empty rows and
// empty nodes, a single giant row spanning many DSM pages, and periodic
// rebuilds that change row lengths — each checked on all four backends
// under both transports, with cross-transport message/byte parity.  Plus
// the contract itself: WorkItems helpers, KernelSpec::require_valid_items
// failure messages naming the violating field, and the owner_of
// empty-range precondition.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "src/api/api.hpp"
#include "src/apps/app_types.hpp"

namespace sdsm::api {
namespace {

using apps::checksum_close;

// --- WorkItems / KernelSpec contract ---------------------------------------

TEST(WorkItems, UniformOffsetsMatchExplicitRows) {
  WorkItems manual;
  manual.push_row({1, 2, 3});
  manual.push_row({4, 5, 6});
  WorkItems uniform;
  uniform.refs = {1, 2, 3, 4, 5, 6};
  uniform.finish_uniform(3);
  EXPECT_EQ(manual.row_offsets, uniform.row_offsets);
  EXPECT_EQ(manual.refs, uniform.refs);
  EXPECT_EQ(manual.num_items(), 2u);
}

TEST(WorkItems, EmptyRowsAndEmptyItems) {
  WorkItems items;
  items.end_row();            // empty row
  items.push_row({7});        // singleton
  items.end_row();            // empty row again
  EXPECT_EQ(items.num_items(), 3u);
  EXPECT_EQ(items.row_offsets, (std::vector<std::int64_t>{0, 0, 1, 1}));
  EXPECT_EQ(WorkItems{}.num_items(), 0u);
}

KernelSpec<double> tiny_spec() {
  KernelSpec<double> spec;
  spec.num_elements = 16;
  spec.max_items_per_node = 8;
  spec.max_refs_per_node = 32;
  return spec;
}

TEST(KernelSpecItems, ShapeOfValidItems) {
  WorkItems items;
  items.push_row({0, 1, 2});
  items.end_row();
  items.push_row({3});
  const ItemsShape shape = tiny_spec().require_valid_items(items);
  EXPECT_EQ(shape.num_items, 3u);
  EXPECT_EQ(shape.num_refs, 4u);
  EXPECT_EQ(shape.max_row, 3u);
  // Zero items: validation also normalizes empty offsets to {0}, the
  // num_items()+1 shape every KernelCtx promises.
  WorkItems none;
  EXPECT_EQ(tiny_spec().require_valid_items(none).num_items, 0u);
  EXPECT_EQ(none.row_offsets, (std::vector<std::int64_t>{0}));
}

TEST(KernelSpecItemsDeathTest, ViolationsNameTheField) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  WorkItems bad_monotone;
  bad_monotone.refs = {0, 1};
  bad_monotone.row_offsets = {0, 2, 1, 2};
  EXPECT_DEATH(tiny_spec().require_valid_items(bad_monotone),
               "WorkItems.row_offsets: not monotone");

  WorkItems bad_end;
  bad_end.refs = {0, 1, 2};
  bad_end.row_offsets = {0, 2};
  EXPECT_DEATH(tiny_spec().require_valid_items(bad_end),
               "WorkItems.row_offsets: must end at refs.size");

  WorkItems bad_payload;  // payload per ref instead of per item
  bad_payload.push_row({0, 1, 2});
  bad_payload.payload = {1.0, 2.0, 3.0};
  EXPECT_DEATH(tiny_spec().require_valid_items(bad_payload),
               "WorkItems.payload: must be empty or one entry per item");

  WorkItems bad_ref;
  bad_ref.push_row({0, 99});
  EXPECT_DEATH(tiny_spec().require_valid_items(bad_ref),
               "WorkItems.refs: reference outside");

  WorkItems too_many_refs;
  std::vector<std::int64_t> row(40, 1);
  too_many_refs.push_row(std::span<const std::int64_t>(row));
  EXPECT_DEATH(tiny_spec().require_valid_items(too_many_refs),
               "WorkItems.refs: more references than max_refs_per_node");

  WorkItems mixed;  // explicit rows then finish_uniform would silently
                    // recompute their boundaries — must abort instead
  mixed.push_row({0, 1});
  EXPECT_DEATH(mixed.finish_uniform(2),
               "WorkItems.finish_uniform: row_offsets already built");
}

TEST(OwnerOfDeathTest, EmptyOwnerRangeIsAPreconditionFailure) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const std::vector<part::Range> empty;
  EXPECT_DEATH(owner_of(empty, 0), "owner_of: empty owner_range");
}

// --- The edge-case kernels, swept over backends and transports -------------

// A deterministic synthetic kernel whose rows depend on (element, rebuild
// index).  The same row generator drives both the KernelSpec and the
// sequential reference, so every backend must land on the sequential
// checksum, whatever shape the rows take.
struct Case {
  std::int64_t n = 4096;
  std::uint32_t nprocs = 4;
  int warmup_steps = 1;
  int num_steps = 4;
  int update_interval = 0;
  /// Row generator: references of element i at rebuild r (may be empty).
  std::vector<std::int64_t> (*row_of)(const Case&, std::int64_t i, int r);
  /// Owner ranges; empty means block partition.
  std::vector<part::Range> ranges;
};

std::vector<part::Range> ranges_of(const Case& c) {
  return c.ranges.empty() ? part::block_partition(c.n, c.nprocs) : c.ranges;
}

std::vector<double> initial_state(const Case& c) {
  std::vector<double> x(static_cast<std::size_t>(c.n));
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] = static_cast<double>(i % 23) / 7.0 - 1.0;
  }
  return x;
}

void apply_row(std::span<const double> x, std::span<double> f,
               std::span<const std::int64_t> row) {
  if (row.size() < 2) return;
  const double xi = x[static_cast<std::size_t>(row[0])];
  for (std::size_t j = 1; j < row.size(); ++j) {
    const double d = xi - x[static_cast<std::size_t>(row[j])];
    f[static_cast<std::size_t>(row[0])] -= d;
    f[static_cast<std::size_t>(row[j])] += d;
  }
}

double case_checksum(std::span<const double> x) {
  double s = 0, s2 = 0;
  for (const double v : x) {
    s += v;
    s2 += v * v;
  }
  return s + s2;
}

double run_seq(const Case& c) {
  auto x = initial_state(c);
  std::vector<double> f(x.size());
  std::vector<std::vector<std::int64_t>> rows;
  int rebuild = 0;
  for (int step = 0; step < c.warmup_steps + c.num_steps; ++step) {
    const bool rebuild_now = c.update_interval > 0
                                 ? step % c.update_interval == 0
                                 : step == 0;
    if (rebuild_now) {
      rows.clear();
      for (std::int64_t i = 0; i < c.n; ++i) {
        rows.push_back(c.row_of(c, i, rebuild));
      }
      ++rebuild;
    }
    std::fill(f.begin(), f.end(), 0.0);
    for (const auto& row : rows) apply_row(x, f, row);
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += 0.125 * f[i];
  }
  return case_checksum(x);
}

KernelSpec<double> make_spec(const Case& c) {
  KernelSpec<double> spec;
  spec.name = "csr-case";
  spec.num_elements = c.n;
  spec.owner_range = ranges_of(c);
  spec.initial_state = initial_state(c);
  spec.num_steps = c.num_steps;
  spec.warmup_steps = c.warmup_steps;
  spec.update_interval = c.update_interval;
  spec.rebuild_reads_state = false;

  // Capacity: worst case over nodes and rebuild indices actually reached.
  const int total_steps = c.warmup_steps + c.num_steps;
  const int rebuilds =
      c.update_interval > 0 ? (total_steps + c.update_interval - 1) /
                                  c.update_interval
                            : 1;
  std::int64_t max_items = 1, max_refs = 1;
  for (const part::Range& range : spec.owner_range) {
    max_items = std::max(max_items, range.size());
    for (int r = 0; r < rebuilds; ++r) {
      std::int64_t refs = 0;
      for (std::int64_t i = range.begin; i < range.end; ++i) {
        refs += static_cast<std::int64_t>(c.row_of(c, i, r).size());
      }
      max_refs = std::max(max_refs, refs);
    }
  }
  spec.max_items_per_node = max_items;
  spec.max_refs_per_node = max_refs;

  // Per-node rebuild counter so row lengths can change across rebuilds
  // while build_items stays deterministic for a given run.
  auto rebuild_idx = std::make_shared<std::vector<int>>(c.nprocs, 0);
  const auto ranges = spec.owner_range;
  spec.build_items = [c, ranges, rebuild_idx](IrregularNode& node,
                                              std::span<const double>) {
    const int r = (*rebuild_idx)[node.id()]++;
    const part::Range mine = ranges[node.id()];
    WorkItems items;
    for (std::int64_t i = mine.begin; i < mine.end; ++i) {
      const auto row = c.row_of(c, i, r);
      items.push_row(std::span<const std::int64_t>(row));
    }
    return items;
  };

  spec.compute = [](IrregularNode&, const KernelCtx<double>& ctx) {
    for (std::size_t k = 0; k < ctx.num_items(); ++k) {
      const auto row = ctx.refs_of(k);
      if (row.size() < 2) continue;
      const auto self = static_cast<std::size_t>(row[0]);
      for (std::size_t j = 1; j < row.size(); ++j) {
        const auto q = static_cast<std::size_t>(row[j]);
        const double d = ctx.x[self] - ctx.x[q];
        ctx.f[self] -= d;
        ctx.f[q] += d;
      }
    }
  };

  spec.update = [](std::span<double> x, std::span<const double> f) {
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += 0.125 * f[i];
  };
  spec.checksum = [](std::span<const double> x) { return case_checksum(x); };
  return spec;
}

/// Runs the case on every backend under both transports: every checksum
/// must match the sequential reference, and for each backend the two
/// transports must carry identical traffic, message for message and byte
/// for byte.
void sweep_case(const Case& c) {
  const double seq = run_seq(c);
  BackendOptions opts;
  opts.region_bytes = 16u << 20;
  opts.table = chaos::TableKind::kReplicated;
  for (const Backend b : {Backend::kChaos, Backend::kTmkBase,
                          Backend::kTmkOptimized, Backend::kHybrid}) {
    KernelResult by_transport[2];
    int t = 0;
    for (const net::TransportKind transport :
         {net::TransportKind::kInProc, net::TransportKind::kSocket}) {
      opts.transport = transport;
      const KernelResult r = run_kernel(b, make_spec(c), opts);
      EXPECT_TRUE(checksum_close(seq, r.checksum))
          << backend_name(b) << "/" << net::transport_name(transport) << ": "
          << seq << " vs " << r.checksum;
      by_transport[t++] = r;
    }
    EXPECT_EQ(by_transport[0].messages, by_transport[1].messages)
        << backend_name(b);
    EXPECT_EQ(by_transport[0].megabytes, by_transport[1].megabytes)
        << backend_name(b);
    EXPECT_EQ(by_transport[0].refs, by_transport[1].refs) << backend_name(b);
    EXPECT_EQ(by_transport[0].max_row, by_transport[1].max_row)
        << backend_name(b);
  }
}

// Two in three rows empty, the rest short scattered rows — plus a node
// that owns nothing at all (empty range, zero items, zero refs).
std::vector<std::int64_t> sparse_rows(const Case& c, std::int64_t i, int) {
  if (i % 3 != 0) return {};
  return {i, (i * 7 + 1) % c.n, (i * 13 + 5) % c.n};
}

TEST(CsrEdgeCases, EmptyRowsAndAnEmptyNode) {
  Case c;
  c.n = 3072;
  c.nprocs = 4;
  c.row_of = sparse_rows;
  // Node 3 owns nothing: its item list is empty and its Validate section
  // degenerate.
  c.ranges = {{0, 1024}, {1024, 2048}, {2048, 3072}, {3072, 3072}};
  sweep_case(c);
}

// No row at all on one node (empty WorkItems, all-zero touch-matrix row)
// under the tournament schedule: the bracket is derived from the shared
// matrix, so the empty node pairs into no chunk but still executes every
// fused-round barrier — nprocs=4 regression for the zero-item pairing
// assumption (the min-reduction flavour lives in test_graph).
TEST(CsrEdgeCases, ZeroItemNodeUnderTournamentSchedule) {
  Case c;
  c.n = 3072;
  c.nprocs = 4;
  c.update_interval = 2;  // the all-zero row is republished at rebuilds
  c.row_of = [](const Case& c2, std::int64_t i, int) {
    // Node 3's elements [2304, 3072) produce nothing; everyone else's
    // rows scatter across all chunks.
    if (i >= 2304) return std::vector<std::int64_t>{};
    return std::vector<std::int64_t>{i, (i * 7 + 1) % c2.n,
                                     (i * 13 + 5) % c2.n};
  };
  const double seq = run_seq(c);
  for (const Backend b : {Backend::kTmkBase, Backend::kTmkOptimized}) {
    BackendOptions opts;
    opts.region_bytes = 16u << 20;
    opts.round_schedule = RoundSchedule::kTournament;
    const KernelResult r = run_kernel(b, make_spec(c), opts);
    EXPECT_TRUE(checksum_close(seq, r.checksum))
        << backend_name(b) << ": " << seq << " vs " << r.checksum;
    EXPECT_GT(r.barriers_per_step, 1.0) << backend_name(b);
  }
}

// Element 0 carries one giant row referencing ~6000 scattered elements —
// dozens of index-array pages and every page of x; every other element
// contributes nothing.  max_row in the result must report it.
std::vector<std::int64_t> giant_row(const Case& c, std::int64_t i, int) {
  if (i != 0) return {};
  std::vector<std::int64_t> row{0};
  for (std::int64_t j = 0; j < 6000; ++j) {
    row.push_back((j * 17 + 3) % c.n);
  }
  return row;
}

TEST(CsrEdgeCases, SingleGiantRowSpanningManyPages) {
  Case c;
  c.n = 8192;  // 16 pages of doubles
  c.nprocs = 4;
  c.row_of = giant_row;
  sweep_case(c);
  // The giant row's span is visible in the audit columns.
  BackendOptions opts;
  opts.region_bytes = 16u << 20;
  opts.table = chaos::TableKind::kReplicated;
  const KernelResult r = run_kernel(Backend::kChaos, make_spec(c), opts);
  EXPECT_EQ(r.max_row, 6001u);
  EXPECT_EQ(r.refs, 6001u);
}

// Row lengths depend on the rebuild index: across rebuilds rows grow,
// shrink, and toggle between empty and non-empty, so cached Read_indices
// page sets and CHAOS schedules must be refreshed (shrinking lists also
// leave stale garbage beyond the live prefix of the shared index array —
// the offset-driven scan must never read it).
std::vector<std::int64_t> shifting_rows(const Case& c, std::int64_t i,
                                        int r) {
  if ((i + r) % 4 == 0) return {};
  const std::int64_t len = 1 + (i * 7 + r * 3) % 5;
  std::vector<std::int64_t> row{i};
  for (std::int64_t j = 1; j < len; ++j) {
    row.push_back((i * 11 + j * 29 + r * 97) % c.n);
  }
  return row;
}

TEST(CsrEdgeCases, RebuildChangesRowLengths) {
  Case c;
  c.n = 4096;
  c.nprocs = 4;
  c.warmup_steps = 1;
  c.num_steps = 5;
  c.update_interval = 2;  // rebuilds at global steps 0, 2, 4
  c.row_of = shifting_rows;
  sweep_case(c);
  BackendOptions opts;
  opts.region_bytes = 16u << 20;
  opts.table = chaos::TableKind::kReplicated;
  const KernelResult r = run_kernel(Backend::kTmkOptimized, make_spec(c), opts);
  EXPECT_EQ(r.rebuilds, 3);
  // Every rebuild lands inside the run, and the timed window contains two
  // of them: the rewritten index array must trigger fresh offset-driven
  // scans (the declared-write notification path), not serve cached pages.
  EXPECT_GE(r.tmk.validate_recomputes, 2u);
}

}  // namespace
}  // namespace sdsm::api
