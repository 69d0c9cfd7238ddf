// The backend-agnostic irregular-kernel abstraction (sdsm::api).
//
// An irregular kernel, in the sense of the paper's Figure 1, is:
//
//   x : T[num_elements]    state array, block-partitioned over the nodes
//   f : T[num_elements]    per-step contribution (reduction) array
//   items                  this node's slice of the indirection structure:
//                          CSR rows — item i names the element indices
//                          refs[row_offsets[i] .. row_offsets[i+1])
//   compute                the per-step loop body: reads x at the item
//                          references, accumulates into f at the same
//   update                 the owner update x[i] op= f[i] after reduction
//
// Items are variable-arity: each row may name any number of element
// references (a molecule's partner list, a vertex's out-edges, an edge's two
// endpoints).  Fixed arity survives only as the degenerate uniform-offsets
// case (WorkItems::finish_uniform), so edge-shaped kernels stay one-liners
// while CSR workloads — per-vertex adjacency rows, variable-length partner
// lists — need no padding.
//
// A KernelSpec describes that structure once; each backend executes it its
// own way — demand paging (Tmk base), compiler-style Validate prefetch and
// WRITE_ALL pipelined reduction (Tmk optimized), or inspector/executor
// gather/scatter over ghost regions (CHAOS).  The body is written against
// *localized* int32 references: global indices on the DSM backends, local +
// ghost offsets on CHAOS — the remapping CHAOS performs is invisible to the
// kernel author.  Row offsets are node-local positions into the refs span
// and are identical on every backend.
#pragma once

#include <algorithm>
#include <cstdint>
#include <functional>
#include <initializer_list>
#include <optional>
#include <span>
#include <string>
#include <type_traits>
#include <vector>

#include "src/api/backend.hpp"
#include "src/common/assert.hpp"
#include "src/common/buffer.hpp"
#include "src/common/types.hpp"
#include "src/common/vec.hpp"
#include "src/partition/partition.hpp"

namespace sdsm::api {

namespace plan {
// Complete upon declaration (fixed underlying type); the full vocabulary
// lives in src/api/plan/plan.hpp and is needed only by hybrid callers.
enum class AccessStrategy : std::uint8_t;
}  // namespace plan

/// Per-node handle the kernel callbacks receive.  Backends implement it
/// over DsmNode / ChaosNode.
class IrregularNode {
 public:
  virtual ~IrregularNode() = default;
  virtual NodeId id() const = 0;
  virtual std::uint32_t num_nodes() const = 0;
  /// Global barrier over all nodes of the backend.
  virtual void barrier() = 0;
};

/// One node's work items, as produced by KernelSpec::build_items: a CSR
/// structure.  Row i references the global elements
/// refs[row_offsets[i] .. row_offsets[i+1]), and may carry one scalar
/// payload (e.g. an edge weight).  `row_offsets` has num_items()+1 entries
/// starting at 0 and ending at refs.size(); an entirely empty WorkItems
/// (both vectors empty) means zero items.
///
/// The empty contract: zero items is a first-class state, not an error.
/// A node whose build_items returns an empty WorkItems (an empty frontier)
/// still participates in every collective phase — it publishes an all-zero
/// touch-matrix row (so the tournament bracket simply never pairs it), its
/// reduction contribution is exactly f_identity, and the CHAOS inspector
/// and exchanges run with zero references — so one node's (or every
/// node's) empty frontier can never wedge a barrier, bracket, or exchange.
struct WorkItems {
  std::vector<std::int64_t> row_offsets;
  std::vector<std::int64_t> refs;
  std::vector<double> payload;  ///< optional, one entry per item

  std::size_t num_items() const {
    return row_offsets.size() <= 1 ? 0 : row_offsets.size() - 1;
  }

  /// Closes the current row: everything appended to `refs` since the last
  /// end_row() (or since the start) becomes one item.  Rows may be empty.
  void end_row() {
    if (row_offsets.empty()) row_offsets.push_back(0);
    row_offsets.push_back(static_cast<std::int64_t>(refs.size()));
  }

  /// Appends one complete row.
  void push_row(std::span<const std::int64_t> row) {
    refs.insert(refs.end(), row.begin(), row.end());
    end_row();
  }
  void push_row(std::initializer_list<std::int64_t> row) {
    push_row(std::span<const std::int64_t>(row.begin(), row.size()));
  }

  /// The degenerate fixed-arity case: `refs` was filled item-major with
  /// exactly `arity` references per item; derive the uniform offsets.
  /// Exclusive with push_row/end_row — mixing the two would silently
  /// recompute the explicit rows' boundaries.
  void finish_uniform(std::size_t arity) {
    SDSM_REQUIRE_MSG(row_offsets.empty(),
                     "WorkItems.finish_uniform: row_offsets already built");
    SDSM_REQUIRE_MSG(arity > 0 && refs.size() % arity == 0,
                     "WorkItems.finish_uniform: refs not a multiple of arity");
    const std::size_t items = refs.size() / arity;
    row_offsets.resize(items + 1);
    for (std::size_t i = 0; i <= items; ++i) {
      row_offsets[i] = static_cast<std::int64_t>(i * arity);
    }
  }
};

/// Shape summary of a validated WorkItems (see
/// KernelSpec::require_valid_items).
struct ItemsShape {
  std::size_t num_items = 0;
  std::size_t num_refs = 0;
  std::size_t max_row = 0;  ///< longest row, in references
};

/// The reduction operator combining per-node contributions into f.  The
/// compute body must accumulate into its (identity-seeded) view of f with
/// the same operator, and KernelSpec::f_identity must be the operator's
/// identity: every backend seeds accumulators, scratch slices, and ghost
/// regions with it, and nodes whose items never touch a chunk contribute
/// exactly the identity there.
///
/// kSum is the paper's force/mass accumulation; kMin is what the
/// frontier-driven graph algorithms reduce with (BFS relaxes tentative
/// distances, label propagation relaxes component labels).
enum class Reduce : std::uint8_t {
  kSum,  ///< f[i] = f[i] + contribution; identity 0
  kMin,  ///< f[i] = min(f[i], contribution); identity = an unreachable max
};

inline double reduce_combine(Reduce op, double a, double b) {
  return op == Reduce::kSum ? a + b : std::min(a, b);
}
inline double3 reduce_combine(Reduce op, const double3& a, const double3& b) {
  if (op == Reduce::kSum) return a + b;
  return double3{std::min(a.x, b.x), std::min(a.y, b.y), std::min(a.z, b.z)};
}

struct RowBuckets;  // degree-bucketed iteration order (src/api/bucketed.hpp)

/// Everything the per-step body sees.  All references are localized by the
/// backend; the body must index `x` and `f` only through `refs` /
/// `refs_of`.  Row offsets are positions into `refs` and are
/// backend-independent.
template <typename T>
struct KernelCtx {
  std::span<const std::int64_t> row_offsets;  ///< num_items()+1 entries
  std::span<const std::int32_t> refs;         ///< localized, row-major
  std::span<const double> payload;  ///< per-item payload (may be empty)
  std::span<const T> x;             ///< state, indexed by localized ref
  std::span<T> f;                   ///< accumulator, same indexing
  /// Non-null iff ExecEngine::kBucketed: the degree buckets built from
  /// `row_offsets` at the last rebuild.  Kernels that iterate through
  /// api::for_each_row pick the bucketed order up automatically; a pure
  /// function of row_offsets, so identical on every backend.
  const RowBuckets* buckets = nullptr;

  std::size_t num_items() const {
    return row_offsets.size() <= 1 ? 0 : row_offsets.size() - 1;
  }
  std::size_t row_size(std::size_t i) const {
    return static_cast<std::size_t>(row_offsets[i + 1] - row_offsets[i]);
  }
  /// The localized references of item i.
  std::span<const std::int32_t> refs_of(std::size_t i) const {
    return refs.subspan(static_cast<std::size_t>(row_offsets[i]),
                        row_size(i));
  }
};

/// The kernel description — the single thing an application writes.
template <typename T>
struct KernelSpec {
  std::string name;

  /// Global problem shape: element count and the contiguous per-node
  /// partition (owner_range[p] is node p's block; ranges must cover
  /// [0, num_elements) in ascending node order).
  std::int64_t num_elements = 0;
  std::vector<part::Range> owner_range;
  std::vector<T> initial_state;  ///< size num_elements

  int num_steps = 1;     ///< timed steps (an upper bound when `converged` set)
  int warmup_steps = 0;  ///< untimed leading steps (one-time costs land here)
  /// Rebuild the indirection structure every this many steps; 0 means the
  /// structure is static and built once before the first step (unless
  /// `rebuild_when` says otherwise).
  int update_interval = 0;
  /// Data-dependent rebuild cadence, consulted alongside `update_interval`
  /// (see rebuild_needed): the structure is rebuilt at global step s when
  /// the fixed cadence fires OR rebuild_when(s) returns true.  Frontier
  /// algorithms return true every step — the item list is the frontier.
  /// Must be deterministic and node-agnostic: every node evaluates it at
  /// every step and all evaluations of the same step must agree, or the
  /// backends' collective rebuild phases (allgather, touch-matrix
  /// republish, schedule refresh) would wedge.  State-dependence belongs
  /// in build_items (via rebuild_reads_state), not here.
  std::function<bool(int global_step)> rebuild_when;

  /// The reduction operator and its identity (see Reduce).  f_identity
  /// MUST be the identity of `reduce` — backends seed every accumulator
  /// with it, including on nodes whose WorkItems are empty.
  Reduce reduce = Reduce::kSum;
  T f_identity = T{};

  std::int64_t max_items_per_node = 0;  ///< row-count bound for the backends
  std::int64_t max_refs_per_node = 0;   ///< flattened-reference bound
  /// True when build_items reads the current state (all_x): the backends
  /// then materialize a coherent global view first (Validate prefetch /
  /// allgather).  Static structures leave it false.
  bool rebuild_reads_state = false;

  /// Declared AccessStrategy for the indirection region under
  /// Backend::kHybrid (ignored by the fixed-assignment backends).  When
  /// unset, the hybrid driver derives the strategy from the write census
  /// of the state layout it would allocate (plan::classify_indirection).
  std::optional<plan::AccessStrategy> indirection_strategy;

  /// True when build_items is a pure function of (node, step-ordinal,
  /// all_x-at-that-ordinal) — i.e. re-running the kernel over the same
  /// initial state reproduces the identical sequence of WorkItems, and the
  /// builder keeps no hidden per-run state.  Only such kernels may have
  /// their rebuild artifacts (item lists, CHAOS schedules, translation
  /// tables) captured and replayed by the serving layer's ScheduleCache.
  /// Kernels whose builders mutate captured state across calls (e.g. a
  /// frontier level counter or a label stash) must leave this false.
  bool structure_cacheable = false;

  /// Builds this node's items from the current global state view (all_x is
  /// empty unless rebuild_reads_state).  Must be deterministic.
  std::function<WorkItems(IrregularNode&, std::span<const T> all_x)>
      build_items;

  /// The per-step loop body.
  std::function<void(IrregularNode&, const KernelCtx<T>&)> compute;

  /// Owner update after the reduction; spans are the node's owned slices of
  /// x and f.  Null means no update phase.
  std::function<void(std::span<T> x_owned, std::span<const T> f_owned)> update;

  /// Convergence test, evaluated on every node after each step's update
  /// over the node's owned slice.  The backends publish every node's
  /// verdict — through a shared flag array on the DSM, an allgather on
  /// CHAOS — and terminate the step loop at the end of the first step
  /// where ALL nodes report true, so termination needs no side channel
  /// and every backend stops after the identical number of steps
  /// (KernelResult::steps_run).  Null means the loop always runs
  /// num_steps.  May be stateful per node (e.g. compare against labels
  /// stashed at the last build), which is why it receives the node.
  std::function<bool(IrregularNode&, std::span<const T> x_owned)> converged;

  /// Order-insensitive digest of an owned slice; backends sum it across
  /// nodes into KernelResult::checksum.
  std::function<double(std::span<const T> x_owned)> checksum;

  /// True when the indirection structure must be (re)built before
  /// executing `global_step` — the single cadence every backend must share
  /// for cross-backend parity.  Step-0 semantics are explicit: the
  /// bootstrap build at step 0 IS that step's rebuild, exactly once, even
  /// when the `update_interval` cadence divides 0 and `rebuild_when(0)`
  /// fires too (a naive "initial build, then check the cadence" runs the
  /// inspector twice at step 0; KernelResult::rebuilds is asserted against
  /// this schedule in test_api).
  bool rebuild_needed(int global_step) const {
    if (global_step == 0) return true;
    if (update_interval > 0 && global_step % update_interval == 0) return true;
    return rebuild_when && rebuild_when(global_step);
  }

  /// The reduction combine, dispatching on `reduce`.
  T combine(const T& a, const T& b) const {
    return reduce_combine(reduce, a, b);
  }

  void require_valid(std::uint32_t nprocs) const {
    SDSM_REQUIRE(num_elements > 0);
    SDSM_REQUIRE(owner_range.size() == nprocs);
    SDSM_REQUIRE(initial_state.size() ==
                 static_cast<std::size_t>(num_elements));
    SDSM_REQUIRE_MSG(max_items_per_node > 0,
                     "KernelSpec.max_items_per_node: must be positive");
    SDSM_REQUIRE_MSG(max_refs_per_node > 0,
                     "KernelSpec.max_refs_per_node: must be positive");
    SDSM_REQUIRE(num_elements < INT32_MAX);  // refs localize to int32
    SDSM_REQUIRE(build_items && compute && checksum);
    std::int64_t covered = 0;
    for (const part::Range& r : owner_range) {
      SDSM_REQUIRE(r.begin == covered && r.end >= r.begin);
      covered = r.end;
    }
    SDSM_REQUIRE(covered == num_elements);
  }

  /// Validates one node's WorkItems against the CSR invariants and this
  /// spec's capacity contract, naming the violating field on failure.
  /// Every backend calls this on every build_items result, so a spec that
  /// passes on one backend can never abort on another.  Normalizes the
  /// zero-item case: empty row_offsets (legal only with empty refs)
  /// becomes {0}, so downstream KernelCtx spans always carry
  /// num_items()+1 entries.
  ItemsShape require_valid_items(WorkItems& items) const {
    ItemsShape shape;
    shape.num_refs = items.refs.size();
    if (items.row_offsets.empty()) {
      SDSM_REQUIRE_MSG(items.refs.empty(),
                       "WorkItems.row_offsets: empty but refs is not");
      SDSM_REQUIRE_MSG(items.payload.empty(),
                       "WorkItems.payload: must be empty or one entry per "
                       "item (not per ref)");
      items.row_offsets.push_back(0);
      return shape;
    }
    SDSM_REQUIRE_MSG(items.row_offsets.front() == 0,
                     "WorkItems.row_offsets: must start at 0");
    SDSM_REQUIRE_MSG(items.row_offsets.back() ==
                         static_cast<std::int64_t>(items.refs.size()),
                     "WorkItems.row_offsets: must end at refs.size()");
    shape.num_items = items.row_offsets.size() - 1;
    for (std::size_t i = 0; i < shape.num_items; ++i) {
      SDSM_REQUIRE_MSG(items.row_offsets[i] <= items.row_offsets[i + 1],
                       "WorkItems.row_offsets: not monotone");
      shape.max_row = std::max(
          shape.max_row, static_cast<std::size_t>(items.row_offsets[i + 1] -
                                                  items.row_offsets[i]));
    }
    SDSM_REQUIRE_MSG(
        shape.num_items <= static_cast<std::size_t>(max_items_per_node),
        "WorkItems.row_offsets: more items than max_items_per_node");
    SDSM_REQUIRE_MSG(
        shape.num_refs <= static_cast<std::size_t>(max_refs_per_node),
        "WorkItems.refs: more references than max_refs_per_node");
    SDSM_REQUIRE_MSG(
        items.payload.empty() || items.payload.size() == shape.num_items,
        "WorkItems.payload: must be empty or one entry per item (not per "
        "ref)");
    for (const std::int64_t g : items.refs) {
      SDSM_REQUIRE_MSG(g >= 0 && g < num_elements,
                       "WorkItems.refs: reference outside [0, num_elements)");
    }
    return shape;
  }
};

/// Fold rule of a result field across nodes and worker processes
/// (plan::fold_results): kNodeSum sums from zero in node order (bit-exact
/// vs threads), kMean is the per-node mean, kUniform values must agree,
/// kDerived fields are recomputed after the fold.
enum class Fold : std::uint8_t { kNodeSum, kSum, kMax, kMean, kUniform,
                                 kDerived };

/// Gate class of a bench column, carried by the bench JSON's "columns"
/// header to bench/compare_bench.py: kExact fails --exact on any
/// difference, kLower/kHigher name the better direction of a noisy
/// column, kNone is never gated, kHidden is not a column at all.
enum class Gate : std::uint8_t { kExact, kLower, kHigher, kNone, kHidden };

/// One schema entry, as the visitors below hand it out.
struct ResultField {
  const char* name;
  Fold fold;
  Gate gate;
};

/// Every scalar KernelResult field, declared once: X(type, name, fold,
/// gate).  The KernelResult and serve::JobStats members, the worker-report
/// and stats-frame codecs, the cross-worker fold and the bench columns are
/// all generated from this list.
#define SDSM_KERNEL_RESULT_FIELDS(X)                                         \
  X(double, checksum, kNodeSum, kHidden) /* sum of per-node digests */       \
  X(double, seconds, kMax, kLower)       /* timed steps */                   \
  X(std::uint64_t, messages, kSum, kExact)                                   \
  X(double, megabytes, kDerived, kExact) /* bytes / 1e6 */                   \
  X(std::uint64_t, bytes, kSum, kHidden) /* exact count: bit-identical */    \
  /* Per node: inspector (CHAOS) or Read_indices scan (Tmk) time keeping  */ \
  /* the structure current; twin-vs-page scans and Diff::apply loops (Tmk */ \
  /* only).                                                               */ \
  X(double, overhead_seconds, kMean, kNone)                                  \
  X(double, diff_create_seconds, kMean, kLower)                              \
  X(double, diff_apply_seconds, kMean, kLower)                               \
  X(std::int64_t, rebuilds, kUniform, kExact) /* = inspector runs */         \
  /* Timed steps executed: num_steps, or fewer when `converged` ended the */ \
  /* loop -- globally agreed, so a parity metric too.                     */ \
  X(std::int64_t, steps_run, kUniform, kHidden)                              \
  /* The last-built structure: flattened references, longest row.         */ \
  X(std::uint64_t, refs, kSum, kNone)                                        \
  X(std::uint64_t, max_row, kMax, kNone)                                     \
  /* Global barriers per timed step per node: the serial schedule pays    */ \
  /* nprocs rounds plus the step barrier, the tournament                  */ \
  /* ceil(log2(contributors)).                                            */ \
  X(double, barriers_per_step, kUniform, kExact)

/// Every TmkCounters field, declared once: X(name, gate); each sums.  Each
/// name is also a DsmStats counter, copied from the timed stats delta by
/// name.  The adaptive decision counters are bench columns on adaptive
/// rows only (harness::Row::coherence_cols).
#define SDSM_TMK_COUNTERS(X)                                               \
  X(validate_calls, kHidden)                                               \
  X(validate_recomputes, kHidden) /* Read_indices executions */            \
  X(read_faults, kHidden)                                                  \
  X(pages_prefetched, kHidden)                                             \
  X(twins_created, kHidden)                                                \
  X(whole_pages, kHidden)                                                  \
  X(diff_bytes, kHidden)                                                   \
  X(cross_prefetch_posts, kHidden) /* barrier-exit prefetches posted */    \
  /* Every posted prefetch is accounted for exactly once: posts ==      */ \
  /* consumes (completed at first use) + drains (completed at backend   */ \
  /* teardown after an early exit left one in flight).                  */ \
  X(cross_prefetch_consumes, kHidden)                                      \
  X(cross_prefetch_drains, kHidden)                                        \
  /* Adaptive coherence decisions (src/coherence/); all zero under the  */ \
  /* static policy.  Migrations are counted on every node (the          */ \
  /* directory update is node-local), so the figure scales with nprocs  */ \
  /* in both deploy modes alike.                                        */ \
  X(replications, kExact)                                                  \
  X(migrations, kExact)                                                    \
  X(ghost_promotions, kExact)

/// TreadMarks-side protocol counters surfaced for tests and ablations
/// (zero for the CHAOS backend).  Counted over the timed steps only.
struct TmkCounters {
#define SDSM_TMK_FIELD(name, gate) std::uint64_t name = 0;
  SDSM_TMK_COUNTERS(SDSM_TMK_FIELD)
#undef SDSM_TMK_FIELD
};

/// Result of one kernel execution, uniform across backends.
struct KernelResult {
  Backend backend = Backend::kChaos;
#define SDSM_RESULT_MEMBER(type, name, fold, gate) type name = 0;
  SDSM_KERNEL_RESULT_FIELDS(SDSM_RESULT_MEMBER)
#undef SDSM_RESULT_MEMBER
  TmkCounters tmk;
};

/// Calls fn(field, r.<name>...) per SDSM_KERNEL_RESULT_FIELDS entry, in
/// order, on objects carrying the fields by name (KernelResult, JobStats).
template <typename Fn, typename... R>
void for_each_result_field(Fn&& fn, R&... r) {
#define SDSM_RESULT_VISIT(type, name, fold, gate) \
  fn(ResultField{#name, Fold::fold, Gate::gate}, r.name...);
  SDSM_KERNEL_RESULT_FIELDS(SDSM_RESULT_VISIT)
#undef SDSM_RESULT_VISIT
}

/// The same over every SDSM_TMK_COUNTERS entry.
template <typename Fn, typename... C>
void for_each_tmk_counter(Fn&& fn, C&... c) {
#define SDSM_TMK_VISIT(name, gate) \
  fn(ResultField{#name, Fold::kSum, Gate::gate}, c.name...);
  SDSM_TMK_COUNTERS(SDSM_TMK_VISIT)
#undef SDSM_TMK_VISIT
}

/// The one wire layout of a result (worker report, serve stats frame):
/// every field, then every counter.  `counters` is `r.tmk`, or `r` itself
/// where the counters are direct members (serve::JobStats).
template <typename R, typename C>
void put_result(Writer& w, const R& r, const C& counters) {
  const auto put = [&w](const ResultField&, const auto& v) { w.put(v); };
  for_each_result_field(put, r);
  for_each_tmk_counter(put, counters);
}

template <typename R, typename C>
void get_result(Reader& rd, R& r, C& counters) {
  const auto get = [&rd](const ResultField&, auto& v) {
    v = rd.get<std::remove_reference_t<decltype(v)>>();
  };
  for_each_result_field(get, r);
  for_each_tmk_counter(get, counters);
}

/// Owner of global element g under a contiguous partition (binary search).
inline NodeId owner_of(const std::vector<part::Range>& owner_range,
                       std::int64_t g) {
  SDSM_REQUIRE_MSG(!owner_range.empty(),
                   "owner_of: empty owner_range has no owner");
  std::size_t lo = 0, hi = owner_range.size() - 1;
  while (lo < hi) {
    const std::size_t mid = (lo + hi) / 2;
    if (g < owner_range[mid].end) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return static_cast<NodeId>(lo);
}

}  // namespace sdsm::api
