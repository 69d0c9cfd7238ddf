// Run statistics gathered by the DSM runtime and the network fabric.
//
// Counters are plain atomics: they are bumped from compute threads, service
// threads, and SIGSEGV handlers, so they must be lock-free and
// async-signal-safe (std::atomic<uint64_t> on x86-64 is both).
#pragma once

#include <atomic>
#include <cstdint>
#include <string>

namespace sdsm {

/// A named monotonically increasing counter.
class Counter {
 public:
  void add(std::uint64_t n = 1) { value_.fetch_add(n, std::memory_order_relaxed); }
  std::uint64_t get() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Every DsmStats counter, declared once: X(name) per counter, in
/// declaration order.  The members, the Snapshot fields, snapshot(),
/// Snapshot subtraction and reset() are all generated from this list.
#define SDSM_DSM_STATS_COUNTERS(X)                                           \
  X(messages)      /* every request and every reply, as in the paper */     \
  X(bytes)         /* payload bytes carried by those messages */            \
  X(read_faults)   /* SIGSEGV-driven page fetches */                        \
  X(write_faults)  /* SIGSEGV-driven twin creations */                      \
  X(diffs_created)                                                          \
  X(diffs_applied)                                                          \
  X(diff_bytes)   /* bytes of encoded diffs shipped */                      \
  X(whole_pages)  /* WRITE_ALL pages shipped whole */                       \
  X(twins_created)                                                          \
  X(pages_invalidated)                                                      \
  X(validate_calls)                                                         \
  X(validate_recomputes)  /* Read_indices runs (indirection changed) */  \
  X(pages_prefetched)      /* pages fetched through Validate aggregation */ \
  X(cross_prefetch_posts)  /* cross-step prefetches posted at sync exit */  \
  X(cross_prefetch_pages)  /* pages those prefetches requested */           \
  /* Prefetch lifecycle closure: every post ends as exactly one consume  */ \
  /* (completed at first use — validate, fault, or sync op) or one drain */ \
  /* (completed at teardown because an early exit — rebuild_when /       */ \
  /* convergence ending the step loop between a barrier exit and the     */ \
  /* next validate — left it in flight).  posts == consumes + drains.    */ \
  X(cross_prefetch_consumes)                                                \
  X(cross_prefetch_drains)                                                  \
  X(scan_ns)           /* wall time spent inside Read_indices */            \
  X(mprotect_calls)    /* actual mprotect syscalls after batching */        \
  X(lock_acquires)                                                          \
  X(barriers)                                                               \
  X(gc_runs)           /* diff-store garbage collections completed */       \
  X(gc_pages_flushed)  /* pages force-fetched by GC flush rounds */         \
  /* Adaptive coherence (src/coherence/); all zero under the static      */ \
  /* policy.                                                             */ \
  X(replications)      /* inline whole-update pushes by page owners */      \
  X(migrations)        /* directory ownership transfers (all nodes) */      \
  X(ghost_promotions)  /* schedules promoted to ghost zones */              \
  /* Phase timers (wall ns summed over nodes): protocol cost breakdown.  */ \
  X(t_barrier_ns)    /* inside barrier(): close + round trip + apply */     \
  X(t_fetch_ns)      /* inside fetch_pages(): plan + wait + apply */        \
  X(t_close_ns)      /* inside close_interval() */                          \
  X(t_metas_ns)      /* inside process_metas() */                           \
  X(t_wait_ns)       /* inside fetch_pages(): blocked on replies */         \
  X(diff_create_ns)  /* twin-vs-page scans (Diff::create/whole) */          \
  X(diff_apply_ns)   /* Diff::apply loops (fetch replies + inline) */

/// Communication + protocol statistics for one run.  Mirrors the metrics the
/// paper reports in Tables 1 and 2 (messages, data volume) plus protocol
/// internals used by the ablation benches.
struct DsmStats {
#define SDSM_STATS_MEMBER(name) Counter name;
  SDSM_DSM_STATS_COUNTERS(SDSM_STATS_MEMBER)
#undef SDSM_STATS_MEMBER

  /// Point-in-time copy of every counter.  Subtracting two snapshots scopes
  /// the stats to the interval between them, so a long-lived runtime (the
  /// serving layer) can attribute protocol work to individual jobs without
  /// destroying process-lifetime totals the way reset() does.
  struct Snapshot {
#define SDSM_STATS_FIELD(name) std::uint64_t name = 0;
    SDSM_DSM_STATS_COUNTERS(SDSM_STATS_FIELD)
#undef SDSM_STATS_FIELD

    Snapshot operator-(const Snapshot& rhs) const {
      Snapshot d;
#define SDSM_STATS_SUB(name) d.name = name - rhs.name;
      SDSM_DSM_STATS_COUNTERS(SDSM_STATS_SUB)
#undef SDSM_STATS_SUB
      return d;
    }

    double megabytes() const { return static_cast<double>(bytes) / 1e6; }
  };

  /// Only meaningful at quiescent points (no node thread mid-operation).
  Snapshot snapshot() const {
    Snapshot s;
#define SDSM_STATS_GET(name) s.name = name.get();
    SDSM_DSM_STATS_COUNTERS(SDSM_STATS_GET)
#undef SDSM_STATS_GET
    return s;
  }

  void reset() {
#define SDSM_STATS_RESET(name) name.reset();
    SDSM_DSM_STATS_COUNTERS(SDSM_STATS_RESET)
#undef SDSM_STATS_RESET
  }

  std::string summary() const;
  double megabytes() const { return static_cast<double>(bytes.get()) / 1e6; }
};

}  // namespace sdsm
