// One copy of the counter/checksum fold.
//
// Three call sites used to carry their own: the two backend monoliths
// folded per-node partials into a KernelResult, and the multi-process
// launcher folded per-worker KernelResults into a job-level one.  The
// arithmetic is part of the bit-exactness contract — checksums are summed
// in node order, so a process-mode aggregate is bit-identical to a
// threaded run's — which is exactly the kind of invariant that should not
// exist in triplicate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>

#include "src/api/kernel.hpp"
#include "src/common/stats.hpp"

namespace sdsm::api::plan {

/// One node's contribution to a KernelResult.
struct NodeAccount {
  double checksum = 0;
  std::uint64_t refs = 0;
  std::uint64_t max_row = 0;
};

/// Folds node accounts into `res`, in the order given: checksum summed
/// (node order — the summation order is part of the bit-exactness
/// contract), refs summed, max_row maxed.  Adds to whatever `res` already
/// holds, so process-mode callers can fold worker by worker.
inline void fold_accounts(KernelResult& res,
                          std::span<const NodeAccount> accounts) {
  for (const NodeAccount& a : accounts) {
    res.checksum += a.checksum;
    res.refs += a.refs;
    res.max_row = std::max(res.max_row, a.max_row);
  }
}

/// The timed-window protocol counters a DSM-substrate run reports, copied
/// out of a stats delta.
inline TmkCounters counters_from(const DsmStats::Snapshot& timed) {
  TmkCounters c;
#define SDSM_TMK_COPY(name) c.name = timed.name;
  SDSM_TMK_COUNTERS(SDSM_TMK_COPY)
#undef SDSM_TMK_COPY
  return c;
}

/// Adds `b`'s protocol counters into `a` — the cross-worker half of the
/// fold (process mode: each worker's snapshot covers only its own nodes).
inline void add_counters(TmkCounters& a, const TmkCounters& b) {
#define SDSM_TMK_ADD(name) a.name += b.name;
  SDSM_TMK_COUNTERS(SDSM_TMK_ADD)
#undef SDSM_TMK_ADD
}

}  // namespace sdsm::api::plan
