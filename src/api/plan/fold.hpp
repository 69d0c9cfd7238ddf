// One copy of the counter/checksum fold.
//
// The in-process drivers fold their hosted nodes' shares into a
// KernelResult, and the multi-process launcher folds its workers' results
// into the job's, through the same fold_results.  The arithmetic is part
// of the bit-exactness contract — checksums are summed in node order, so
// a process-mode aggregate is bit-identical to a threaded run's — which
// is exactly the kind of invariant that should not exist in triplicate.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <type_traits>

#include "src/api/kernel.hpp"

namespace sdsm::api::plan {

/// Folds per-node (or per-worker) shares, in node order, into one result
/// under each field's SDSM_KERNEL_RESULT_FIELDS fold rule; counters sum.
/// Returns the uniform field the parts disagree on (the runs diverged: no
/// one result exists), or nullptr.
inline const char* fold_results(std::span<const KernelResult> parts,
                                KernelResult& out) {
  SDSM_REQUIRE(!parts.empty());
  out = KernelResult{};
  out.backend = parts.front().backend;
  const char* disagree = nullptr;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    const KernelResult& p = parts[i];
    if (p.backend != out.backend) disagree = "backend";
    for_each_result_field(
        [&](const ResultField& f, auto& acc, const auto& v) {
          if (i == 0 && f.fold != Fold::kNodeSum) {
            acc = v;  // kNodeSum alone starts from zero, as a threaded sum
          } else if (f.fold == Fold::kMax) {
            acc = std::max(acc, v);
          } else if (f.fold == Fold::kUniform) {
            if (acc != v) disagree = f.name;
          } else {
            acc += v;  // kNodeSum, kSum, kMean (kDerived: recomputed below)
          }
        },
        out, p);
    for_each_tmk_counter(
        [](const ResultField&, auto& acc, const auto& v) { acc += v; },
        out.tmk, p.tmk);
  }
  for_each_result_field(
      [&parts](const ResultField& f, auto& acc) {
        using V = std::remove_reference_t<decltype(acc)>;
        if (f.fold == Fold::kMean) acc /= static_cast<V>(parts.size());
      },
      out);
  out.megabytes = static_cast<double>(out.bytes) / 1e6;  // kDerived
  return disagree;
}

}  // namespace sdsm::api::plan
