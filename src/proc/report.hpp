// Worker -> launcher result reporting (sdsm::proc).
//
// Each worker writes one small binary report file before exiting — its
// node's KernelResult plus an ok/error verdict — and the launcher folds
// the per-worker reports into one job-level KernelResult with the fold
// the threaded drivers apply across their in-process nodes
// (plan::fold_results), so the combined figures are directly comparable —
// bit-exactly, for the deterministic ones — with a threaded run's.
//
// A file (rather than a pipe) keeps the failure paths simple: a worker
// that dies mid-run simply leaves no report, and the exit-status monitor,
// not the report channel, is what detects it.
#pragma once

#include <optional>
#include <string>

#include "src/api/kernel.hpp"
#include "src/common/buffer.hpp"
#include "src/common/types.hpp"

namespace sdsm::proc {

struct WorkerReport {
  NodeId node = 0;
  bool ok = false;
  std::string error;  ///< non-empty when !ok
  /// The local node's share of the job, folded by plan::fold_results.
  api::KernelResult result;
};

void encode(Writer& w, const WorkerReport& r);
WorkerReport decode_report(Reader& r);

/// Atomic-enough file I/O for the report: write to `path` in one shot /
/// read and decode, nullopt when missing or malformed.
bool write_report_file(const std::string& path, const WorkerReport& r);
std::optional<WorkerReport> read_report_file(const std::string& path);

}  // namespace sdsm::proc
