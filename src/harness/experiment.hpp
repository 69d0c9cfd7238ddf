// Experiment harness: runs application variants and prints rows shaped like
// the paper's Tables 1 and 2 (time, speedup, messages, data volume), plus
// machine-readable forms: a CSV line per row for scripting and a JSON
// document (write_json) whose trajectory bench/compare_bench.py diffs
// mechanically (docs/benchmarks.md describes every column).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "src/api/kernel.hpp"

namespace sdsm::harness {

/// One table row.  The kernel-result columns are `result`'s fields that
/// the schema (SDSM_KERNEL_RESULT_FIELDS, src/api/kernel.hpp) does not
/// gate kHidden; rows that are not one kernel run (serving streams, the
/// fault microbench) fill what applies and leave the rest zero.
struct Row {
  std::string group;    ///< e.g. "Every 12 iterations (seq = 1.23 s)"
  std::string variant;  ///< "CHAOS" | "Tmk base" | "Tmk optimized"
  api::KernelResult result;
  /// The adaptive-coherence decision counters (the non-hidden
  /// SDSM_TMK_COUNTERS) are emitted in JSON only when set, so every
  /// static row stays byte-identical.
  bool coherence_cols = false;
  double speedup = 0;
  /// The sequential baseline that `speedup` was computed against
  /// (speedup = seq_seconds / seconds), so the denominator of every
  /// speedup in a bench JSON is auditable instead of implied.
  double seq_seconds = 0;
  /// Reduction-round schedule the run used ("serial" | "tournament"; "-"
  /// where the notion does not apply, e.g. CHAOS rows).
  std::string schedule = "-";
  /// Serving-layer throughput: completed jobs per wall-clock second over
  /// the row's job stream.  Zero for non-serving rows.
  double jobs_per_sec = 0;
  /// Schedule-cache hits the row's job stream scored (serving rows only);
  /// deterministic when the stream runs on one worker.
  std::int64_t cache_hits = 0;
  std::string note;
};

/// The row of one kernel run: every result column from `r`, speedup
/// against `seq_seconds` (0 when there is no sequential baseline).
Row kernel_row(std::string group, std::string variant,
               const api::KernelResult& r, double seq_seconds = 0,
               std::string note = "");

class Table {
 public:
  explicit Table(std::string title);

  void add(Row row);

  /// Paper-style fixed-width table.
  void print(std::ostream& os) const;

  /// One CSV line per row (header first), for scripting: every column
  /// but the coherence counters and the note.
  void print_csv(std::ostream& os) const;

  /// The table as a JSON document: {"title", "columns": [{"key",
  /// "gate"}, ...], "rows": [{...}, ...]}; compare_bench.py gates by the
  /// "columns" header.
  void print_json(std::ostream& os) const;

  /// Writes print_json() to `path` (e.g. BENCH_api.json).  Returns false
  /// when the file cannot be opened.
  bool write_json(const std::string& path) const;

 private:
  std::string title_;
  std::vector<Row> rows_;
};

/// speedup = seq / parallel, guarded against zero.
double speedup(double seq_seconds, double par_seconds);

}  // namespace sdsm::harness
