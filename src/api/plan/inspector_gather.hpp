// AccessStrategy::kInspectorGather, written once.
//
// The CHAOS inspector/executor mechanism is one mechanism whatever fabric
// it runs over.  Both drivers that resolve the indirection region this way
// — run_msg (CHAOS: every region over ChaosNode messages) and run_dsm's
// hybrid (state under the page protocol, gather/scatter as DsmExchange
// app-data payloads) — hold one InspectorGather per node and hand its three
// phases to the StepDriver (drive()):
//
//   rebuild       schedule-cache lookup and replay, or a fresh inspector
//                 run (state view -> build_items -> build_schedule ->
//                 localize) offered to the session store; bucket build;
//                 ghost sizing; timed structure-traffic attribution.
//   execute_step  gather ghosts -> compute -> scatter contributions ->
//                 owner update.
//   finish_step   convergence verdict allgather, then the step barrier.
//
// The two places the fabrics really differ are the caller's callables:
// how a state-reading rebuild obtains the global state (CHAOS allgathers
// the owned blocks; hybrid Validates the DSM slices), and how the owner
// update lands (CHAOS updates the private mirror in place; hybrid writes
// its DSM slice under Validate and refreshes the mirror).
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "src/api/bucketed.hpp"
#include "src/api/kernel.hpp"
#include "src/api/plan/fold.hpp"
#include "src/api/reuse.hpp"
#include "src/chaos/exchange.hpp"
#include "src/chaos/schedule.hpp"
#include "src/chaos/translation_table.hpp"
#include "src/net/netstats.hpp"

namespace sdsm::api::plan {

/// Builds (or reuses, via the session) the translation table for a
/// contiguous owner partition.
template <typename T>
std::shared_ptr<const chaos::TranslationTable> table_for(
    const KernelSpec<T>& spec, std::uint32_t nprocs, chaos::TableKind kind,
    RunSession* session);

/// One node's inspector-gather state and its three StepDriver phases.
template <typename T>
class InspectorGather {
 public:
  /// Fills `all` (spec.num_elements long) with the global state a
  /// state-reading rebuild scans; `owned` is this node's current block.
  /// Collective: every node calls it at the same rebuild.
  using StateView =
      std::function<void(std::span<const T> owned, std::span<T> all)>;
  /// Applies the owner update to this node's block of the private mirror
  /// (`x`), leaving the updated values there.  Called only when the kernel
  /// has an update phase.
  using OwnerUpdate =
      std::function<void(std::span<T> x, std::span<const T> f)>;

  /// `traffic` attributes structure traffic to this node's sends;
  /// `exchange` carries the inspector, gather/scatter and convergence
  /// exchanges; `node` is the kernel's view and supplies the step barrier.
  InspectorGather(const KernelSpec<T>& spec, const BackendOptions& options,
                  const chaos::TranslationTable& table, RunSession* session,
                  const net::NetStats& traffic, chaos::ExchangeNode& exchange,
                  IrregularNode& node, StateView state_view,
                  OwnerUpdate owner_update);

  /// Runs one section of at most `steps` steps through the StepDriver,
  /// counting executed steps into `steps_run`.  Convergence persists
  /// across sections: once converged, later sections run no steps.
  void drive(int steps, int first_global_step, std::int64_t& steps_run);

  /// This node's owned block of the state mirror.
  std::span<const T> owned() const { return {x_all_.data(), local_n_}; }
  /// This node's share of the result, for plan::fold_results: checksum
  /// partial, structure shape, inspector time (overhead_seconds) and
  /// fresh inspector runs (rebuilds; cache replays excluded).
  KernelResult account() const;

  /// Set at the warm/timed cut: only timed rebuilds are attributed to the
  /// session's structure counters, matching the result's traffic window.
  bool timed = false;

 private:
  // The StepDriver phases (plan/step_driver.hpp).
  void rebuild();
  void execute_step();
  bool finish_step();
  void fresh_rebuild(std::int64_t ordinal);

  const KernelSpec<T>& spec_;
  const BackendOptions& options_;
  const chaos::TranslationTable& table_;
  RunSession* session_;
  const net::NetStats& traffic_;
  chaos::ExchangeNode& ex_;
  IrregularNode& node_;
  StateView state_view_;
  OwnerUpdate owner_update_;
  const NodeId me_;
  const std::size_t local_n_;

  std::vector<T> x_all_;  ///< owned block, ghost region appended
  std::vector<T> f_all_;  ///< accumulators: owned block + ghost region
  std::vector<T> all_state_;
  std::shared_ptr<const chaos::Schedule> sched_;
  std::vector<std::int32_t> localized_;
  std::vector<std::int64_t> row_offsets_;
  RowBuckets buckets_;  ///< degree buckets (ExecEngine::kBucketed only)
  std::vector<double> payload_;
  double inspector_seconds_ = 0;
  std::int64_t rebuilds_ = 0;
  std::int64_t ordinals_ = 0;  ///< all rebuild events: the cache index
  std::size_t refs_ = 0;
  std::size_t max_row_ = 0;
  bool done_ = false;  ///< globally converged
};

}  // namespace sdsm::api::plan
