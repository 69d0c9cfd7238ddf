#include "src/api/plan/inspector_gather.hpp"

#include <algorithm>

#include "src/api/plan/step_driver.hpp"
#include "src/chaos/executor.hpp"
#include "src/chaos/inspector.hpp"

namespace sdsm::api::plan {

template <typename T>
std::shared_ptr<const chaos::TranslationTable> table_for(
    const KernelSpec<T>& spec, std::uint32_t nprocs, chaos::TableKind kind,
    RunSession* session) {
  // Owner map and translation table (remapping: owner-contiguous offsets,
  // which for a contiguous partition makes local offset = global - begin).
  // On the serving path the table is itself a cached artifact: built once
  // per (graph, kernel) on the host thread (before node fan-out, so
  // publishing it back needs no synchronization) and reused on repeats.
  if (session != nullptr && session->table) return session->table;
  std::vector<NodeId> owner(static_cast<std::size_t>(spec.num_elements));
  for (std::int64_t g = 0; g < spec.num_elements; ++g) {
    owner[static_cast<std::size_t>(g)] = owner_of(spec.owner_range, g);
  }
  auto table = std::make_shared<const chaos::TranslationTable>(
      chaos::TranslationTable::build(owner, nprocs, kind));
  if (session != nullptr) session->table = table;
  return table;
}

template <typename T>
InspectorGather<T>::InspectorGather(
    const KernelSpec<T>& spec, const BackendOptions& options,
    const chaos::TranslationTable& table, RunSession* session,
    const net::NetStats& traffic, chaos::ExchangeNode& exchange,
    IrregularNode& node, StateView state_view, OwnerUpdate owner_update)
    : spec_(spec),
      options_(options),
      table_(table),
      session_(session),
      traffic_(traffic),
      ex_(exchange),
      node_(node),
      state_view_(std::move(state_view)),
      owner_update_(std::move(owner_update)),
      me_(exchange.id()),
      local_n_(static_cast<std::size_t>(spec.owner_range[me_].size())) {
  const part::Range mine = spec.owner_range[me_];
  x_all_.assign(spec.initial_state.begin() + mine.begin,
                spec.initial_state.begin() + mine.end);
}

template <typename T>
void InspectorGather<T>::fresh_rebuild(std::int64_t ordinal) {
  std::span<const T> view{};
  if (spec_.rebuild_reads_state) {
    all_state_.resize(static_cast<std::size_t>(spec_.num_elements));
    state_view_(owned(), all_state_);
    view = all_state_;
  }

  WorkItems items = spec_.build_items(node_, view);
  // Same CSR + capacity contract the Tmk backends enforce: a spec must not
  // pass on one backend and abort on another.
  const ItemsShape shape = spec_.require_valid_items(items);
  refs_ = shape.num_refs;
  max_row_ = shape.max_row;

  // Inspector: schedule + localization from the flattened row references —
  // rows of any length land in the same duplicate elimination, translation
  // lookups, and ghost-slot assignment, so variable-arity rows localize
  // exactly like fixed-arity ones.  Identical schedule and message count on
  // either fabric; only the exchange underneath differs.
  chaos::InspectorStats istats;
  sched_ = std::make_shared<const chaos::Schedule>(
      chaos::build_schedule(ex_, items.refs, table_, &istats));
  inspector_seconds_ += istats.seconds;
  ++rebuilds_;
  localized_ = chaos::localize_references(me_, items.refs, table_, *sched_);
  if (session_ != nullptr) {
    session_->fresh_builds.fetch_add(1, std::memory_order_relaxed);
    if (session_->store) {
      CachedRebuild record;
      record.items = items;  // copy: payload/offsets are moved below
      record.shape = shape;
      record.chaos_schedule = sched_;
      record.chaos_localized = localized_;
      session_->store(me_, ordinal, std::move(record));
    }
  }
  payload_ = std::move(items.payload);
  row_offsets_ = std::move(items.row_offsets);
}

template <typename T>
void InspectorGather<T>::rebuild() {
  // This node's rebuild ordinal: the schedule-cache index for both the
  // replay and record paths.  The cache is committed whole (every node's
  // trace for an ordinal, or none), so hit/miss decisions are uniform
  // across nodes and the collective state view inside fresh_rebuild can
  // never be entered by only some of them.
  const std::int64_t ordinal = ordinals_++;
  const CachedRebuild* cached =
      (session_ != nullptr && session_->lookup)
          ? session_->lookup(me_, ordinal)
          : nullptr;
  // Structure-traffic attribution: this node's sends during its rebuild
  // section (state view + inspector exchange).  Only the node's own compute
  // thread bumps its send counters, so the delta is race-free; only timed
  // rebuilds accumulate, matching the message-count window of the result.
  const net::Traffic sent0 = traffic_.node_traffic(me_);

  if (cached != nullptr) {
    refs_ = cached->shape.num_refs;
    max_row_ = cached->shape.max_row;
    payload_ = cached->items.payload;
    row_offsets_ = cached->items.row_offsets;
    sched_ = cached->chaos_schedule;
    localized_ = cached->chaos_localized;
    session_->cached_builds.fetch_add(1, std::memory_order_relaxed);
  } else {
    fresh_rebuild(ordinal);
  }
  if (options_.exec_engine == ExecEngine::kBucketed) {
    // Built from row_offsets alone — byte-identical input on every backend
    // — so the bucketed iteration order matches Tmk's exactly.
    buckets_ = RowBuckets::build(row_offsets_);
  }
  const std::size_t slots =
      local_n_ + static_cast<std::size_t>(sched_->num_ghosts);
  x_all_.resize(slots);
  f_all_.assign(slots, spec_.f_identity);
  if (session_ != nullptr && timed) {
    const net::Traffic sent = traffic_.node_traffic(me_) - sent0;
    session_->structure_messages.fetch_add(sent.messages,
                                           std::memory_order_relaxed);
    session_->structure_bytes.fetch_add(sent.bytes, std::memory_order_relaxed);
  }
}

template <typename T>
void InspectorGather<T>::execute_step() {
  const auto ghosts = static_cast<std::size_t>(sched_->num_ghosts);

  // Executor: gather remote state, compute, scatter contributions.
  // Accumulators (owned and ghost) seed with the reduction identity so
  // untouched elements — all of them, on an empty frontier — contribute
  // nothing under either operator.
  chaos::gather<T>(ex_, *sched_, owned(),
                   std::span<T>(x_all_.data() + local_n_, ghosts));
  std::fill(f_all_.begin(), f_all_.end(), spec_.f_identity);
  KernelCtx<T> ctx;
  ctx.row_offsets = row_offsets_;
  ctx.refs = localized_;
  ctx.payload = payload_;
  ctx.x = x_all_;
  ctx.f = f_all_;
  if (options_.exec_engine == ExecEngine::kBucketed) ctx.buckets = &buckets_;
  spec_.compute(node_, ctx);
  chaos::scatter<T>(ex_, *sched_, std::span<T>(f_all_.data(), local_n_),
                    std::span<const T>(f_all_.data() + local_n_, ghosts),
                    [this](T a, T b) { return spec_.combine(a, b); });

  if (spec_.update) {
    owner_update_(std::span<T>(x_all_.data(), local_n_),
                  std::span<const T>(f_all_.data(), local_n_));
  }
}

template <typename T>
bool InspectorGather<T>::finish_step() {
  // Convergence: the verdict travels as an allgather of one byte per node
  // over the exchange — every pair exchanges (even when the local frontier
  // was empty), so all nodes reach the identical decision with no side
  // channel.
  bool all_done = false;
  if (spec_.converged) {
    const bool mine_done = spec_.converged(node_, owned());
    const std::uint32_t nprocs = ex_.num_nodes();
    std::vector<std::vector<std::uint8_t>> out(nprocs);
    for (NodeId q = 0; q < nprocs; ++q) {
      if (q != me_) out[q] = {static_cast<std::uint8_t>(mine_done ? 1 : 0)};
    }
    auto in = ex_.all_to_all(std::move(out));
    all_done = mine_done;
    for (NodeId q = 0; q < nprocs; ++q) {
      if (q != me_) all_done = all_done && !in[q].empty() && in[q][0] != 0;
    }
  }
  // The step barrier is the substrate's: on the DSM it also publishes the
  // owner update's write notices (piggybacked, no extra messages).
  node_.barrier();
  return all_done;
}

template <typename T>
void InspectorGather<T>::drive(int steps, int first_global_step,
                               std::int64_t& steps_run) {
  drive_steps(
      spec_, steps, first_global_step, steps_run, done_,
      [this](int) { rebuild(); }, [this](int) { execute_step(); },
      [this](int, bool) { return finish_step(); });
}

template <typename T>
KernelResult InspectorGather<T>::account() const {
  KernelResult r;
  r.checksum = spec_.checksum(owned());
  r.refs = refs_;
  r.max_row = max_row_;
  r.overhead_seconds = inspector_seconds_;
  r.rebuilds = rebuilds_;
  return r;
}

template class InspectorGather<double>;
template class InspectorGather<double3>;
template std::shared_ptr<const chaos::TranslationTable> table_for(
    const KernelSpec<double>&, std::uint32_t, chaos::TableKind, RunSession*);
template std::shared_ptr<const chaos::TranslationTable> table_for(
    const KernelSpec<double3>&, std::uint32_t, chaos::TableKind, RunSession*);

}  // namespace sdsm::api::plan
