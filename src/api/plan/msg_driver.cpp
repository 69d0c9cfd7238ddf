#include "src/api/plan/msg_driver.hpp"

#include <algorithm>
#include <memory>
#include <span>
#include <vector>

#include "src/api/plan/fold.hpp"
#include "src/api/plan/inspector_gather.hpp"
#include "src/common/buffer.hpp"
#include "src/common/timer.hpp"

namespace sdsm::api::plan {

namespace {

class ChaosIrregularNode final : public IrregularNode {
 public:
  explicit ChaosIrregularNode(chaos::ChaosNode& n) : n_(n) {}
  NodeId id() const override { return n_.id(); }
  std::uint32_t num_nodes() const override { return n_.num_nodes(); }
  void barrier() override { n_.barrier(); }

 private:
  chaos::ChaosNode& n_;
};

/// The CHAOS state view: allgather the owned blocks into a full copy.
/// CHAOS has no shared memory, and the structure builder needs the global
/// view (this is the rebuild communication the DSM performs via
/// paging/Validate).
template <typename T>
void allgather_state(chaos::ChaosNode& cn,
                     const std::vector<part::Range>& owner_range,
                     std::span<const T> owned, std::span<T> all) {
  const NodeId me = cn.id();
  const std::uint32_t nprocs = cn.num_nodes();
  std::vector<std::vector<std::uint8_t>> out(nprocs);
  {
    Writer w;
    w.put_span<T>(owned);
    for (NodeId q = 0; q < nprocs; ++q) {
      if (q != me) out[q] = w.bytes();
    }
  }
  auto in = cn.all_to_all(std::move(out));
  for (NodeId q = 0; q < nprocs; ++q) {
    T* dst = all.data() + owner_range[q].begin;
    if (q == me) {
      std::copy(owned.begin(), owned.end(), dst);
    } else {
      Reader r(in[q]);
      const auto block = r.template get_vector<T>();
      std::copy(block.begin(), block.end(), dst);
    }
  }
}

}  // namespace

template <typename T>
KernelResult run_msg(chaos::ChaosRuntime& rt, const KernelSpec<T>& spec,
                     RunSession* session, const BackendOptions& options,
                     std::uint32_t num_nodes) {
  spec.require_valid(num_nodes);
  const std::uint32_t nprocs = num_nodes;
  SDSM_REQUIRE(rt.num_nodes() == nprocs);

  const std::shared_ptr<const chaos::TranslationTable> table =
      table_for(spec, nprocs, options.table, session);
  const net::NetStats& stats = rt.network().stats();

  std::vector<NodeAccount> accounts(nprocs);
  std::vector<double> inspector_seconds(nprocs, 0.0);
  std::vector<std::int64_t> rebuilds(nprocs, 0);  ///< fresh inspector runs
  std::vector<std::int64_t> steps_run(nprocs, 0);
  std::vector<double> timed_seconds(nprocs, 0.0);
  net::Traffic net_start, net_end;  // fabric totals at the two cuts
  std::uint64_t barr_start = 0, barr_end = 0;

  // No stats reset: all accounting below is snapshot-delta scoped, so a
  // warm shared runtime's cumulative totals survive each job.
  rt.run([&](chaos::ChaosNode& cn) {
    const NodeId me = cn.id();
    ChaosIrregularNode node(cn);
    InspectorGather<T> gather(
        spec, options, *table, session, stats, cn, node,
        [&](std::span<const T> owned, std::span<T> all) {
          allgather_state(cn, spec.owner_range, owned, all);
        },
        spec.update);
    std::int64_t warm_steps = 0;  // warmup steps are not reported
    gather.drive(spec.warmup_steps, 0, warm_steps);
    // Quiescent snapshots: taken by node 0 while every other node is
    // blocked inside the barrier, so the counts are deterministic.
    cn.barrier([&] {
      net_start = {stats.messages(), stats.bytes()};
      barr_start = rt.total_barriers();
    });

    gather.timed = true;
    const Timer timer;
    gather.drive(spec.num_steps, spec.warmup_steps, steps_run[me]);
    timed_seconds[me] = timer.elapsed_s();
    cn.barrier([&] {
      net_end = {stats.messages(), stats.bytes()};
      barr_end = rt.total_barriers();
    });

    accounts[me] = gather.account();
    inspector_seconds[me] = gather.inspector_seconds();
    rebuilds[me] = gather.rebuilds();
  });

  KernelResult res;
  res.backend = Backend::kChaos;
  for (const double t : timed_seconds) res.seconds = std::max(res.seconds, t);
  const net::Traffic timed = net_end - net_start;
  // Between the two snapshots lie the timed steps plus exactly one barrier
  // release (N-1 messages) and one barrier arrival (N-1), neither carrying
  // payload bytes.
  res.messages = timed.messages - 2 * (nprocs - 1);
  res.bytes = timed.bytes;
  res.megabytes = static_cast<double>(timed.bytes) / 1e6;
  // Barrier arrivals between the snapshots: the timed steps' barriers plus
  // the end snapshot's own (fully counted at its quiescent point, like the
  // start's is in barr_start).  Measured, not asserted: CHAOS synchronizes
  // through its gather/scatter exchanges, so this is normally the one
  // step-closing barrier — and the bench column will say so the day that
  // stops being true.
  res.steps_run = steps_run[0];
  if (res.steps_run > 0) {
    res.barriers_per_step =
        static_cast<double>(barr_end - barr_start - nprocs) / nprocs /
        static_cast<double>(res.steps_run);
  }
  fold_accounts(res, accounts);
  double insp = 0;
  for (const double s : inspector_seconds) insp += s;
  res.overhead_seconds = insp / nprocs;
  res.rebuilds = rebuilds[0];
  return res;
}

template KernelResult run_msg(chaos::ChaosRuntime&, const KernelSpec<double>&,
                              RunSession*, const BackendOptions&,
                              std::uint32_t);
template KernelResult run_msg(chaos::ChaosRuntime&,
                              const KernelSpec<double3>&, RunSession*,
                              const BackendOptions&, std::uint32_t);

}  // namespace sdsm::api::plan
