// CHAOS demo: partition -> translation table -> inspector -> executor on a
// synthetic irregular gather/scatter, showing the schedule structure and
// the effect of the translation-table storage policy.
//
// Build & run:   ./build/chaos_demo
#include <cstdio>
#include <numeric>

#include "src/chaos/chaos_runtime.hpp"
#include "src/chaos/executor.hpp"
#include "src/chaos/inspector.hpp"
#include "src/chaos/translation_table.hpp"
#include "src/common/rng.hpp"
#include "src/partition/partition.hpp"

using namespace sdsm;
using namespace sdsm::chaos;

int main() {
  constexpr std::int64_t kN = 4096;
  constexpr std::uint32_t kProcs = 4;

  std::vector<NodeId> owner(kN);
  for (std::int64_t i = 0; i < kN; ++i) {
    owner[static_cast<std::size_t>(i)] = part::block_owner(i, kN, kProcs);
  }

  for (const TableKind kind :
       {TableKind::kReplicated, TableKind::kDistributed, TableKind::kPaged}) {
    const auto table = TranslationTable::build(owner, kProcs, kind);
    const char* kind_name = kind == TableKind::kReplicated ? "replicated"
                            : kind == TableKind::kDistributed ? "distributed"
                                                              : "paged";
    std::printf("--- translation table: %s (%zu bytes/node) ---\n", kind_name,
                table.bytes_per_node(0));

    ChaosRuntime rt(kProcs);
    std::vector<double> node_sum(kProcs, 0.0);
    rt.run([&](ChaosNode& node) {
      const auto range = part::block_partition(kN, kProcs)[node.id()];
      std::vector<double> local(static_cast<std::size_t>(range.size()));
      for (std::int64_t i = 0; i < range.size(); ++i) {
        local[static_cast<std::size_t>(i)] =
            static_cast<double>(range.begin + i);
      }

      // Irregular references: 200 random elements anywhere.
      Rng rng(1234 + node.id());
      std::vector<std::int64_t> refs;
      for (int k = 0; k < 200; ++k) {
        refs.push_back(static_cast<std::int64_t>(rng.next_below(kN)));
      }

      InspectorStats stats;
      const Schedule sched = build_schedule(node, refs, table, &stats);
      if (node.id() == 0) {
        std::printf("  node 0: %lld refs, %lld distinct remote, "
                    "%lld remote table lookups, %d ghosts\n",
                    static_cast<long long>(stats.references),
                    static_cast<long long>(stats.distinct_remote),
                    static_cast<long long>(stats.table_lookups_sent),
                    sched.num_ghosts);
      }

      std::vector<double> ghosts(static_cast<std::size_t>(sched.num_ghosts));
      gather<double>(node, sched, local, ghosts);

      const auto localized =
          localize_references(node.id(), refs, table, sched);
      double sum = 0;
      for (const std::int32_t lr : localized) {
        sum += static_cast<std::size_t>(lr) < local.size()
                   ? local[static_cast<std::size_t>(lr)]
                   : ghosts[static_cast<std::size_t>(lr) - local.size()];
      }
      node_sum[node.id()] = sum;
      node.barrier();
    });

    const double total =
        std::accumulate(node_sum.begin(), node_sum.end(), 0.0);
    const net::NetStats& traffic = rt.network().stats();
    std::printf("  gathered-value total: %.0f; fabric: %llu messages, "
                "%.4f MB\n\n",
                total, static_cast<unsigned long long>(traffic.messages()),
                traffic.megabytes());
  }
  return 0;
}
