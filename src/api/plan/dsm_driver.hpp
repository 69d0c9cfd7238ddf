// The DSM-substrate driver: every ExecutionPlan with at least one region
// under AccessStrategy::kPageDsm.
//
// Two assignments run here:
//
//  - page-dsm on both regions (kTmkBase, kTmkOptimized): demand paging or
//    Validate aggregation for the rebuild reads, the compute loop, the
//    round-scheduled reduction and the owner update.
//
//  - the mixed assignment (kHybrid): the state partition stays under the
//    page protocol — per-node page-aligned slices, owner WRITE_ALL
//    updates, rebuild state reads via aggregated Validate — while the
//    indirection region runs the shared inspector-gather strategy
//    (plan/inspector_gather.hpp) as application-plane payloads on the same
//    DSM transport (plan/dsm_exchange.hpp).
//
// run_dsm() resolves the ExecutionPlan and dispatches.  Defined in
// dsm_driver.cpp for T = double and double3.
#pragma once

#include <cstdint>

#include "src/api/kernel.hpp"
#include "src/api/reuse.hpp"
#include "src/core/dsm.hpp"

namespace sdsm::api::plan {

template <typename T>
KernelResult run_dsm(core::DsmRuntime& rt, const KernelSpec<T>& spec,
                     RunSession* session, const BackendOptions& options,
                     std::uint32_t num_nodes, Backend kind);

}  // namespace sdsm::api::plan
