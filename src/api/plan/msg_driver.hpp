// The message-substrate driver: both regions under
// AccessStrategy::kInspectorGather (the CHAOS assignment).
//
// Every phase runs through the shared inspector-gather strategy
// (plan/inspector_gather.hpp) over ChaosNode messages: structure rebuilds
// run the inspector over an allgathered state view, the compute step
// gathers ghosts / scatters contributions per schedule, and the convergence
// verdict is an allgather of one byte per node.  Defined in msg_driver.cpp
// for T = double and double3.
#pragma once

#include <cstdint>

#include "src/api/kernel.hpp"
#include "src/api/reuse.hpp"
#include "src/chaos/chaos_runtime.hpp"

namespace sdsm::api::plan {

template <typename T>
KernelResult run_msg(chaos::ChaosRuntime& rt, const KernelSpec<T>& spec,
                     RunSession* session, const BackendOptions& options,
                     std::uint32_t num_nodes);

}  // namespace sdsm::api::plan
