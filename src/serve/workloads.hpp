// The serving layer's kernel registry: resolves a JobRequest's kernel
// name + GraphSpec into a concrete KernelSpec, the backend options it runs
// with, and the schedule-cache fingerprint.
//
// The fingerprint is an FNV-1a digest of the kernel name, every resolved
// workload parameter, and nprocs — two requests collide exactly when they
// would build the identical graph and run the identical kernel, which is
// precisely when replaying cached schedules is sound.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/api.hpp"
#include "src/serve/job.hpp"

namespace sdsm::serve {

/// A materialized job: exactly one of `spec` / `spec3` is populated
/// (moldyn is the one double3 kernel).
struct PreparedJob {
  bool is_double3 = false;
  api::KernelSpec<double> spec;
  api::KernelSpec<double3> spec3;

  bool cacheable = false;  ///< spec.structure_cacheable
  std::uint64_t fingerprint = 0;
  /// The workload's default_options() (CHAOS table kind etc.) carrying
  /// the request's knobs; the server overlays its own wire model and
  /// region size on top.
  api::BackendOptions options;
};

/// True when `name` is a kernel this server can run.
bool known_kernel(std::string_view name);

/// All kernel names, for usage messages.
const std::vector<std::string>& kernel_names();

/// Resolves the request against `nprocs` nodes.  The request's kernel must
/// be known (checked at admission).
PreparedJob prepare_job(const JobRequest& req, std::uint32_t nprocs);

}  // namespace sdsm::serve
