// sdsm::proc — real multi-process deployment of the Tmk backends.
//
// Where threads mode hosts every simulated node in one process, proc mode
// spawns one `sdsm_worker` process per node.  The launcher
//
//   1. binds the rendezvous listener (ephemeral port; node 0 inherits the
//      fd, the others get the port number on their command line),
//   2. fork/execs the workers with the job request hex-encoded in argv
//      (the same serve::encode codec the serving layer's control protocol
//      uses, so "a job" is one value everywhere),
//   3. monitors worker exits against a deadline — a crashed, wedged, or
//      rendezvous-timed-out worker fails the whole run with its node id,
//      exit status, and stderr log, never a hung ctest — and
//   4. folds the per-worker report files into one KernelResult.
//
// Workers talk to each other, not through the launcher: after the
// rendezvous they hold a full TCP mesh (MeshTransport) and the DSM
// protocol — page faults, diff fetches, locks, barriers — runs over it
// exactly as over the threaded socket fabric, frame-for-frame.  The
// aggregated result of a process-mode run is therefore bit-exact on
// checksums and exact on message/byte/barrier counts against a threaded
// kSocket run of the same job (asserted in tests/test_proc.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/api/kernel.hpp"
#include "src/serve/job.hpp"

namespace sdsm::proc {

struct LaunchOptions {
  std::uint32_t nprocs = 2;
  /// Worker binary; empty resolves to "sdsm_worker" next to the current
  /// executable (the build tree layout).
  std::string worker_path;
  /// Budget for the whole run.  Workers receive a slightly smaller
  /// rendezvous deadline, so a missing peer dies as a clean in-worker
  /// "rendezvous timeout" before the launcher's own deadline fires.
  int timeout_seconds = 120;
  /// Directory for per-worker stderr logs and report files; empty means
  /// $SDSM_PROC_LOG_DIR, or a fresh temp directory.  Logs are kept on
  /// failure (their paths land in LaunchResult and the error text).
  std::string log_dir;
  bool keep_logs = false;  ///< keep logs on success too
  /// Extra "NAME=VALUE" environment entries for the workers (the failure
  ///-path tests inject their SDSM_PROC_TEST_* hooks this way).
  std::vector<std::string> extra_env;
};

struct LaunchResult {
  bool ok = false;
  std::string error;  ///< names the failing worker + exit status + log tail
  /// Folded across workers under the schema's fold rules
  /// (plan::fold_results): bit-equal to a threaded run's aggregate.
  api::KernelResult result;
  std::vector<std::string> log_paths;  ///< per node, empty after cleanup
};

/// Runs one job across opt.nprocs spawned workers.  Tmk backends only —
/// CHAOS is rejected up front.
LaunchResult run_job(const serve::JobRequest& req, const LaunchOptions& opt);

/// The default worker path: "sdsm_worker" in the directory of the current
/// executable.  Exposed for diagnostics.
std::string default_worker_path();

}  // namespace sdsm::proc
