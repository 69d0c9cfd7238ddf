// Machine fingerprint and calibration, recorded next to every result.
#pragma once

#include <cstdint>

namespace perfbench {

/// CPUs in this process's affinity mask (sched_getaffinity).
int affinity_cpus();

/// Emits the "fingerprint" record: nproc, affinity CPUs,
/// hardware_concurrency() (which sets the in-proc transport's spin
/// budget), compiler, build type and load averages.
void emit_fingerprint();

/// A fixed single-threaded integer/floating-point loop; returns its wall
/// time.  Timed at the start and the end of a run, so a run whose machine
/// changed speed underneath it can be flagged.
std::int64_t calibration_ns();

/// Peak resident set of this process so far, in bytes.
std::int64_t peak_rss_bytes();

}  // namespace perfbench
