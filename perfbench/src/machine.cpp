#include "perfbench/src/machine.hpp"

#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <thread>

#include "perfbench/src/record.hpp"

namespace perfbench {

int affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 0;
  return CPU_COUNT(&set);
}

void emit_fingerprint() {
  double load[3] = {0, 0, 0};
  if (getloadavg(load, 3) != 3) load[0] = load[1] = load[2] = -1;
  Rec("fingerprint")
      .i("nproc", sysconf(_SC_NPROCESSORS_ONLN))
      .i("affinity_cpus", affinity_cpus())
      .u("hardware_concurrency", std::thread::hardware_concurrency())
      .s("compiler", PERFBENCH_COMPILER)
      .s("build_type", PERFBENCH_BUILD_TYPE)
      .d("loadavg_1m", load[0])
      .d("loadavg_5m", load[1])
      .d("loadavg_15m", load[2])
      .emit();
}

std::int64_t calibration_ns() {
  // A dependent chain, so the time tracks core speed, not memory.
  const std::int64_t t0 = now_ns();
  std::uint64_t h = 0x9e3779b97f4a7c15ull;
  double acc = 1.0;
  for (int i = 0; i < 40'000'000; ++i) {
    h = h * 6364136223846793005ull + 1442695040888963407ull;
    acc = acc * 0.999999 + static_cast<double>(h >> 40) * 1e-12;
  }
  const std::int64_t t1 = now_ns();
  // An observable result, so the loop cannot be folded away.
  if (acc < 0 && h == 0) std::fputs("calibration: impossible\n", stderr);
  return t1 - t0;
}

std::int64_t peak_rss_bytes() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<std::int64_t>(ru.ru_maxrss) * 1024;
}

}  // namespace perfbench
