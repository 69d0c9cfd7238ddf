// StepDriver: the one copy of the outer step loop.
//
// Two access strategies realize each step's phases — page-dsm (the page
// protocol, with or without Validate aggregation) and inspector-gather
// (plan/inspector_gather.hpp, over CHAOS messages or the DSM's app-data
// plane) — and drive_steps() sequences them, one call per phase:
//
//   rebuild(int global_step)
//       Structure (re)build for this step.  Called only when
//       spec.rebuild_needed(global_step) says so.
//   execute_step(int global_step)
//       The computational step: gather/compute/reduce/update under the
//       plan's strategies.
//   finish_step(int global_step, bool last_in_section) -> bool
//       Step epilogue — convergence verdict exchange, step barrier, any
//       cross-step prefetch (suppressed when last_in_section).  Returns
//       true when the kernel has globally converged.
//
// The loop runs a *section* (warmup or timed) of at most `steps` steps;
// `done` persists across sections so a kernel converged during warmup
// never executes a timed step, matching the historical backends.
#pragma once

#include <cstdint>

namespace sdsm::api::plan {

template <typename Spec, typename Rebuild, typename Execute, typename Finish>
void drive_steps(const Spec& spec, int steps, int first_global_step,
                 std::int64_t& steps_run, bool& done, Rebuild&& rebuild,
                 Execute&& execute_step, Finish&& finish_step) {
  for (int s = 0; s < steps; ++s) {
    if (done) break;
    const int global_step = first_global_step + s;
    if (spec.rebuild_needed(global_step)) rebuild(global_step);
    execute_step(global_step);
    done = finish_step(global_step, /*last_in_section=*/s + 1 >= steps);
    ++steps_run;
  }
}

}  // namespace sdsm::api::plan
