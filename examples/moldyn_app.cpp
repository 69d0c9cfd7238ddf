// Moldyn end to end: sequential reference plus every sdsm::api backend on
// one scaled workload — the domain scenario the paper's introduction
// motivates (CHARMM-style non-bonded force computation with a periodically
// rebuilt interaction list), written once and swept over backends.
//
// Build & run:   ./build/moldyn_app [--transport=inproc|socket]
//                                   [--backend=chaos|tmk-base|tmk-optimized]
//                                   [--schedule=serial|tournament]
//                                   [--coherence=static|adaptive]
//                                   [--exec=rows|bucketed]
// Node threads only: --mode=processes exits 2.
#include <cstdio>
#include <iostream>

#include "src/apps/moldyn/moldyn_kernel.hpp"
#include "src/harness/experiment.hpp"
#include "src/harness/options.hpp"

using namespace sdsm;
using namespace sdsm::apps;

int main(int argc, char** argv) {
  const harness::Options opt = harness::Options::parse(argc, argv);
  opt.threads_only("moldyn_app runs node threads only");
  moldyn::Params p;
  p.num_molecules = 2048;
  p.num_steps = 12;
  p.update_interval = 6;
  p.nprocs = 4;

  std::printf("moldyn: %lld molecules, %d steps, list rebuilt every %d, "
              "%u nodes\n\n",
              static_cast<long long>(p.num_molecules), p.num_steps,
              p.update_interval, p.nprocs);

  const moldyn::System sys = moldyn::make_system(p);
  const auto seq = moldyn::run_seq(p, sys);
  std::printf("sequential: %.3f s, checksum %.6f\n\n", seq.seconds,
              seq.checksum);

  harness::Table table("moldyn variants");
  api::BackendOptions opts =
      api::with_knobs(moldyn::default_options(), opt.knobs);
  opts.region_bytes = 16u << 20;

  for (const api::Backend b : opt.backends) {
    const auto r = moldyn::run(b, p, sys, opts);
    std::printf("%-14s: checksum %s\n", api::backend_name(b),
                checksum_close(r.checksum, seq.checksum) ? "OK" : "MISMATCH");
    table.add(harness::kernel_row("2048 molecules", api::backend_name(b), r,
                                  seq.seconds));
  }

  std::printf("\n");
  table.print(std::cout);
  return 0;
}
