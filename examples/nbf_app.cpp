// NBF end to end: the GROMOS non-bonded-force kernel with static partner
// lists, across all sdsm::api backends, including the false-sharing
// configuration (the misaligned molecule count).
//
// Build & run:   ./build/nbf_app [--transport=inproc|socket]
//                                [--backend=chaos|tmk-base|tmk-optimized]
//                                [--schedule=serial|tournament]
//                                [--coherence=static|adaptive]
//                                [--exec=rows|bucketed]
// Node threads only: --mode=processes exits 2.
#include <cstdio>
#include <iostream>

#include "src/apps/nbf/nbf_kernel.hpp"
#include "src/harness/experiment.hpp"
#include "src/harness/options.hpp"

using namespace sdsm;
using namespace sdsm::apps;

int main(int argc, char** argv) {
  const harness::Options opt = harness::Options::parse(argc, argv);
  opt.threads_only("nbf_app runs node threads only");
  for (const std::int64_t molecules : {8192, 8000}) {
    nbf::Params p;
    p.molecules = molecules;
    p.partners = 16;
    p.timed_steps = 6;
    p.nprocs = 4;

    std::printf("nbf: %lld molecules (%s blocks), %d partners, %u nodes\n",
                static_cast<long long>(molecules),
                molecules % (512 * p.nprocs) == 0 ? "page-aligned"
                                                  : "misaligned",
                p.partners, p.nprocs);

    const auto seq = nbf::run_seq(p);
    harness::Table table("nbf variants");

    api::BackendOptions opts =
        api::with_knobs(nbf::default_options(), opt.knobs);
    opts.region_bytes = 16u << 20;
    for (const api::Backend b : opt.backends) {
      const auto r = nbf::run(b, p, opts);
      table.add(harness::kernel_row(
          "timed steps", api::backend_name(b), r, seq.seconds,
          checksum_close(r.checksum, seq.checksum) ? "checksum OK"
                                                   : "CHECKSUM MISMATCH"));
    }
    table.print(std::cout);
  }
  return 0;
}
