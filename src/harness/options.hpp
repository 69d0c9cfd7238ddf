// harness::Options — the one command-line surface every sdsm binary
// shares.  The run knobs it parses land in one api::RunKnobs, which a
// binary lays over its workload's default_options() with api::with_knobs,
// so every knob a binary accepts reaches the run without a hand copy.
//
//   --transport=inproc|socket          fabric (default inproc)
//   --backend=chaos|tmk-base|tmk-optimized|hybrid
//                                      restrict the backend sweep; repeat
//                                      the flag (or comma-separate) for a
//                                      subset; default is all three
//   --schedule=serial|tournament       Tmk reduction-round engine
//   --mode=threads|processes           deployment: node threads in this
//                                      process, or spawned worker
//                                      processes (sdsm::proc; Tmk only)
//   --coherence=static|adaptive        page-coherence policy (default
//                                      static; adaptive enables the heat-
//                                      driven replicate/migrate/ghost
//                                      engine on the Tmk backends)
//   --exec=rows|bucketed               work-item iteration engine (default
//                                      rows; bucketed groups CSR rows into
//                                      power-of-two degree buckets and runs
//                                      the uniform buckets through
//                                      fixed-arity vectorizable loops)
//
// A binary's own switches (serve_app's --smoke, --nprocs) are named to
// parse() and stay queryable through flag() / value().  An unknown
// argument or a malformed recognized flag exits(2) with a usage message,
// and so does a well-formed value the binary cannot run (reject()) — a
// typo or an unsupported setting must never silently bench the wrong
// configuration.
#pragma once

#include <initializer_list>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "src/api/backend.hpp"
#include "src/coherence/coherence.hpp"
#include "src/net/transport.hpp"

namespace sdsm::harness {

class Options {
 public:
  /// Parses argv (argv[0] ignored) over `defaults`, the knobs the binary
  /// runs when no flag overrides them.  `switches` names the binary's own
  /// flags (without "--"), which land in the extras; any other argument,
  /// or a malformed recognized flag, exits(2).  --mode=processes implies
  /// the socket transport and rejects any other.
  static Options parse(int argc, char** argv,
                       std::initializer_list<std::string_view> switches = {},
                       const api::RunKnobs& defaults = {});

  /// --transport, --schedule, --coherence and --exec (cross-step
  /// prefetch has no flag; benches that want it set it per group).
  api::RunKnobs knobs;
  /// The backends to sweep, in kAllBackends order (deduplicated).
  std::vector<api::Backend> backends;
  DeployMode mode = DeployMode::kThreads;

  /// Exits(2) naming `--flag=value` as a setting this binary (`why`)
  /// cannot run — the refusal for a well-formed value a binary does not
  /// support, e.g. --mode=processes on a threads-only sweep.
  [[noreturn]] static void reject(const char* flag, std::string_view value,
                                  const char* why);

  /// reject()s --mode=processes for a binary (`why`) that runs threads.
  void threads_only(const char* why) const;

  /// True when `--name` appeared among the extras (with or without value).
  bool flag(std::string_view name) const;

  /// The value of `--name=V` or `--name V` among the extras, if present.
  std::optional<std::string> value(std::string_view name) const;

 private:
  std::vector<std::string> extras_;
};

}  // namespace sdsm::harness
