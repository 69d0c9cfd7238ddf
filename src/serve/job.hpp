// Job-level types of the serving layer (sdsm::serve): what a client
// submits (JobRequest), what it gets back (JobStats), and the server-wide
// counters (ServerStats), plus their wire codecs for the socket control
// protocol.
//
// A JobRequest names a kernel by string and describes the graph by a
// GraphSpec of sentinel-defaulted parameters (0 / -1 = use the workload's
// default), so the request is a small closed value that serializes
// trivially — the server materializes the actual KernelSpec from it
// (src/serve/workloads.hpp) and two requests with equal resolved
// parameters map to the same schedule-cache fingerprint.
#pragma once

#include <cstdint>
#include <string>

#include "src/api/backend.hpp"
#include "src/api/kernel.hpp"
#include "src/common/buffer.hpp"
#include "src/net/transport.hpp"

namespace sdsm::serve {

/// Graph/workload shape, sentinel-defaulted: 0 (or -1 where 0 is
/// meaningful) leaves the corresponding workload Params field at its
/// default.  Fields not used by a kernel are ignored by it.
struct GraphSpec {
  std::int64_t num_elements = 0;  ///< molecules / vertices / rows
  int num_steps = 0;
  int warmup_steps = -1;
  int update_interval = 0;   ///< moldyn rebuild cadence
  int edges_per_vertex = 0;  ///< pagerank / spmv
  int chords_per_vertex = 0; ///< bfs / cc
  int partners = 0;          ///< nbf partner-list arity
  std::uint64_t seed = 0;
};

/// One unit of admission: kernel + graph + execution options.
struct JobRequest {
  std::string kernel;  ///< "moldyn", "nbf", "spmv", "pagerank", "bfs", "cc"
  GraphSpec graph;
  api::Backend backend = api::Backend::kTmkOptimized;
  /// The job's execution knobs.  The server keys its warm engines by
  /// (backend, knobs), so in-proc and socket jobs coexist, and a warm
  /// adaptive arena — carrying census/directory/heat state a static job
  /// must never see — is never shared with a static one.
  api::RunKnobs knobs;
};

/// Everything a completed (or failed) job reports back.
struct JobStats {
  std::uint64_t job_id = 0;
  bool ok = false;
  std::string error;  ///< empty when ok

  std::string kernel;
  api::Backend backend = api::Backend::kTmkOptimized;

  bool cache_eligible = false;  ///< spec.structure_cacheable
  bool cache_hit = false;       ///< full replay: no inspector ran
  /// Fresh structure builds per node (uniform across nodes): the paper's
  /// inspector-run count.  0 on the hit path.
  std::int64_t inspector_runs = 0;
  /// Fabric traffic attributed to structure maintenance during timed
  /// steps (CHAOS allgather + inspector exchange; 0 on Tmk, whose
  /// Validate traffic is identical either way).
  std::uint64_t structure_messages = 0;
  std::uint64_t structure_bytes = 0;

  /// The job's KernelResult, field for field under the schema's names
  /// (src/api/kernel.hpp), and every TmkCounters counter under its own
  /// name (timed-window snapshot deltas; the adaptive-coherence decisions
  /// are zero for static jobs).
#define SDSM_JOB_RESULT_FIELD(type, name, fold, gate) type name = 0;
  SDSM_KERNEL_RESULT_FIELDS(SDSM_JOB_RESULT_FIELD)
#undef SDSM_JOB_RESULT_FIELD
#define SDSM_JOB_COUNTER(name, gate) std::uint64_t name = 0;
  SDSM_TMK_COUNTERS(SDSM_JOB_COUNTER)
#undef SDSM_JOB_COUNTER

  double queue_seconds = 0;  ///< admission -> worker pickup
  double run_seconds = 0;    ///< worker pickup -> completion
};

/// Copies every result field and protocol counter of `r` into `s`.
inline void set_result(JobStats& s, const api::KernelResult& r) {
  const auto copy = [](const api::ResultField&, auto& dst, const auto& src) {
    dst = src;
  };
  api::for_each_result_field(copy, s, r);
  api::for_each_tmk_counter(copy, s, r.tmk);
}

/// Server-wide counters at one point in time, declared once: the members
/// and the stats-frame codec come from this list.
#define SDSM_SERVER_STATS(X)                                             \
  X(submitted)    /* accepted into the queue */                          \
  X(rejected)     /* backpressure / shutdown / unknown kernel */         \
  X(completed)                                                           \
  X(failed)                                                              \
  X(cache_hits)                                                          \
  X(cache_misses)                                                        \
  X(queue_depth)  /* admitted, not yet picked up */                      \
  X(in_flight)    /* picked up, not yet completed */
struct ServerStats {
#define SDSM_SERVER_STAT(name) std::uint64_t name = 0;
  SDSM_SERVER_STATS(SDSM_SERVER_STAT)
#undef SDSM_SERVER_STAT
};

/// Outcome of one submit: accepted (job_id valid) or rejected with a
/// human-readable reason.
struct SubmitResult {
  bool accepted = false;
  std::uint64_t job_id = 0;
  std::string reason;  ///< empty when accepted
};

// --- Wire codecs (socket control protocol payloads) -----------------------

void encode(Writer& w, const GraphSpec& g);
GraphSpec decode_graph(Reader& r);

void encode(Writer& w, const api::RunKnobs& k);
api::RunKnobs decode_knobs(Reader& r);

void encode(Writer& w, const JobRequest& req);
JobRequest decode_request(Reader& r);

void encode(Writer& w, const JobStats& s);
JobStats decode_stats(Reader& r);

void encode(Writer& w, const ServerStats& s);
ServerStats decode_server_stats(Reader& r);

void encode(Writer& w, const SubmitResult& s);
SubmitResult decode_submit_result(Reader& r);

}  // namespace sdsm::serve
