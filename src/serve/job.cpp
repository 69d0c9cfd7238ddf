#include "src/serve/job.hpp"

namespace sdsm::serve {

void encode(Writer& w, const GraphSpec& g) {
  w.put<std::int64_t>(g.num_elements);
  w.put<std::int32_t>(g.num_steps);
  w.put<std::int32_t>(g.warmup_steps);
  w.put<std::int32_t>(g.update_interval);
  w.put<std::int32_t>(g.edges_per_vertex);
  w.put<std::int32_t>(g.chords_per_vertex);
  w.put<std::int32_t>(g.partners);
  w.put<std::uint64_t>(g.seed);
}

GraphSpec decode_graph(Reader& r) {
  GraphSpec g;
  g.num_elements = r.get<std::int64_t>();
  g.num_steps = r.get<std::int32_t>();
  g.warmup_steps = r.get<std::int32_t>();
  g.update_interval = r.get<std::int32_t>();
  g.edges_per_vertex = r.get<std::int32_t>();
  g.chords_per_vertex = r.get<std::int32_t>();
  g.partners = r.get<std::int32_t>();
  g.seed = r.get<std::uint64_t>();
  return g;
}

void encode(Writer& w, const api::RunKnobs& k) {
  w.put<std::uint8_t>(static_cast<std::uint8_t>(k.transport));
  w.put<std::uint8_t>(static_cast<std::uint8_t>(k.round_schedule));
  w.put<std::uint8_t>(k.cross_step_prefetch ? 1 : 0);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(k.coherence));
  w.put<std::uint8_t>(static_cast<std::uint8_t>(k.exec_engine));
}

api::RunKnobs decode_knobs(Reader& r) {
  api::RunKnobs k;
  k.transport = static_cast<net::TransportKind>(r.get<std::uint8_t>());
  k.round_schedule = static_cast<api::RoundSchedule>(r.get<std::uint8_t>());
  k.cross_step_prefetch = r.get<std::uint8_t>() != 0;
  k.coherence = static_cast<coherence::CoherencePolicy>(r.get<std::uint8_t>());
  k.exec_engine = static_cast<api::ExecEngine>(r.get<std::uint8_t>());
  return k;
}

void encode(Writer& w, const JobRequest& req) {
  w.put_string(req.kernel);
  encode(w, req.graph);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(req.backend));
  encode(w, req.knobs);
}

JobRequest decode_request(Reader& r) {
  JobRequest req;
  req.kernel = r.get_string();
  req.graph = decode_graph(r);
  req.backend = static_cast<api::Backend>(r.get<std::uint8_t>());
  req.knobs = decode_knobs(r);
  return req;
}

void encode(Writer& w, const JobStats& s) {
  w.put<std::uint64_t>(s.job_id);
  w.put<std::uint8_t>(s.ok ? 1 : 0);
  w.put_string(s.error);
  w.put_string(s.kernel);
  w.put<std::uint8_t>(static_cast<std::uint8_t>(s.backend));
  w.put<std::uint8_t>(s.cache_eligible ? 1 : 0);
  w.put<std::uint8_t>(s.cache_hit ? 1 : 0);
  w.put<std::int64_t>(s.inspector_runs);
  w.put<std::uint64_t>(s.structure_messages);
  w.put<std::uint64_t>(s.structure_bytes);
  api::put_result(w, s, s);
  w.put<double>(s.queue_seconds);
  w.put<double>(s.run_seconds);
}

JobStats decode_stats(Reader& r) {
  JobStats s;
  s.job_id = r.get<std::uint64_t>();
  s.ok = r.get<std::uint8_t>() != 0;
  s.error = r.get_string();
  s.kernel = r.get_string();
  s.backend = static_cast<api::Backend>(r.get<std::uint8_t>());
  s.cache_eligible = r.get<std::uint8_t>() != 0;
  s.cache_hit = r.get<std::uint8_t>() != 0;
  s.inspector_runs = r.get<std::int64_t>();
  s.structure_messages = r.get<std::uint64_t>();
  s.structure_bytes = r.get<std::uint64_t>();
  api::get_result(r, s, s);
  s.queue_seconds = r.get<double>();
  s.run_seconds = r.get<double>();
  return s;
}

void encode(Writer& w, const ServerStats& s) {
#define SDSM_PUT_STAT(name) w.put(s.name);
  SDSM_SERVER_STATS(SDSM_PUT_STAT)
#undef SDSM_PUT_STAT
}

ServerStats decode_server_stats(Reader& r) {
  ServerStats s;
#define SDSM_GET_STAT(name) s.name = r.get<std::uint64_t>();
  SDSM_SERVER_STATS(SDSM_GET_STAT)
#undef SDSM_GET_STAT
  return s;
}

void encode(Writer& w, const SubmitResult& s) {
  w.put<std::uint8_t>(s.accepted ? 1 : 0);
  w.put<std::uint64_t>(s.job_id);
  w.put_string(s.reason);
}

SubmitResult decode_submit_result(Reader& r) {
  SubmitResult s;
  s.accepted = r.get<std::uint8_t>() != 0;
  s.job_id = r.get<std::uint64_t>();
  s.reason = r.get_string();
  return s;
}

}  // namespace sdsm::serve
