// Layer probes for the traced run: the vm fault path through
// core::DsmRuntime and the net round trip / bandwidth through
// net::make_transport.  Each reports integer nanoseconds (medians over
// rounds), so sub-microsecond figures never round to zero.
#include <algorithm>
#include <thread>
#include <vector>

#include "perfbench/src/workloads.hpp"
#include "src/core/dsm.hpp"
#include "src/net/transport.hpp"

namespace perfbench {

namespace {

using namespace sdsm;

std::int64_t median(std::vector<std::int64_t> v) {
  std::sort(v.begin(), v.end());
  return v.empty() ? 0 : v[v.size() / 2];
}

/// Node 0 dirties kPages pages; after the barrier node 1 reads one double
/// per page cold (SIGSEGV -> diff fetch -> apply -> resident), then warm.
/// Repeated for `rounds` intervals; per-page ns medians over rounds.
void vm_probe(Tracer& tracer, int rounds) {
  auto span = tracer.span("probe.vm");
  constexpr std::size_t kPages = 256;
  core::DsmConfig cfg;
  cfg.num_nodes = 2;
  cfg.region_bytes = 4u << 20;
  core::DsmRuntime rt(cfg);
  const std::size_t stride = rt.page_size() / sizeof(double);
  const auto arr = rt.alloc_global<double>(kPages * stride);

  std::vector<std::int64_t> cold, warm;
  double sink = 0;
  rt.run([&](core::DsmNode& self) {
    double* p = self.ptr(arr);
    for (int round = 0; round < rounds; ++round) {
      if (self.id() == 0) {
        for (std::size_t pg = 0; pg < kPages; ++pg) {
          p[pg * stride] = static_cast<double>(round * 1000 + pg + 1);
        }
      }
      self.barrier();
      if (self.id() == 1) {
        double s = 0;
        const std::int64_t t0 = now_ns();
        for (std::size_t pg = 0; pg < kPages; ++pg) s += p[pg * stride];
        const std::int64_t t1 = now_ns();
        for (std::size_t pg = 0; pg < kPages; ++pg) s += p[pg * stride];
        const std::int64_t t2 = now_ns();
        cold.push_back((t1 - t0) / static_cast<std::int64_t>(kPages));
        warm.push_back((t2 - t1) / static_cast<std::int64_t>(kPages));
        sink += s;
      }
      self.barrier();
    }
  });
  Rec("probe")
      .s("name", "vm.fault")
      .i("cold_ns", median(cold))
      .i("warm_ns", median(warm))
      .d("sink", sink)  // keeps the timed reads observable
      .emit();
}

/// Echoes every request on node 1's service port with a `reply_bytes`
/// reply, from its own thread; stops and joins on destruction.
class Echo {
 public:
  Echo(net::Transport& tp, std::size_t reply_bytes)
      : tp_(tp), reply_bytes_(reply_bytes), thread_([this] { loop(); }) {}
  ~Echo() {
    tp_.stop_service(1);
    thread_.join();
  }
  Echo(const Echo&) = delete;
  Echo& operator=(const Echo&) = delete;

 private:
  void loop() {
    for (;;) {
      net::Message m = tp_.recv(net::Port::kService, 1);
      if (m.type == net::kControlStop) return;
      net::Message r;
      r.type = m.type;
      r.src = 1;
      r.dst = m.src;
      r.request_id = m.request_id;
      r.payload.resize(reply_bytes_);
      tp_.send(net::Port::kReply, std::move(r));
    }
  }

  net::Transport& tp_;
  const std::size_t reply_bytes_;
  std::thread thread_;
};

/// Round trip of `bytes` out and `reply_bytes` back between two nodes of a
/// fresh transport.  Returns the per-round-trip median over batches of
/// `iters`.
std::int64_t echo_ns(net::TransportKind kind, std::size_t bytes,
                     std::size_t reply_bytes, int batches, int iters) {
  const auto tp = net::make_transport(kind, 2);
  const Echo echo(*tp, reply_bytes);
  std::vector<std::int64_t> per_op;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = now_ns();
    for (int i = 0; i < iters; ++i) {
      net::Message m;
      m.type = 1;
      m.src = 0;
      m.dst = 1;
      m.payload.resize(bytes);
      tp->wait(tp->post(std::move(m)));
    }
    per_op.push_back((now_ns() - t0) / iters);
  }
  return median(per_op);
}

}  // namespace

void run_probes(const RunConfig& cfg, Tracer& tracer) {
  tracer.enable(true);
  vm_probe(tracer, cfg.tiny ? 3 : 9);
  const int batches = cfg.tiny ? 3 : 9;
  std::int64_t rtt_inproc = 0, rtt_socket = 0, bulk_socket = 0;
  {
    auto span = tracer.span("probe.net.inproc");
    rtt_inproc = echo_ns(net::TransportKind::kInProc, 64, 64, batches, 200);
  }
  {
    auto span = tracer.span("probe.net.socket");
    rtt_socket = echo_ns(net::TransportKind::kSocket, 64, 64, batches, 200);
  }
  // pagerank-chaos-tcp's mean message (~376 KB), acknowledged with 64 B.
  constexpr std::size_t kBulk = 376u * 1024;
  {
    auto span = tracer.span("probe.net.socket_bulk");
    bulk_socket = echo_ns(net::TransportKind::kSocket, kBulk, 64, batches,
                          cfg.tiny ? 4 : 20);
  }
  Rec("probe")
      .s("name", "net")
      .i("rtt_inproc_ns", rtt_inproc)
      .i("rtt_socket_ns", rtt_socket)
      .i("bulk_bytes", static_cast<std::int64_t>(kBulk))
      .i("bulk_socket_ns", bulk_socket)
      .emit();
}

}  // namespace perfbench
