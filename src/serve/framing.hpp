// Length-prefixed framing of the serve control protocol, shared by the
// KernelServer's connection handler and the socket Client.
//
// Each frame is a u32 payload length followed by the payload, over the
// socket helpers every localhost fabric shares (src/net/sockio.hpp); each
// payload begins with a u32 op code and continues with the op's codec
// from src/serve/job.hpp.  One request frame yields exactly one response
// frame on the same connection (kWait blocks server-side until the job
// completes, so a client wanting concurrent waits uses one connection per
// outstanding wait — or submits everything first, then waits in turn).
#pragma once

#include <cstdint>
#include <vector>

namespace sdsm::serve {

enum ControlOp : std::uint32_t {
  kSubmit = 1,  ///< JobRequest -> SubmitResult
  kWait = 2,    ///< u64 job id -> JobStats (blocks until done)
  kStats = 3,   ///< (empty) -> ServerStats
};

/// Reads one frame into `payload`; false on clean EOF or error.
bool read_frame(int fd, std::vector<std::uint8_t>& payload);

/// Writes one frame in a single send (MSG_NOSIGNAL: a vanished peer is a
/// false return, not a SIGPIPE); false on error.
bool write_frame(int fd, const std::vector<std::uint8_t>& payload);

}  // namespace sdsm::serve
