#include "src/serve/framing.hpp"

#include <cstring>

#include "src/net/sockio.hpp"

namespace sdsm::serve {

bool read_frame(int fd, std::vector<std::uint8_t>& payload) {
  std::uint32_t len = 0;
  if (!net::read_full(fd, &len, sizeof(len))) return false;
  payload.resize(len);
  return len == 0 || net::read_full(fd, payload.data(), len);
}

bool write_frame(int fd, const std::vector<std::uint8_t>& payload) {
  // Length and payload leave in one send: split, Nagle holds the payload
  // back until the peer's delayed ACK of the length arrives.
  const auto len = static_cast<std::uint32_t>(payload.size());
  std::vector<std::uint8_t> frame(sizeof(len) + payload.size());
  std::memcpy(frame.data(), &len, sizeof(len));
  if (!payload.empty()) {
    std::memcpy(frame.data() + sizeof(len), payload.data(), payload.size());
  }
  return net::write_full(fd, frame.data(), frame.size());
}

}  // namespace sdsm::serve
