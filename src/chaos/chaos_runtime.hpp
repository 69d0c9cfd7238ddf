// CHAOS-style message-passing runtime (Section 4 of the paper).
//
// Unlike the DSM runtime, there is no shared memory here: each node owns
// plain local arrays (its partition of the data, after remapping, plus a
// ghost region).  Nodes communicate through the same net::Transport fabric
// the DSM uses (in-process or socket, per the runtime's TransportKind), so
// message and byte counts are directly comparable — which is exactly the
// comparison Tables 1 and 2 make.
#pragma once

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/assert.hpp"
#include "src/common/buffer.hpp"
#include "src/common/types.hpp"
#include "src/chaos/exchange.hpp"
#include "src/net/transport.hpp"

namespace sdsm::chaos {

class ChaosRuntime;

/// Handle given to each node's compute function.  Implements ExchangeNode,
/// the fabric-agnostic surface the inspector/executor are written against.
class ChaosNode : public ExchangeNode {
 public:
  ChaosNode(ChaosRuntime& rt, NodeId id);

  NodeId id() const override { return id_; }
  std::uint32_t num_nodes() const override;

  /// All-to-all personalized exchange: sends to_peers[p] to node p (own slot
  /// ignored) and returns the payload received from every peer (own slot
  /// empty).  Every pair exchanges a message even when empty — the
  /// request-discovery phase of the inspector cannot know in advance who
  /// needs nothing.
  std::vector<std::vector<std::uint8_t>> all_to_all(
      std::vector<std::vector<std::uint8_t>> to_peers) override;

  /// Sparse exchange used by the executor: sends only the non-empty
  /// payloads; `recv_from[p]` says whether a message from p is expected
  /// (both sides know this from the communication schedule).
  std::vector<std::vector<std::uint8_t>> sparse_exchange(
      std::vector<std::vector<std::uint8_t>> to_peers,
      const std::vector<bool>& recv_from) override;

  /// Barrier over all chaos nodes (central counter at node 0).  When
  /// at_master is non-null, node 0 runs it after every arrival and before
  /// any release: a quiescent point where no other node can be sending —
  /// used for deterministic statistics snapshots.
  void barrier(const std::function<void()>& at_master = {});

 private:
  std::vector<std::vector<std::uint8_t>> exchange(
      std::vector<std::vector<std::uint8_t>> to_peers,
      const std::vector<bool>& recv_from, bool send_empty);

  ChaosRuntime& rt_;
  const NodeId id_;
  std::vector<std::deque<std::vector<std::uint8_t>>> stash_;
};

class ChaosRuntime {
 public:
  explicit ChaosRuntime(
      std::uint32_t num_nodes, net::WireModel wire = {},
      net::TransportKind transport = net::TransportKind::kInProc)
      : net_(net::make_transport(transport, num_nodes, wire)) {}

  std::uint32_t num_nodes() const { return net_->num_nodes(); }
  net::Transport& network() { return *net_; }

  /// Barrier arrivals summed over nodes (each global barrier counts once
  /// per node, at entry — so at a barrier's quiescent at_master point the
  /// barrier itself is fully counted).  Measured, like messages, so the
  /// bench's barriers_per_step column is never asserted by fiat.
  std::uint64_t total_barriers() const {
    return barriers_.load(std::memory_order_relaxed);
  }
  void reset_stats() {
    net_->stats().reset();
    barriers_.store(0, std::memory_order_relaxed);
  }

  /// Runs `body` on one thread per node and joins.
  void run(const std::function<void(ChaosNode&)>& body);

 private:
  friend class ChaosNode;
  std::unique_ptr<net::Transport> net_;
  std::atomic<std::uint64_t> barriers_{0};
};

}  // namespace sdsm::chaos
