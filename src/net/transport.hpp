// Transport abstraction: how ring neighbours exchange message bytes.
//
// Two implementations ship with the library: InProcTransport (thread-safe
// in-memory queues, used by multi-threaded integration tests and examples)
// and TcpTransport (real sockets, optionally encrypted).  The Monte-Carlo
// experiment harnesses bypass transports entirely via the synchronous
// runner in src/protocol/runner.hpp - see DESIGN.md.

#pragma once

#include <chrono>
#include <optional>

#include "common/serialization.hpp"
#include "common/types.hpp"

namespace privtopk::net {

/// A delivered message with its sender.
struct Envelope {
  NodeId from = 0;
  NodeId to = 0;
  Bytes payload;
};

/// Point-to-point, ordered, reliable message passing between named nodes.
/// Implementations must be safe for concurrent use from multiple threads.
class Transport {
 public:
  virtual ~Transport() = default;

  /// Enqueues `payload` for delivery to `to`.  send() never blocks: it
  /// enqueues, or throws OverloadError (the link's queue is full; retry
  /// later) or TransportError (the destination is unknown or the link is
  /// down).  NodeService relies on this: one thread per node handles
  /// every message and performs its sends.
  virtual void send(NodeId from, NodeId to, const Bytes& payload) = 0;

  /// Blocks until a message for `node` arrives or `timeout` elapses;
  /// returns nullopt on timeout or when the transport is shut down.
  [[nodiscard]] virtual std::optional<Envelope> receive(
      NodeId node, std::chrono::milliseconds timeout) = 0;

  /// Releases resources and wakes all blocked receivers.
  virtual void shutdown() = 0;
};

}  // namespace privtopk::net
