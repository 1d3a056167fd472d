// In-process transport: one FIFO mailbox per node, each with its own mutex
// and condition variable.  A send locks only the destination mailbox and
// wakes only its addressee, so traffic to one node never stalls or wakes
// the receivers of the others.  Delivery is instantaneous and ordered per
// sender.  An optional per-mailbox depth cap turns a send to a saturated
// node into OverloadError, matching the TCP transport's write-queue
// backpressure so the transport-conformance suite can exercise both the
// same way.

#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <deque>
#include <mutex>
#include <vector>

#include "common/error.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace privtopk::net {

class InProcTransport final : public Transport {
 public:
  /// Creates mailboxes for nodes 0..nodeCount-1.  `maxQueueDepth` bounds
  /// each mailbox (0 = unbounded); a send to a full mailbox throws
  /// OverloadError without enqueueing.
  explicit InProcTransport(std::size_t nodeCount,
                           std::size_t maxQueueDepth = 0);

  void send(NodeId from, NodeId to, const Bytes& payload) override;

  [[nodiscard]] std::optional<Envelope> receive(
      NodeId node, std::chrono::milliseconds timeout) override;

  void shutdown() override;

  /// Messages ever sent (all nodes) - convenient for cost accounting.
  [[nodiscard]] std::size_t messagesSent() const;
  /// Payload bytes ever sent.
  [[nodiscard]] std::size_t bytesSent() const;

 private:
  struct Mailbox {
    std::mutex mutex;
    std::condition_variable cv;
    std::deque<Envelope> queue;
  };

  std::vector<Mailbox> mailboxes_;
  std::size_t maxQueueDepth_ = 0;
  std::atomic<bool> shutdown_{false};
  std::atomic<std::size_t> messagesSent_{0};
  std::atomic<std::size_t> bytesSent_{0};

  // Cached global-metric cells (registration is cold; inc is lock-free).
  obs::Counter& metricMessagesSent_;
  obs::Counter& metricBytesSent_;
  obs::Counter& metricMessagesReceived_;
  obs::Counter& metricBytesReceived_;
  obs::Counter& metricSendErrors_;
  obs::Counter& metricReceiveTimeouts_;
  obs::Counter& metricOverloadRejected_;
  obs::Gauge& metricQueueDepth_;
};

}  // namespace privtopk::net
