#include "net/inproc.hpp"

#include <string>

namespace privtopk::net {

namespace {
const obs::Labels kInProcLabels{{"transport", "inproc"}};

[[noreturn]] void failSend(obs::Counter& sendErrors,
                           const std::string& reason) {
  sendErrors.inc();
  throw TransportError("InProcTransport: " + reason);
}
}  // namespace

InProcTransport::InProcTransport(std::size_t nodeCount,
                                 std::size_t maxQueueDepth)
    : mailboxes_(nodeCount), maxQueueDepth_(maxQueueDepth),
      metricMessagesSent_(
          obs::counter("privtopk.transport.messages_sent", kInProcLabels)),
      metricBytesSent_(
          obs::counter("privtopk.transport.bytes_sent", kInProcLabels)),
      metricMessagesReceived_(
          obs::counter("privtopk.transport.messages_received", kInProcLabels)),
      metricBytesReceived_(
          obs::counter("privtopk.transport.bytes_received", kInProcLabels)),
      metricSendErrors_(
          obs::counter("privtopk.transport.send_errors", kInProcLabels)),
      metricReceiveTimeouts_(
          obs::counter("privtopk.transport.receive_timeouts", kInProcLabels)),
      metricOverloadRejected_(
          obs::counter("privtopk.transport.overload_rejected", kInProcLabels)),
      metricQueueDepth_(
          obs::gauge("privtopk.transport.queue_depth", kInProcLabels)) {}

void InProcTransport::send(NodeId from, NodeId to, const Bytes& payload) {
  if (shutdown_.load()) failSend(metricSendErrors_, "shut down");
  if (to >= mailboxes_.size()) {
    failSend(metricSendErrors_, "unknown destination " + std::to_string(to));
  }
  Envelope env{from, to, payload};  // copy outside the mailbox lock
  Mailbox& box = mailboxes_[to];
  {
    const std::lock_guard lock(box.mutex);
    // Checked again under the lock: shutdown() raises the flag before it
    // drains each mailbox under that mailbox's lock, so nothing can land
    // behind the drain.
    if (shutdown_.load()) failSend(metricSendErrors_, "shut down");
    if (maxQueueDepth_ > 0 && box.queue.size() >= maxQueueDepth_) {
      metricOverloadRejected_.inc();
      throw OverloadError("InProcTransport: mailbox " + std::to_string(to) +
                              " is full (" + std::to_string(box.queue.size()) +
                              " envelopes)",
                          std::chrono::milliseconds(1));
    }
    box.queue.push_back(std::move(env));
    metricQueueDepth_.add(1);
  }
  box.cv.notify_one();
  messagesSent_.fetch_add(1);
  bytesSent_.fetch_add(payload.size());
  metricMessagesSent_.inc();
  metricBytesSent_.inc(payload.size());
}

std::optional<Envelope> InProcTransport::receive(
    NodeId node, std::chrono::milliseconds timeout) {
  if (node >= mailboxes_.size()) {
    throw TransportError("InProcTransport: unknown node " +
                         std::to_string(node));
  }
  Mailbox& box = mailboxes_[node];
  std::unique_lock lock(box.mutex);
  const bool ready = box.cv.wait_for(lock, timeout, [&] {
    return shutdown_.load() || !box.queue.empty();
  });
  if (!ready || box.queue.empty()) {
    // A shutdown wakeup is not a timeout; only count real deadline misses.
    if (!shutdown_.load()) metricReceiveTimeouts_.inc();
    return std::nullopt;
  }
  Envelope env = std::move(box.queue.front());
  box.queue.pop_front();
  metricQueueDepth_.sub(1);
  lock.unlock();
  metricMessagesReceived_.inc();
  metricBytesReceived_.inc(env.payload.size());
  return env;
}

void InProcTransport::shutdown() {
  if (shutdown_.exchange(true)) return;
  for (Mailbox& box : mailboxes_) {
    {
      const std::lock_guard lock(box.mutex);
      // Give discarded envelopes' contribution back to the shared gauge so
      // a transport restarted in the same process starts from level.
      if (!box.queue.empty()) {
        metricQueueDepth_.sub(static_cast<std::int64_t>(box.queue.size()));
        box.queue.clear();
      }
    }
    box.cv.notify_all();
  }
}

std::size_t InProcTransport::messagesSent() const {
  return messagesSent_.load();
}

std::size_t InProcTransport::bytesSent() const { return bytesSent_.load(); }

}  // namespace privtopk::net
