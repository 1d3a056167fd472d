// Bench-side tracing: an in-memory span store, the transport tap that
// decorates every node's net::Transport, and the span analysis (self time
// per layer, ring coverage).
//
// Spans are recorded only around calls into the library's public surface
// (Gateway::execute, the executor it calls, NodeService::initiate and its
// future, Transport::send/receive); nothing inside the library is touched.
// With tracing off the tap is a plain forwarder: no decoding, no clocks.

#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "fleet.hpp"
#include "net/transport.hpp"

namespace fedbench {

/// Span names (the tracing contract; see README.md).
inline constexpr const char* kSpanRequest = "request";
inline constexpr const char* kSpanGatewayExecute = "gateway.execute";
inline constexpr const char* kSpanGatewayExecutor = "gateway.executor";
inline constexpr const char* kSpanServiceAwait = "service.await";
inline constexpr const char* kSpanTransportSend = "transport.send";
inline constexpr const char* kSpanTransportDeliver = "transport.deliver";
inline constexpr const char* kSpanServiceHop = "service.hop";

/// net::Message alternative index (RoundToken, ResultAnnouncement,
/// RingRepair, SumToken, QueryAnnounce), used as a span tag.
inline constexpr std::size_t kMessageKinds = 5;
[[nodiscard]] bool isTokenKind(int kind);

struct Span {
  const char* name = nullptr;
  std::int64_t start = 0;  ///< nowNs()
  std::int64_t end = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t trace = 0;   ///< the request's id
  int tag = -1;              ///< message kind for transport/hop spans
};

/// Process-wide span store.  Spans go to per-thread buffers (no lock on
/// the hot path) and are merged by drain().
class SpanStore {
 public:
  static SpanStore& global();

  void setEnabled(bool on) { enabled_.store(on, std::memory_order_release); }
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_acquire);
  }
  [[nodiscard]] std::uint64_t newId() {
    return nextId_.fetch_add(1, std::memory_order_relaxed);
  }
  void record(const Span& span);
  /// Moves every recorded span out of the per-thread buffers.
  [[nodiscard]] std::vector<Span> drain();

  /// Ties a wire query id to the request trace and the service.await span
  /// that waits for it, so transport spans can find their parents.
  void bindQuery(std::uint64_t queryId, std::uint64_t trace,
                 std::uint64_t awaitSpan);
  /// Binds a grouped query's phase sub-query to its parent's binding.
  void aliasQuery(std::uint64_t subQueryId, std::uint64_t parentQueryId);
  struct Binding {
    std::uint64_t trace = 0;
    std::uint64_t awaitSpan = 0;
  };
  [[nodiscard]] Binding lookup(std::uint64_t queryId) const;

 private:
  struct Buffer {
    std::mutex mutex;
    std::vector<Span> spans;  // guarded by mutex (taken by drain)
  };
  Buffer& localBuffer();

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> nextId_{1};
  std::mutex buffersMutex_;
  std::vector<std::shared_ptr<Buffer>> buffers_;  // guarded by buffersMutex_
  mutable std::mutex bindMutex_;
  std::unordered_map<std::uint64_t, Binding> bindings_;  // guarded by bindMutex_
};

/// The request a caller thread is currently serving; spans opened below
/// it (gateway.executor, service.await) attach here.
struct RequestContext {
  std::uint64_t trace = 0;
  std::uint64_t parentSpan = 0;
};
RequestContext& currentRequest();

/// Shared state of every tap of one fleet: per-type traffic counts, the
/// per-link send records that pair a send with its receive, and each
/// node's received-but-not-yet-forwarded messages per query.
class TapState {
 public:
  TapState() = default;
  TapState(const TapState&) = delete;
  TapState& operator=(const TapState&) = delete;

  void setTracing(bool on) { tracing_.store(on, std::memory_order_release); }
  [[nodiscard]] bool tracing() const {
    return tracing_.load(std::memory_order_acquire);
  }

  struct KindTally {
    std::uint64_t messages = 0;
    std::uint64_t bytes = 0;
  };
  /// Per-type totals recorded while tracing was on.
  [[nodiscard]] std::array<KindTally, kMessageKinds> tallies() const;
  /// Up to kPayloadSample payloads captured while tracing (codec costs).
  [[nodiscard]] std::vector<privtopk::Bytes> payloadSample() const;
  static constexpr std::size_t kPayloadSample = 512;

 private:
  friend class TapTransport;

  struct PendingSend {
    std::uint64_t queryId = 0;
    int kind = 0;
    std::int64_t sentAt = 0;
  };
  struct Link {
    std::mutex mutex;
    std::deque<PendingSend> pending;  // guarded by mutex
  };
  /// Received messages a node has not forwarded yet, per query, by hop
  /// category (announce / token / result).
  struct NodeInbox {
    std::mutex mutex;
    std::unordered_map<std::uint64_t, std::array<std::deque<std::int64_t>, 3>>
        received;  // guarded by mutex
  };

  /// Counts a traced send and records its transport.send span and the
  /// service.hop span that ends at it.
  void onSend(NodeId from, const privtopk::Bytes& payload, std::int64_t start,
              std::int64_t end, int kind, std::uint64_t queryId);

  std::atomic<bool> tracing_{false};
  std::array<Link, kNodes * kNodes> links_;
  std::array<NodeInbox, kNodes> inboxes_;
  std::array<std::atomic<std::uint64_t>, kMessageKinds> messages_{};
  std::array<std::atomic<std::uint64_t>, kMessageKinds> bytes_{};
  mutable std::mutex sampleMutex_;
  std::vector<privtopk::Bytes> sample_;  // guarded by sampleMutex_
};

/// The bench-side net::Transport decorator.  Traced, it decodes each
/// payload with net::decodeMessage, records transport.send around the
/// inner send, transport.deliver from the send to the matching receive on
/// the same link, and service.hop from a node's receive of a query's
/// message to that node's next send for the query.
class TapTransport final : public privtopk::net::Transport {
 public:
  TapTransport(privtopk::net::Transport& inner, TapState& state)
      : inner_(inner), state_(state) {}

  void send(NodeId from, NodeId to, const privtopk::Bytes& payload) override;
  [[nodiscard]] std::optional<privtopk::net::Envelope> receive(
      NodeId node, std::chrono::milliseconds timeout) override;
  void shutdown() override { inner_.shutdown(); }

 private:
  privtopk::net::Transport& inner_;
  TapState& state_;
};

/// What the traced phase's spans say, per request.
struct SpanAnalysis {
  std::size_t spans = 0;
  std::size_t traces = 0;
  /// Self time per request (µs) by span name: duration minus the union of
  /// its children's intervals.
  std::map<std::string, double> selfUsPerRequest;
  std::vector<double> sendUs, deliverUs, hopUs;  // span durations
  std::vector<double> gatewaySelfUs;  // gateway.execute minus its executor
  /// Per flat ring request: (token-chain transport.deliver + service.hop
  /// inside the await window) / service.await.
  std::vector<double> ringCoverage;
};
[[nodiscard]] SpanAnalysis analyzeSpans(const std::vector<Span>& spans);

/// Writes the spans of the first `maxTraces` requests (by trace id) as
/// tab-separated lines (name, trace, id, parent, start_ns, end_ns, tag) to
/// `path`; returns false when the file cannot be written.
bool writeSpans(const std::vector<Span>& spans, const std::string& path,
                std::size_t maxTraces);

}  // namespace fedbench
