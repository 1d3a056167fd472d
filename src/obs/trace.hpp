// Structured JSON-lines event tracer.
//
// One line per event, e.g.
//   {"ts_ns":123456789,"kind":"span_begin","name":"query","query_id":7,
//    "node":0,"round":2}
// Timestamps are monotonic (steady_clock nanoseconds), so durations are
// meaningful even across system clock adjustments.
//
// The tracer is disabled by default and zero-cost while disabled: every
// emit path starts with one relaxed atomic load, and Span captures the
// enabled flag at construction so a span opened while tracing is off stays
// a no-op for its whole lifetime.  Enable at runtime with
// `EventTracer::global().enable(&stream)`.
//
// Both execution paths feed it: the synchronous runner replays an
// ExecutionTrace as ring_step events (protocol/trace_io.hpp's
// emitTraceEvents), and the live NodeService emits query spans and round
// events as traffic arrives.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <initializer_list>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace privtopk::obs {

/// Optional integer fields attached to an event ({"query_id", 7}, ...).
using TraceField = std::pair<std::string_view, std::int64_t>;

/// One completed span of a distributed trace (docs/OBSERVABILITY.md
/// §Span schema).  Timestamps are process-local steady_clock nanoseconds;
/// `trace-view` aligns them across nodes at merge time.
struct SpanRecord {
  std::uint64_t traceId = 0;
  std::uint64_t spanId = 0;
  std::uint64_t parentSpanId = 0;  ///< 0 = root span
  std::string name;                ///< "ring_round", "announce_handled", ...
  std::uint64_t queryId = 0;
  std::uint32_t node = 0;
  std::uint32_t round = 0;
  std::int64_t startNs = 0;  ///< steady_clock ns, process-local epoch
  std::int64_t durNs = 0;

  friend bool operator==(const SpanRecord&, const SpanRecord&) = default;
};

/// Destination for completed spans.  Implementations must be thread-safe:
/// a NodeService's receiver and its initiating callers emit concurrently.
class TraceSink {
 public:
  virtual ~TraceSink() = default;
  virtual void recordSpan(const SpanRecord& span) = 0;
};

/// Renders one span as a JSON line (the `{"kind":"span",...}` schema that
/// EventTracer streams and parseSpanJsonLine reads back).  Span/trace ids
/// are rendered as decimal strings so 64-bit ids survive JSON consumers
/// that parse numbers as doubles.
[[nodiscard]] std::string renderSpanJson(const SpanRecord& span);

class EventTracer {
 public:
  static EventTracer& global();

  /// Starts writing JSON lines to `sink` (caller keeps ownership and must
  /// outlive tracing).  Passing nullptr disables.
  void enable(std::ostream* sink);
  void disable();
  [[nodiscard]] bool enabled() const {
    return enabled_.load(std::memory_order_relaxed);
  }

  /// Emits one event line.  No-op while disabled.
  void event(std::string_view kind, std::string_view name,
             std::initializer_list<TraceField> fields = {});

  /// Emits one completed span as a JSON line (TraceSink-compatible entry
  /// point for the stream sink).  No-op while disabled.
  void span(const SpanRecord& span);

  /// Monotonic timestamp in nanoseconds.
  [[nodiscard]] static std::int64_t nowNs() {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
  }

 private:
  void write(std::string_view kind, std::string_view name,
             const TraceField* fields, std::size_t fieldCount,
             const std::int64_t* durNs);
  friend class Span;

  std::atomic<bool> enabled_{false};
  std::mutex mutex_;
  std::ostream* sink_ = nullptr;
};

/// RAII span: emits span_begin at construction and span_end (with dur_ns)
/// at destruction.  Field values are captured at construction.
class Span {
 public:
  Span(std::string_view name, std::initializer_list<TraceField> fields = {});
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;
  ~Span();

 private:
  static constexpr std::size_t kMaxFields = 4;
  bool active_;
  std::int64_t startNs_ = 0;
  std::string_view name_;
  TraceField fields_[kMaxFields];
  std::size_t fieldCount_ = 0;
};

}  // namespace privtopk::obs
