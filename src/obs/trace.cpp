#include "obs/trace.hpp"

#include <algorithm>
#include <sstream>

namespace privtopk::obs {

EventTracer& EventTracer::global() {
  static EventTracer tracer;
  return tracer;
}

void EventTracer::enable(std::ostream* sink) {
  std::scoped_lock lock(mutex_);
  sink_ = sink;
  enabled_.store(sink != nullptr, std::memory_order_relaxed);
}

void EventTracer::disable() { enable(nullptr); }

void EventTracer::event(std::string_view kind, std::string_view name,
                        std::initializer_list<TraceField> fields) {
  if (!enabled()) return;
  write(kind, name, fields.begin(), fields.size(), nullptr);
}

void EventTracer::span(const SpanRecord& record) {
  if (!enabled()) return;
  const std::string line = renderSpanJson(record) + "\n";
  std::scoped_lock lock(mutex_);
  if (sink_ == nullptr) return;
  (*sink_) << line;
}

std::string renderSpanJson(const SpanRecord& span) {
  std::ostringstream os;
  os << "{\"ts_ns\":" << (span.startNs + span.durNs)
     << ",\"kind\":\"span\",\"name\":\"" << span.name << "\",\"trace_id\":\""
     << span.traceId << "\",\"span_id\":\"" << span.spanId
     << "\",\"parent_span_id\":\"" << span.parentSpanId
     << "\",\"query_id\":" << span.queryId << ",\"node\":" << span.node
     << ",\"round\":" << span.round << ",\"start_ns\":" << span.startNs
     << ",\"dur_ns\":" << span.durNs << '}';
  return os.str();
}

void EventTracer::write(std::string_view kind, std::string_view name,
                        const TraceField* fields, std::size_t fieldCount,
                        const std::int64_t* durNs) {
  // The line is assembled locally and written under the mutex in one shot
  // so concurrent emitters never interleave characters.
  std::ostringstream os;
  os << "{\"ts_ns\":" << nowNs() << ",\"kind\":\"" << kind << "\",\"name\":\""
     << name << '"';
  for (std::size_t i = 0; i < fieldCount; ++i) {
    os << ",\"" << fields[i].first << "\":" << fields[i].second;
  }
  if (durNs != nullptr) os << ",\"dur_ns\":" << *durNs;
  os << "}\n";
  const std::string line = os.str();
  std::scoped_lock lock(mutex_);
  if (sink_ == nullptr) return;  // disabled between the check and the lock
  (*sink_) << line;
}

Span::Span(std::string_view name, std::initializer_list<TraceField> fields)
    : active_(EventTracer::global().enabled()), name_(name) {
  if (!active_) return;
  startNs_ = EventTracer::nowNs();
  fieldCount_ = std::min(fields.size(), kMaxFields);
  std::copy_n(fields.begin(), fieldCount_, fields_);
  EventTracer::global().write("span_begin", name_, fields_, fieldCount_,
                              nullptr);
}

Span::~Span() {
  if (!active_) return;
  const std::int64_t dur = EventTracer::nowNs() - startNs_;
  EventTracer::global().write("span_end", name_, fields_, fieldCount_, &dur);
}

}  // namespace privtopk::obs
