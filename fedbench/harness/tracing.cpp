#include "tracing.hpp"

#include <algorithm>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "net/message.hpp"

namespace fedbench {

namespace pn = privtopk::net;

bool isTokenKind(int kind) {
  return kind == 0 || kind == 3;  // RoundToken, SumToken
}

// ---------------------------------------------------------------------------
// SpanStore.

SpanStore& SpanStore::global() {
  static SpanStore store;
  return store;
}

SpanStore::Buffer& SpanStore::localBuffer() {
  thread_local std::shared_ptr<Buffer> local;
  if (!local) {
    local = std::make_shared<Buffer>();
    std::scoped_lock lock(buffersMutex_);
    buffers_.push_back(local);
  }
  return *local;
}

void SpanStore::record(const Span& span) {
  Buffer& buffer = localBuffer();
  std::scoped_lock lock(buffer.mutex);
  buffer.spans.push_back(span);
}

std::vector<Span> SpanStore::drain() {
  std::vector<Span> all;
  std::scoped_lock lock(buffersMutex_);
  for (const auto& buffer : buffers_) {
    std::scoped_lock bufferLock(buffer->mutex);
    all.insert(all.end(), buffer->spans.begin(), buffer->spans.end());
    buffer->spans.clear();
  }
  return all;
}

void SpanStore::bindQuery(std::uint64_t queryId, std::uint64_t trace,
                          std::uint64_t awaitSpan) {
  std::scoped_lock lock(bindMutex_);
  bindings_[queryId] = Binding{trace, awaitSpan};
}

void SpanStore::aliasQuery(std::uint64_t subQueryId,
                           std::uint64_t parentQueryId) {
  std::scoped_lock lock(bindMutex_);
  const auto it = bindings_.find(parentQueryId);
  if (it != bindings_.end()) bindings_[subQueryId] = it->second;
}

SpanStore::Binding SpanStore::lookup(std::uint64_t queryId) const {
  std::scoped_lock lock(bindMutex_);
  const auto it = bindings_.find(queryId);
  return it == bindings_.end() ? Binding{} : it->second;
}

RequestContext& currentRequest() {
  thread_local RequestContext context;
  return context;
}

// ---------------------------------------------------------------------------
// TapState / TapTransport.

namespace {

std::uint64_t queryIdOf(const pn::Message& message) {
  return std::visit([](const auto& m) { return m.queryId; }, message);
}

/// Hop categories: a forward of kind K pairs with the oldest unforwarded
/// receive of the same category (a result forward falls back to the
/// token that triggered it at the node that closes the last round).
enum HopCategory : int { kHopAnnounce = 0, kHopToken = 1, kHopResult = 2 };

int hopCategory(int kind) {
  if (kind == 4) return kHopAnnounce;
  if (kind == 1) return kHopResult;
  if (isTokenKind(kind)) return kHopToken;
  return -1;  // ring repair: not part of a hop chain
}

}  // namespace

std::array<TapState::KindTally, kMessageKinds> TapState::tallies() const {
  std::array<KindTally, kMessageKinds> out{};
  for (std::size_t k = 0; k < kMessageKinds; ++k) {
    out[k].messages = messages_[k].load(std::memory_order_relaxed);
    out[k].bytes = bytes_[k].load(std::memory_order_relaxed);
  }
  return out;
}

std::vector<privtopk::Bytes> TapState::payloadSample() const {
  std::scoped_lock lock(sampleMutex_);
  return sample_;
}

void TapState::onSend(NodeId from, const privtopk::Bytes& payload,
                      std::int64_t start, std::int64_t end, int kind,
                      std::uint64_t queryId) {
  SpanStore& store = SpanStore::global();
  const auto binding = store.lookup(queryId);
  messages_[static_cast<std::size_t>(kind)].fetch_add(1,
                                                      std::memory_order_relaxed);
  bytes_[static_cast<std::size_t>(kind)].fetch_add(payload.size(),
                                                   std::memory_order_relaxed);
  {
    std::scoped_lock lock(sampleMutex_);
    if (sample_.size() < kPayloadSample) sample_.push_back(payload);
  }
  // The hop that ends here: this node's oldest unforwarded receive of the
  // query in the matching category.
  std::int64_t receivedAt = 0;
  int receivedCategory = -1;
  const int category = hopCategory(kind);
  if (category >= 0) {
    NodeInbox& inbox = inboxes_[from];
    std::scoped_lock lock(inbox.mutex);
    const auto it = inbox.received.find(queryId);
    if (it != inbox.received.end()) {
      auto& queues = it->second;
      auto pick = [&](int c) {
        auto& queue = queues[static_cast<std::size_t>(c)];
        if (queue.empty()) return false;
        receivedAt = queue.front();
        receivedCategory = c;
        queue.pop_front();
        return true;
      };
      if (!pick(category) && category == kHopResult) (void)pick(kHopToken);
      if (std::all_of(queues.begin(), queues.end(),
                      [](const auto& q) { return q.empty(); })) {
        inbox.received.erase(it);
      }
    }
  }
  if (binding.trace == 0) return;
  store.record(Span{kSpanTransportSend, start, end, store.newId(),
                    binding.awaitSpan, binding.trace, kind});
  if (receivedAt != 0) {
    store.record(Span{kSpanServiceHop, receivedAt, start, store.newId(),
                      binding.awaitSpan, binding.trace,
                      receivedCategory == kHopToken ? 0 : kind});
  }
}

void TapTransport::send(NodeId from, NodeId to,
                        const privtopk::Bytes& payload) {
  if (!state_.tracing()) {
    inner_.send(from, to, payload);
    return;
  }
  const pn::Message message = pn::decodeMessage(payload);
  const int kind = static_cast<int>(message.index());
  const std::uint64_t queryId = queryIdOf(message);
  if (const auto* announce = std::get_if<pn::QueryAnnounce>(&message);
      announce != nullptr && announce->parentQueryId != 0) {
    SpanStore::global().aliasQuery(queryId, announce->parentQueryId);
  }
  // Record the send before handing it over: the receiver may pop it
  // before inner_.send returns.
  TapState::Link& link = state_.links_[from * kNodes + to];
  const std::int64_t start = nowNs();
  {
    std::scoped_lock lock(link.mutex);
    link.pending.push_back({queryId, kind, start});
  }
  try {
    inner_.send(from, to, payload);
  } catch (...) {
    std::scoped_lock lock(link.mutex);
    const auto it = std::find_if(
        link.pending.rbegin(), link.pending.rend(), [&](const auto& p) {
          return p.queryId == queryId && p.kind == kind && p.sentAt == start;
        });
    if (it != link.pending.rend()) link.pending.erase(std::next(it).base());
    throw;
  }
  state_.onSend(from, payload, start, nowNs(), kind, queryId);
}

std::optional<pn::Envelope> TapTransport::receive(
    NodeId node, std::chrono::milliseconds timeout) {
  auto envelope = inner_.receive(node, timeout);
  if (!envelope || !state_.tracing()) return envelope;
  const std::int64_t now = nowNs();
  pn::Message message;
  try {
    message = pn::decodeMessage(envelope->payload);
  } catch (const std::exception&) {
    return envelope;  // the service logs and drops malformed traffic
  }
  const int kind = static_cast<int>(message.index());
  const std::uint64_t queryId = queryIdOf(message);

  // Links are FIFO per sender, but several dispatcher threads of one node
  // may send concurrently, so pair on (query, kind) rather than position.
  std::int64_t sentAt = 0;
  {
    TapState::Link& link = state_.links_[envelope->from * kNodes + node];
    std::scoped_lock lock(link.mutex);
    const auto it = std::find_if(
        link.pending.begin(), link.pending.end(), [&](const auto& p) {
          return p.queryId == queryId && p.kind == kind;
        });
    if (it != link.pending.end()) {
      sentAt = it->sentAt;
      link.pending.erase(it);
    }
  }
  const int category = hopCategory(kind);
  if (category >= 0) {
    TapState::NodeInbox& inbox = state_.inboxes_[node];
    std::scoped_lock lock(inbox.mutex);
    inbox.received[queryId][static_cast<std::size_t>(category)].push_back(now);
  }
  SpanStore& store = SpanStore::global();
  const auto binding = store.lookup(queryId);
  if (sentAt != 0 && binding.trace != 0) {
    store.record(Span{kSpanTransportDeliver, sentAt, now, store.newId(),
                      binding.awaitSpan, binding.trace, kind});
  }
  return envelope;
}

// ---------------------------------------------------------------------------
// Analysis.

namespace {

/// Length of the union of `intervals` clipped to [lo, hi].
std::int64_t coveredWithin(std::vector<std::pair<std::int64_t, std::int64_t>>&
                               intervals,
                           std::int64_t lo, std::int64_t hi) {
  std::sort(intervals.begin(), intervals.end());
  std::int64_t covered = 0;
  std::int64_t cursor = lo;
  for (auto [a, b] : intervals) {
    a = std::max(a, cursor);
    b = std::min(b, hi);
    if (b > a) {
      covered += b - a;
      cursor = b;
    }
  }
  return covered;
}

double us(std::int64_t ns) { return static_cast<double>(ns) / 1e3; }

}  // namespace

SpanAnalysis analyzeSpans(const std::vector<Span>& spans) {
  SpanAnalysis out;
  out.spans = spans.size();
  std::unordered_map<std::uint64_t, std::vector<const Span*>> children;
  std::unordered_map<std::uint64_t, const Span*> executorOf;  // by parent
  std::size_t requests = 0;
  for (const Span& span : spans) {
    if (span.parent != 0) children[span.parent].push_back(&span);
    if (span.name == kSpanRequest) ++requests;
    if (span.name == kSpanGatewayExecutor) executorOf[span.parent] = &span;
    const double duration = us(span.end - span.start);
    if (span.name == kSpanTransportSend) out.sendUs.push_back(duration);
    if (span.name == kSpanTransportDeliver) out.deliverUs.push_back(duration);
    if (span.name == kSpanServiceHop) out.hopUs.push_back(duration);
  }
  out.traces = requests;

  std::map<std::string, double> selfNs;
  std::vector<std::pair<std::int64_t, std::int64_t>> intervals;
  for (const Span& span : spans) {
    intervals.clear();
    const auto it = children.find(span.id);
    if (it != children.end()) {
      for (const Span* child : it->second) {
        intervals.emplace_back(child->start, child->end);
      }
    }
    const std::int64_t self =
        (span.end - span.start) - coveredWithin(intervals, span.start, span.end);
    selfNs[span.name] += static_cast<double>(std::max<std::int64_t>(self, 0));

    if (span.name == kSpanGatewayExecute) {
      const auto ex = executorOf.find(span.id);
      const std::int64_t executor =
          ex == executorOf.end() ? 0 : ex->second->end - ex->second->start;
      out.gatewaySelfUs.push_back(us(span.end - span.start - executor));
    }
    // Ring coverage: the token chain (deliver + hop) of a flat query is
    // sequential, so its clipped sum should account for the await.
    if (span.name == kSpanServiceAwait && span.end > span.start &&
        it != children.end()) {
      std::int64_t chain = 0;
      for (const Span* child : it->second) {
        if ((child->name == kSpanTransportDeliver ||
             child->name == kSpanServiceHop) &&
            isTokenKind(child->tag)) {
          chain += std::max<std::int64_t>(
              0, std::min(child->end, span.end) -
                     std::max(child->start, span.start));
        }
      }
      out.ringCoverage.push_back(static_cast<double>(chain) /
                                 static_cast<double>(span.end - span.start));
    }
  }
  for (const auto& [name, ns] : selfNs) {
    out.selfUsPerRequest[name] =
        requests == 0 ? 0.0 : ns / 1e3 / static_cast<double>(requests);
  }
  return out;
}

bool writeSpans(const std::vector<Span>& spans, const std::string& path,
                std::size_t maxTraces) {
  std::vector<std::uint64_t> traces;
  for (const Span& s : spans) {
    if (s.name == kSpanRequest) traces.push_back(s.trace);
  }
  std::sort(traces.begin(), traces.end());
  if (traces.size() > maxTraces) traces.resize(maxTraces);
  std::ofstream out(path);
  if (!out) return false;
  out << "name\ttrace\tid\tparent\tstart_ns\tend_ns\ttag\n";
  for (const Span& s : spans) {
    if (!std::binary_search(traces.begin(), traces.end(), s.trace)) continue;
    out << s.name << '\t' << s.trace << '\t' << s.id << '\t' << s.parent
        << '\t' << s.start << '\t' << s.end << '\t' << s.tag << '\n';
  }
  return static_cast<bool>(out);
}

}  // namespace fedbench
