#include "obs/trace_view.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <set>
#include <sstream>

namespace privtopk::obs {

namespace {

/// Locates `"key":` in a flat JSON object line; returns the index just
/// past the colon, or npos.
std::size_t fieldStart(std::string_view line, std::string_view key) {
  const std::string needle = "\"" + std::string(key) + "\":";
  const std::size_t at = line.find(needle);
  return at == std::string_view::npos ? at : at + needle.size();
}

/// Reads an integer field; tolerates both bare numbers and the quoted
/// decimal strings renderSpanJson uses for 64-bit ids.
std::optional<std::uint64_t> fieldUint(std::string_view line,
                                       std::string_view key) {
  std::size_t at = fieldStart(line, key);
  if (at == std::string_view::npos) return std::nullopt;
  if (at < line.size() && line[at] == '"') ++at;
  if (at >= line.size() || (line[at] < '0' || line[at] > '9')) {
    return std::nullopt;
  }
  return std::strtoull(line.data() + at, nullptr, 10);
}

std::optional<std::int64_t> fieldInt(std::string_view line,
                                     std::string_view key) {
  std::size_t at = fieldStart(line, key);
  if (at == std::string_view::npos) return std::nullopt;
  if (at < line.size() && line[at] == '"') ++at;
  return std::strtoll(line.data() + at, nullptr, 10);
}

std::optional<std::string> fieldString(std::string_view line,
                                       std::string_view key) {
  std::size_t at = fieldStart(line, key);
  if (at == std::string_view::npos || at >= line.size() || line[at] != '"') {
    return std::nullopt;
  }
  ++at;
  const std::size_t end = line.find('"', at);
  if (end == std::string_view::npos) return std::nullopt;
  return std::string(line.substr(at, end - at));
}

double ms(std::int64_t ns) { return static_cast<double>(ns) / 1e6; }

std::string fmt(const char* format, double a, double b = 0.0) {
  char buf[96];
  std::snprintf(buf, sizeof buf, format, a, b);
  return buf;
}

}  // namespace

std::optional<SpanRecord> parseSpanJsonLine(std::string_view line) {
  const auto kind = fieldString(line, "kind");
  if (!kind || *kind != "span") return std::nullopt;
  const auto traceId = fieldUint(line, "trace_id");
  const auto spanId = fieldUint(line, "span_id");
  const auto name = fieldString(line, "name");
  if (!traceId || !spanId || !name || *traceId == 0 || *spanId == 0) {
    return std::nullopt;
  }
  SpanRecord span;
  span.traceId = *traceId;
  span.spanId = *spanId;
  span.parentSpanId = fieldUint(line, "parent_span_id").value_or(0);
  span.name = *name;
  span.queryId = fieldUint(line, "query_id").value_or(0);
  span.node = static_cast<std::uint32_t>(fieldUint(line, "node").value_or(0));
  span.round =
      static_cast<std::uint32_t>(fieldUint(line, "round").value_or(0));
  span.startNs = fieldInt(line, "start_ns").value_or(0);
  span.durNs = fieldInt(line, "dur_ns").value_or(0);
  return span;
}

std::vector<SpanRecord> parseSpanDump(std::string_view text) {
  std::vector<SpanRecord> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    std::size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    if (const auto span = parseSpanJsonLine(text.substr(pos, end - pos))) {
      out.push_back(*span);
    }
    if (end == text.size()) break;
    pos = end + 1;
  }
  return out;
}

std::vector<std::uint64_t> traceIdsOf(const std::vector<SpanRecord>& spans) {
  std::vector<std::uint64_t> out;
  std::set<std::uint64_t> seen;
  for (const SpanRecord& span : spans) {
    if (seen.insert(span.traceId).second) out.push_back(span.traceId);
  }
  return out;
}

std::vector<std::uint64_t> traceIdsForQuery(
    const std::vector<SpanRecord>& spans, std::uint64_t queryId) {
  std::vector<std::uint64_t> out;
  std::set<std::uint64_t> seen;
  for (const SpanRecord& span : spans) {
    if (span.queryId == queryId && seen.insert(span.traceId).second) {
      out.push_back(span.traceId);
    }
  }
  return out;
}

TraceTimeline buildTimeline(const std::vector<SpanRecord>& spans,
                            std::uint64_t traceId) {
  TraceTimeline timeline;
  timeline.traceId = traceId;

  // Merge: first copy of each span id wins (endpoint + file dumps of the
  // same node may overlap).
  std::map<std::uint64_t, SpanRecord> byId;
  for (const SpanRecord& span : spans) {
    if (span.traceId == traceId) byId.emplace(span.spanId, span);
  }
  if (byId.empty()) return timeline;

  // Root: the parentless span, preferring the initiator's "query" span.
  const SpanRecord* root = nullptr;
  for (const auto& [id, span] : byId) {
    if (span.parentSpanId != 0) continue;
    if (root == nullptr || (span.name == "query" && root->name != "query")) {
      root = &span;
    }
  }
  if (root == nullptr) root = &byId.begin()->second;
  timeline.queryId = root->queryId;

  // Clock alignment: the root's node is the reference.  Repeatedly pick,
  // among causal edges from an aligned node into an unaligned one, the
  // edge whose parent finishes earliest (that is the node's first
  // handshake - its announce or first token) and pin the child's start to
  // the parent's end.
  auto& offsets = timeline.clockOffsetNs;
  offsets[root->node] = 0;
  while (true) {
    bool found = false;
    std::int64_t bestParentEnd = 0;
    const SpanRecord* bestChild = nullptr;
    for (const auto& [id, child] : byId) {
      if (offsets.contains(child.node) || child.parentSpanId == 0) continue;
      const auto parentIt = byId.find(child.parentSpanId);
      if (parentIt == byId.end()) continue;
      const SpanRecord& parent = parentIt->second;
      const auto off = offsets.find(parent.node);
      if (off == offsets.end()) continue;
      const std::int64_t parentEnd =
          parent.startNs + off->second + parent.durNs;
      if (!found || parentEnd < bestParentEnd) {
        found = true;
        bestParentEnd = parentEnd;
        bestChild = &child;
      }
    }
    if (!found) break;
    // Zero-latency handshake assumption: aligned child start == aligned
    // parent end.
    offsets[bestChild->node] = bestParentEnd - bestChild->startNs;
  }

  const auto alignedStart = [&](const SpanRecord& span) {
    const auto off = offsets.find(span.node);
    return span.startNs + (off != offsets.end() ? off->second : 0);
  };

  // Assemble the span table with gaps and the per-phase aggregate.
  std::int64_t minStart = std::numeric_limits<std::int64_t>::max();
  std::int64_t maxEnd = std::numeric_limits<std::int64_t>::min();
  for (const auto& [id, span] : byId) {
    TimelineSpan entry;
    entry.span = span;
    entry.startNs = alignedStart(span);
    const auto parentIt = byId.find(span.parentSpanId);
    if (span.parentSpanId != 0 && parentIt != byId.end()) {
      const SpanRecord& parent = parentIt->second;
      entry.gapNs =
          entry.startNs - (alignedStart(parent) + parent.durNs);
    } else if (span.parentSpanId != 0) {
      timeline.orphanSpanIds.push_back(span.spanId);
    }
    minStart = std::min(minStart, entry.startNs);
    maxEnd = std::max(maxEnd, entry.startNs + span.durNs);
    PhaseStats& stats = timeline.phases[span.name];
    ++stats.count;
    stats.computeNs += span.durNs;
    stats.gapNs += std::max<std::int64_t>(0, entry.gapNs);
    timeline.spans.push_back(std::move(entry));
  }
  timeline.totalNs = maxEnd - minStart;
  std::sort(timeline.spans.begin(), timeline.spans.end(),
            [](const TimelineSpan& a, const TimelineSpan& b) {
              return std::tie(a.startNs, a.span.spanId) <
                     std::tie(b.startNs, b.span.spanId);
            });

  // Critical path: walk the parent chain back from the latest-finishing
  // LEAF span.  (The root "query" span covers the whole execution and
  // always finishes last; starting from a leaf recovers the causal chain
  // that actually determined the end-to-end latency.)
  std::set<std::uint64_t> hasChildren;
  for (const auto& [id, span] : byId) {
    if (span.parentSpanId != 0) hasChildren.insert(span.parentSpanId);
  }
  const TimelineSpan* last = nullptr;
  for (const TimelineSpan& entry : timeline.spans) {
    if (hasChildren.contains(entry.span.spanId)) continue;
    if (last == nullptr ||
        entry.startNs + entry.span.durNs >
            last->startNs + last->span.durNs) {
      last = &entry;
    }
  }
  if (last == nullptr && !timeline.spans.empty()) {
    last = &timeline.spans.front();
  }
  if (last != nullptr) {
    std::set<std::uint64_t> guard;  // malformed cycles must not hang us
    std::uint64_t at = last->span.spanId;
    while (at != 0 && guard.insert(at).second) {
      const auto it = byId.find(at);
      if (it == byId.end()) break;
      timeline.criticalPath.push_back(at);
      at = it->second.parentSpanId;
    }
    std::reverse(timeline.criticalPath.begin(), timeline.criticalPath.end());
    const std::set<std::uint64_t> onPath(timeline.criticalPath.begin(),
                                         timeline.criticalPath.end());
    for (TimelineSpan& entry : timeline.spans) {
      entry.onCriticalPath = onPath.contains(entry.span.spanId);
    }
  }
  return timeline;
}

std::string renderTimeline(const TraceTimeline& timeline) {
  std::ostringstream os;
  if (timeline.spans.empty()) {
    os << "trace " << timeline.traceId << ": no spans\n";
    return os.str();
  }
  std::set<std::uint32_t> nodes;
  for (const TimelineSpan& entry : timeline.spans) {
    nodes.insert(entry.span.node);
  }
  os << "trace " << timeline.traceId << " (query " << timeline.queryId
     << "): " << timeline.spans.size() << " spans across " << nodes.size()
     << " nodes, total " << fmt("%.3f", ms(timeline.totalNs)) << " ms\n\n";

  const std::int64_t origin = timeline.spans.front().startNs;
  std::map<std::uint64_t, const TimelineSpan*> byId;
  for (const TimelineSpan& entry : timeline.spans) {
    byId[entry.span.spanId] = &entry;
  }
  for (const TimelineSpan& entry : timeline.spans) {
    char line[192];
    std::snprintf(line, sizeof line,
                  "%c [%9.3f ms +%8.3f ms] node %-3u %-20s q=%llu r=%u",
                  entry.onCriticalPath ? '*' : ' ',
                  ms(entry.startNs - origin), ms(entry.span.durNs),
                  entry.span.node, entry.span.name.c_str(),
                  static_cast<unsigned long long>(entry.span.queryId),
                  entry.span.round);
    os << line;
    if (entry.gapNs > 0) {
      os << "  gap " << fmt("%.3f", ms(entry.gapNs)) << " ms";
    }
    os << '\n';
  }

  os << "\ncritical path (" << timeline.criticalPath.size() << " spans):\n";
  for (std::size_t i = 0; i < timeline.criticalPath.size(); ++i) {
    const auto it = byId.find(timeline.criticalPath[i]);
    if (it == byId.end()) continue;
    if (i > 0) os << " -> ";
    else os << "  ";
    os << it->second->span.name << "(node " << it->second->span.node << ")";
  }
  os << '\n';

  os << "\nphase breakdown:\n";
  char header[128];
  std::snprintf(header, sizeof header, "  %-20s %5s %12s %12s\n", "phase",
                "count", "compute ms", "send/net ms");
  os << header;
  for (const auto& [name, stats] : timeline.phases) {
    char line[160];
    std::snprintf(line, sizeof line, "  %-20s %5zu %12.3f %12.3f\n",
                  name.c_str(), stats.count, ms(stats.computeNs),
                  ms(stats.gapNs));
    os << line;
  }

  if (timeline.orphanSpanIds.empty()) {
    os << "\norphan spans: none\n";
  } else {
    os << "\norphan spans: " << timeline.orphanSpanIds.size() << " (";
    for (std::size_t i = 0; i < timeline.orphanSpanIds.size(); ++i) {
      if (i > 0) os << ", ";
      os << timeline.orphanSpanIds[i];
    }
    os << ")\n";
  }
  for (const auto& [node, offset] : timeline.clockOffsetNs) {
    if (offset != 0) {
      os << "clock offset: node " << node << ' '
         << fmt("%+.3f", ms(offset)) << " ms\n";
    }
  }
  return os.str();
}

}  // namespace privtopk::obs
