#include "report.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>

namespace fedbench {

namespace po = privtopk::obs;

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

double peakRssMb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

CpuTimes cpuTimes() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;  // "cpu": user nice system idle iowait irq softirq steal ...
  CpuTimes t;
  double field = 0.0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

double RegistryDelta::sum(const po::MetricsSnapshot& s, std::string_view name,
                          bool count, bool histogramSum) {
  double total = 0.0;
  for (const auto& m : s.metrics) {
    if (m.name != name) continue;
    if (m.kind == po::MetricKind::Histogram) {
      total += histogramSum ? m.sum : static_cast<double>(m.count);
    } else if (!count) {
      total += static_cast<double>(m.value);
    }
  }
  return total;
}

double RegistryDelta::counter(std::string_view name) const {
  return sum(after_, name, false, false) - sum(before_, name, false, false);
}

double RegistryDelta::histogramCount(std::string_view name) const {
  return sum(after_, name, true, false) - sum(before_, name, true, false);
}

double RegistryDelta::histogramMean(std::string_view name) const {
  const double n = histogramCount(name);
  if (n <= 0) return 0.0;
  return (sum(after_, name, true, true) - sum(before_, name, true, true)) / n;
}

namespace {

struct LayerRow {
  const char* prefix;
  const char* layer;
  const char* moves;
  const char* flatOn;
};

// Which end-to-end metric each layer's numbers should move, and where
// they should stay flat (README.md carries the same table).
constexpr LayerRow kLayers[] = {
    {"gateway.", "gateway (query/gateway, cache)", "qps, p50_ms on gateway_zipf",
     "ring_*"},
    {"service.", "service (query/service)",
     "qps on ring_inproc/ring_tcp_sealed; p99_ms, on_time_share on ring_grouped",
     "gateway_zipf"},
    {"protocol.", "protocol (core, mechanism, group)",
     "none: behaviour guards", "all"},
    {"codec.", "codec (net/message)", "p50_ms on ring_inproc", "gateway_zipf"},
    {"transport.", "transport (net/inproc, tcp, reactor)",
     "p50_ms, qps on ring_inproc (in-proc) and ring_tcp_sealed (reactor)",
     "gateway_zipf"},
    {"crypto.", "crypto (secure_channel, hmac, sha256, chacha20)",
     "qps, p50_ms, setup_s on ring_tcp_sealed", "ring_inproc, ring_grouped"},
    {"data.", "data (data/database)", "p50_ms on ring_*", "gateway_zipf"},
    {"bench.", "bench (harness)", "none", "all"},
    {"self_us.", "self time per request, from spans", "the layer it names",
     "as that layer"},
    {"trace.", "trace checks", "none", "all"},
};

const LayerRow* layerOf(const std::string& name) {
  for (const LayerRow& row : kLayers) {
    if (name.rfind(row.prefix, 0) == 0) return &row;
  }
  return nullptr;
}

std::string number(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void printLayerTable(const std::string& workload, const Metrics& metrics) {
  std::cout << "per-layer metrics, workload " << workload
            << " (traced run; 'derived_share' = measured unit cost x exported "
               "count / (wall x hardware threads))\n";
  const LayerRow* current = nullptr;
  for (const Metric& m : metrics) {
    const LayerRow* row = layerOf(m.name);
    if (row != current && row != nullptr) {
      std::cout << "[" << row->layer << "]  moves: " << row->moves
                << "  | flat on: " << row->flatOn << "\n";
      current = row;
    }
    char line[160];
    std::snprintf(line, sizeof line, "  %-36s %14.4f %s\n", m.name.c_str(),
                  std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
    std::cout << line;
  }
}

void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Metrics& metrics) {
  std::string json = std::string("{\"correct\": ") +
                     (correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace fedbench
