// Metric arithmetic and output: quantiles, registry deltas, the
// per-layer table and the final one-line JSON result.

#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.hpp"

namespace fedbench {

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};
using Metrics = std::vector<Metric>;

/// Linear-interpolated quantile (q in [0, 1]); 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] double median(std::vector<double> values);

/// Peak resident set (VmHWM) of this process, MiB.
[[nodiscard]] double peakRssMb();

/// Machine-wide CPU time from /proc/stat, in clock ticks.
struct CpuTimes {
  double total = 0.0;
  double steal = 0.0;  ///< time the hypervisor ran something else
};
[[nodiscard]] CpuTimes cpuTimes();

/// Change of the global metrics registry between two snapshots.  Counters
/// and histograms are summed over every label set of a name.
class RegistryDelta {
 public:
  RegistryDelta(const privtopk::obs::MetricsSnapshot& before,
                const privtopk::obs::MetricsSnapshot& after)
      : before_(before), after_(after) {}

  [[nodiscard]] double counter(std::string_view name) const;
  [[nodiscard]] double histogramCount(std::string_view name) const;
  [[nodiscard]] double histogramMean(std::string_view name) const;

 private:
  [[nodiscard]] static double sum(const privtopk::obs::MetricsSnapshot& s,
                                  std::string_view name, bool count,
                                  bool histogramSum);
  const privtopk::obs::MetricsSnapshot& before_;
  const privtopk::obs::MetricsSnapshot& after_;
};

/// Prints the traced run's per-layer table: every metric with the
/// end-to-end metric it should move and where it should stay flat.
void printLayerTable(const std::string& workload, const Metrics& metrics);

/// The last line of standard output.
void printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
                 const Metrics& metrics);

}  // namespace fedbench
