// The four workloads and their request loops.
//
//   ring_inproc      closed loop: callers -> Gateway -> round-robin
//                    NodeService::initiate(...).get() -> InProcTransport
//   ring_tcp_sealed  the same over nine encrypted loopback TcpTransports
//   ring_grouped     open loop: seeded Poisson arrivals straight into
//                    NodeService::initiate (one issuer, one collector),
//                    groupSize-3 probabilistic top-k
//   gateway_zipf     closed loop: 8 tenants, 20/60/20 priority lanes,
//                    Zipf(1.0) over 64 fixed questions, a data-epoch bump
//                    every N requests, over the ring_inproc fleet

#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "fleet.hpp"
#include "query/gateway.hpp"

namespace fedbench {

struct WorkloadSpec {
  std::string name;
  Substrate substrate = Substrate::InProc;
  bool openLoop = false;
  bool zipf = false;
  std::size_t groupSize = 0;
  // Parameters fixed in BENCHMARK.json (passed in by run.py).
  std::size_t callers = 0;       ///< closed loop
  double rate = 0.0;             ///< open loop, requests per second
  double limitMs = 0.0;          ///< latency limit for on_time_share
  std::uint64_t epochEvery = 0;  ///< gateway_zipf: requests per epoch bump
};

/// Looks up a workload by name; nullopt when unknown.
[[nodiscard]] std::optional<WorkloadSpec> workloadByName(
    const std::string& name);

/// A phase is measured in this many equal windows; the latency and rate
/// metrics are medians over windows, so one disturbed window of a run
/// does not move them.
inline constexpr std::size_t kWindows = 10;

/// The completed requests of one window (by completion time in a closed
/// loop, by due time in the open loop).
struct Window {
  /// Share of the machine's CPU time the hypervisor gave to other guests
  /// during the window (/proc/stat steal).
  double stealShare = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t late = 0;  ///< over the limit, failures included
  std::uint64_t completed = 0;
  /// All latencies up to a bound per request loop, then a uniform
  /// reservoir of that size.
  std::vector<double> latencyMs;
};

/// Everything one measured phase produced.
struct PhaseResult {
  double elapsedS = 0.0;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;  ///< overload, transport, timeout or wrong
  std::uint64_t wrong = 0;   ///< answers the oracle rejected
  std::uint64_t completed = 0;    ///< answered correctly
  double windowS = 0.0;
  std::vector<Window> windows = std::vector<Window>(kWindows);
  double precisionSum = 0.0;
  std::uint64_t precisionCount = 0;
  std::uint64_t ringExecutions = 0;  ///< initiations the bench performed
  /// Open loop: completed queries whose merge ring (§4.2 phase 2) left a
  /// result on the initiator, i.e. that really ran grouped.
  std::uint64_t grouped = 0;
  double executorBusyS = 0.0;        ///< summed ring execution time
  std::vector<double> genLagMs;      ///< open loop: issue time - due time
  privtopk::query::GatewayStats gateway;  ///< delta over the phase
  std::string firstWrong;                 ///< description of a mismatch
};

/// One benchmark process's workload state: the fleet, the oracle, the
/// question sources and (for closed loops) the gateway in front.
class WorkloadRunner {
 public:
  WorkloadRunner(const WorkloadSpec& spec, std::uint64_t seed, Fleet& fleet,
                 const Oracle& oracle);
  ~WorkloadRunner();
  WorkloadRunner(const WorkloadRunner&) = delete;
  WorkloadRunner& operator=(const WorkloadRunner&) = delete;

  /// Runs the request loop for `seconds`, then drains what is in flight.
  /// With `traced`, a sample of the requests records spans.
  [[nodiscard]] PhaseResult run(double seconds, bool traced);

  /// The questions this workload sends, for the oracle cross-check and the
  /// unit-cost measurements.
  [[nodiscard]] std::vector<Question> sampleQuestions(std::size_t n);

 private:
  struct Zipf;

  PhaseResult runClosedLoop(std::int64_t start, double seconds, bool traced);
  PhaseResult runOpenLoop(std::int64_t start, double seconds, bool traced);
  /// Round-robin initiator: one ring execution, waited for.
  privtopk::TopKVector executeOnRing(privtopk::query::QueryDescriptor d);

  WorkloadSpec spec_;
  std::uint64_t seed_;
  Fleet& fleet_;
  const Oracle& oracle_;
  RingQuestions ring_;
  std::unique_ptr<Zipf> zipf_;
  std::unique_ptr<privtopk::query::Gateway> gateway_;
  std::atomic<std::uint64_t> roundRobin_{0};
  std::atomic<std::uint64_t> executions_{0};
  std::atomic<std::int64_t> executorBusyNs_{0};
};

}  // namespace fedbench
