// fedbench: one workload of the federation benchmark, end to end.
//
//   fedbench --workload ring_inproc --seed 1 --seconds 30 --trace 0
//            --callers 4 --limit-ms 30 [--rate R] [--epoch-every N]
//            [--span-out PATH]
//
// --trace 0 measures the end-to-end metrics with tracing off.  --trace 1
// runs the workload untraced for half the time and traced for the other
// half, and reports the per-layer metrics (plus bench.trace_overhead, the
// ratio of the two halves' throughput).  The last line of standard output
// is the JSON result; the exit code is 0 only when every answer matched
// the oracle and every workload self-check held.  fedbench/run.py builds
// this program and passes the parameters BENCHMARK.json fixes.

#include <algorithm>
#include <atomic>
#include <iostream>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "crypto/secure_channel.hpp"
#include "fleet.hpp"
#include "net/message.hpp"
#include "obs/metrics.hpp"
#include "query/federation.hpp"
#include "report.hpp"
#include "tracing.hpp"
#include "workloads.hpp"

namespace fedbench {
namespace {

namespace po = privtopk::obs;

/// Set-ups per run; setup_s is their median and the last fleet is the
/// one measured.
constexpr int kSetups = 5;
/// A window's p99 needs at least ten samples above it.
constexpr std::size_t kMinLatencySamples = 1000;
/// The token chain (transport.deliver + service.hop) of a flat ring query
/// must account for this share of its service.await (median over the
/// traced requests).  The rest is the initiator's admission before the
/// first token and the completion hand-off after the last one.
constexpr double kCoverageLo = 0.80;
constexpr double kCoverageHi = 1.05;
/// Requests whose spans --span-out writes (all are analysed).
constexpr std::size_t kWrittenTraces = 1000;
/// gateway_zipf: ring executions may occupy at most this share of the
/// callers' time, or the workload measures the ring, not the gateway.
constexpr double kZipfMaxRingShare = 0.25;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::size_t callers = 0;
  double rate = 0;
  double limitMs = 0;
  std::uint64_t epochEvery = 0;
  std::string spanOut;
};

Options parseArgs(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) throw std::invalid_argument("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") o.workload = value;
    else if (flag == "--seed") o.seed = std::stoull(value);
    else if (flag == "--seconds") o.seconds = std::stod(value);
    else if (flag == "--trace") o.trace = value == "1";
    else if (flag == "--callers") o.callers = std::stoul(value);
    else if (flag == "--rate") o.rate = std::stod(value);
    else if (flag == "--limit-ms") o.limitMs = std::stod(value);
    else if (flag == "--epoch-every") o.epochEvery = std::stoull(value);
    else if (flag == "--span-out") o.spanOut = value;
    else throw std::invalid_argument("unknown flag " + flag);
  }
  return o;
}

WorkloadSpec specFor(const Options& o) {
  auto spec = workloadByName(o.workload);
  if (!spec) throw std::invalid_argument("unknown workload " + o.workload);
  spec->callers = o.callers;
  spec->rate = o.rate;
  spec->limitMs = o.limitMs;
  spec->epochEvery = o.epochEvery;
  if (o.seconds <= 0 || o.limitMs <= 0 ||
      (spec->openLoop ? o.rate <= 0 : o.callers == 0) ||
      (spec->zipf && o.epochEvery == 0)) {
    throw std::invalid_argument("workload " + o.workload +
                                " is missing a parameter");
  }
  return *spec;
}

double ringShareOf(const PhaseResult& r, const WorkloadSpec& spec) {
  return r.executorBusyS /
         (static_cast<double>(std::max<std::size_t>(spec.callers, 1)) *
          r.elapsedS);
}

double qpsOf(const PhaseResult& r) {
  return static_cast<double>(r.attempted - r.failed) / r.elapsedS;
}

std::vector<double> allLatencies(const PhaseResult& r) {
  std::vector<double> all;
  for (const Window& w : r.windows) {
    all.insert(all.end(), w.latencyMs.begin(), w.latencyMs.end());
  }
  return all;
}

/// The windows the rate and latency metrics use: the half of the run's
/// windows in which the hypervisor took the least CPU time (steal).  On a
/// shared VM a burst of steal stalls the ring's wake-up chains and halves
/// in-proc throughput for tens of seconds; no change to the program can
/// cause steal.
std::vector<const Window*> quietWindows(const PhaseResult& r) {
  std::vector<const Window*> windows;
  for (const Window& w : r.windows) windows.push_back(&w);
  std::stable_sort(windows.begin(), windows.end(), [](const Window* a, const Window* b) {
    return a->stealShare < b->stealShare;
  });
  windows.resize(windows.size() / 2);
  return windows;
}

/// Median over the quiet windows of `perWindow`: robust to a window with
/// a burst of slow requests, where pooling the windows' samples is not.
template <typename Fn>
double quietMedian(const PhaseResult& r, Fn&& perWindow) {
  std::vector<double> values;
  for (const Window* w : quietWindows(r)) values.push_back(perWindow(*w));
  return median(values);
}

/// 1 - late/attempted over the quiet windows: a steal burst pushes
/// requests over the limit as it slows them.
double onTimeShare(const PhaseResult& r) {
  double attempted = 0.0;
  double late = 0.0;
  for (const Window* w : quietWindows(r)) {
    attempted += static_cast<double>(w->attempted);
    late += static_cast<double>(w->late);
  }
  return attempted == 0.0 ? 0.0 : 1.0 - late / attempted;
}

/// Traced throughput over untraced throughput.  The open loop's
/// throughput is its offered rate, so there the ratio is untraced p50
/// over traced p50 instead.
double traceOverhead(const WorkloadSpec& spec, const PhaseResult& untraced,
                     const PhaseResult& traced) {
  if (spec.openLoop) {
    return quantile(allLatencies(untraced), 0.5) /
           quantile(allLatencies(traced), 0.5);
  }
  return qpsOf(traced) / qpsOf(untraced);
}

/// The workload self-checks: a run fails when its workload stops
/// exercising what it claims.  Returns the violations.
std::vector<std::string> selfChecks(const WorkloadSpec& spec,
                                    const PhaseResult& r) {
  std::vector<std::string> problems;
  if (!spec.openLoop && !spec.zipf) {
    if (r.gateway.hits + r.gateway.coalesced != 0) {
      problems.push_back("ring workload hit the gateway cache");
    }
    if (r.gateway.executions != r.attempted) {
      problems.push_back("ring workload executions/request != 1");
    }
  }
  if (spec.zipf && ringShareOf(r, spec) >= kZipfMaxRingShare) {
    problems.push_back("gateway_zipf ring executions take " +
                       std::to_string(ringShareOf(r, spec)) +
                       " of caller time (limit 0.25)");
  }
  if (spec.openLoop && r.grouped != r.completed) {
    problems.push_back("ring_grouped: only " + std::to_string(r.grouped) +
                       " of " + std::to_string(r.completed) +
                       " answered queries ran a merge ring");
  }
  if (r.wrong != 0) problems.push_back("wrong answer: " + r.firstWrong);
  return problems;
}

Metrics endToEnd(const WorkloadSpec& spec, const PhaseResult& r,
                 const std::vector<double>& setups) {
  const double attempted = static_cast<double>(r.attempted);
  const double executions =
      spec.openLoop ? static_cast<double>(r.ringExecutions)
                    : static_cast<double>(r.gateway.executions);
  return {
      {"qps",
       quietMedian(r, [&](const Window& w) {
         return static_cast<double>(w.completed) / r.windowS;
       }),
       "1/s"},
      {"p50_ms", quietMedian(r, [](const Window& w) { return quantile(w.latencyMs, 0.50); }),
       "ms"},
      {"p99_ms", quietMedian(r, [](const Window& w) { return quantile(w.latencyMs, 0.99); }),
       "ms"},
      {"ok_share", (attempted - static_cast<double>(r.failed)) / attempted,
       "share"},
      {"on_time_share", onTimeShare(r), "share"},
      {"precision",
       r.precisionCount == 0
           ? 1.0
           : r.precisionSum / static_cast<double>(r.precisionCount),
       "share"},
      {"executions_per_request", executions / attempted, "1/req"},
      {"setup_s", median(setups), "s"},
      {"rss_mb", peakRssMb(), "MiB"},
  };
}

/// Unit costs measured from outside at the sizes the workload produced.
struct UnitCosts {
  double sealUs = 0, openUs = 0, codecUs = 0, localInputUs = 0;
};

template <typename Fn>
double medianPerOpUs(int batches, int opsPerBatch, Fn&& fn) {
  std::vector<double> perOp;
  for (int b = 0; b < batches; ++b) {
    const std::int64_t t0 = nowNs();
    for (int i = 0; i < opsPerBatch; ++i) fn(i);
    perOp.push_back(static_cast<double>(nowNs() - t0) / 1e3 / opsPerBatch);
  }
  return median(perOp);
}

UnitCosts measureUnitCosts(std::size_t recordBytes,
                           const std::vector<privtopk::Bytes>& payloads,
                           const std::vector<Question>& questions,
                           const privtopk::data::PrivateDatabase& db) {
  UnitCosts u;
  namespace pc = privtopk::crypto;
  // All-zero keys in both directions, so rx opens what tx seals.
  pc::SecureSession tx(pc::SessionKeys{}), rx(pc::SessionKeys{});
  const privtopk::Bytes plain(std::max<std::size_t>(recordBytes, 1), 0x5a);
  constexpr int kBatches = 5;
  constexpr int kOps = 400;
  std::vector<double> sealPerOp, openPerOp;
  std::vector<std::vector<std::uint8_t>> records(kOps);
  for (int b = 0; b < kBatches; ++b) {
    const std::int64_t t0 = nowNs();
    for (auto& record : records) record = tx.seal(plain);
    const std::int64_t t1 = nowNs();
    for (const auto& record : records) (void)rx.open(record);
    const std::int64_t t2 = nowNs();
    sealPerOp.push_back(static_cast<double>(t1 - t0) / 1e3 / kOps);
    openPerOp.push_back(static_cast<double>(t2 - t1) / 1e3 / kOps);
  }
  u.sealUs = median(sealPerOp);
  u.openUs = median(openPerOp);

  if (!payloads.empty()) {
    std::size_t sink = 0;
    const int n = static_cast<int>(payloads.size());
    u.codecUs = medianPerOpUs(kBatches, n, [&](int i) {
      sink += privtopk::net::encodeMessage(
                  privtopk::net::decodeMessage(payloads[static_cast<std::size_t>(i)]))
                  .size();
    });
    if (sink == 0) u.codecUs = 0;
  }

  const privtopk::query::LocalParty party(db);
  const int n = static_cast<int>(questions.size());
  std::size_t sink = 0;
  u.localInputUs = medianPerOpUs(kBatches, n, [&](int i) {
    const auto& d = questions[static_cast<std::size_t>(i)].descriptor;
    sink += d.isAggregate() ? party.localAggregate(d).size()
                            : party.localInput(d).size();
  });
  if (sink == 0) u.localInputUs = 0;
  return u;
}

/// Samples the summed service queue-depth gauge while it lives.
class QueueDepthSampler {
 public:
  QueueDepthSampler()
      : gauge_(po::gauge("privtopk.query.queue_depth", {{"engine", "service"}})),
        thread_([this] {
          while (!stop_.load()) {
            max_.store(std::max(max_.load(), gauge_.value()));
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
          }
        }) {}
  ~QueueDepthSampler() {
    stop_.store(true);
    thread_.join();
  }
  QueueDepthSampler(const QueueDepthSampler&) = delete;
  QueueDepthSampler& operator=(const QueueDepthSampler&) = delete;
  [[nodiscard]] double max() const { return static_cast<double>(max_.load()); }

 private:
  po::Gauge& gauge_;
  std::atomic<bool> stop_{false};
  std::atomic<std::int64_t> max_{0};
  std::thread thread_;
};

struct TracedInputs {
  const WorkloadSpec& spec;
  const PhaseResult& untraced;
  const PhaseResult& traced;
  const RegistryDelta& registry;
  const SpanAnalysis& spans;
  const TapState& taps;
  const UnitCosts& unit;
  double queueDepthMax;
  double handshakesPerSetup;
};

Metrics perLayer(const TracedInputs& in) {
  const PhaseResult& r = in.traced;
  const RegistryDelta& reg = in.registry;
  const double requests = static_cast<double>(std::max<std::uint64_t>(r.attempted, 1));
  const double executions =
      static_cast<double>(std::max<std::uint64_t>(r.ringExecutions, 1));
  const auto& g = r.gateway;
  const double gatewayRequests = static_cast<double>(g.hits + g.misses + g.coalesced);

  const auto tallies = in.taps.tallies();
  double messages = 0, bytes = 0;
  for (const auto& t : tallies) {
    messages += static_cast<double>(t.messages);
    bytes += static_cast<double>(t.bytes);
  }
  auto perMessage = [&](std::size_t kind) {
    return tallies[kind].messages == 0
               ? 0.0
               : static_cast<double>(tallies[kind].bytes) /
                     static_cast<double>(tallies[kind].messages);
  };
  const double tcpSent = reg.counter("privtopk.transport.messages_sent");
  const double passes = reg.counter("privtopk.protocol.randomized_passes") +
                        reg.counter("privtopk.protocol.real_value_passes") +
                        reg.counter("privtopk.protocol.passthrough_passes");
  const double sealed = reg.counter("privtopk.crypto.records_sealed");
  const double opened = reg.counter("privtopk.crypto.records_opened");
  // Derived busy shares: unit cost x exported count over the machine's
  // capacity during the traced phase.
  const double capacityUs = r.elapsedS * 1e6 *
                            static_cast<double>(std::max(1u, std::thread::hardware_concurrency()));
  auto self = [&](const char* span) {
    const auto it = in.spans.selfUsPerRequest.find(span);
    return it == in.spans.selfUsPerRequest.end() ? 0.0 : it->second;
  };
  const bool tcp = in.spec.substrate == Substrate::SealedTcp;

  return {
      {"gateway.hit_ratio",
       gatewayRequests == 0 ? 0.0
                            : static_cast<double>(g.hits + g.coalesced) / gatewayRequests,
       "share"},
      {"gateway.coalesced", static_cast<double>(g.coalesced), "count"},
      {"gateway.executions", static_cast<double>(g.executions), "count"},
      {"gateway.self_us_p50", quantile(in.spans.gatewaySelfUs, 0.50), "us"},
      {"gateway.self_us_p99", quantile(in.spans.gatewaySelfUs, 0.99), "us"},
      {"gateway.queue_wait_ms", reg.histogramMean("privtopk.gateway.queue_wait_ms"), "ms"},
      {"gateway.shed", static_cast<double>(g.shedRateLimit + g.shedQueueFull), "count"},
      {"service.hop_us_p50", quantile(in.spans.hopUs, 0.50), "us"},
      {"service.hop_us_p99", quantile(in.spans.hopUs, 0.99), "us"},
      {"service.messages_per_query", messages / executions, "msg/query"},
      {"service.retransmits", reg.counter("privtopk.query.retransmits"), "count"},
      {"service.duplicates_dropped", reg.counter("privtopk.query.duplicates_dropped"), "count"},
      {"service.result_replays", reg.counter("privtopk.query.result_replays"), "count"},
      {"service.queue_depth_max", in.queueDepthMax, "count"},
      {"service.group_phase_ms", reg.histogramMean("privtopk.query.group_phase_ms"), "ms"},
      {"service.merge_phase_ms", reg.histogramMean("privtopk.query.merge_phase_ms"), "ms"},
      {"protocol.rounds_per_query", reg.counter("privtopk.protocol.rounds_executed") / executions,
       "rounds"},
      {"protocol.randomized_share",
       passes == 0 ? 0.0 : reg.counter("privtopk.protocol.randomized_passes") / passes, "share"},
      {"codec.bytes_per_message.round_token", perMessage(0), "B"},
      {"codec.bytes_per_message.result", perMessage(1), "B"},
      {"codec.bytes_per_message.ring_repair", perMessage(2), "B"},
      {"codec.bytes_per_message.sum_token", perMessage(3), "B"},
      {"codec.bytes_per_message.announce", perMessage(4), "B"},
      {"codec.encode_decode_us", in.unit.codecUs, "us"},
      {"codec.busy_share", messages * in.unit.codecUs / capacityUs, "derived_share"},
      {"transport.messages", messages / requests, "msg/req"},
      {"transport.bytes", bytes / requests, "B/req"},
      {"transport.send_us_p50", quantile(in.spans.sendUs, 0.50), "us"},
      {"transport.send_us_p99", quantile(in.spans.sendUs, 0.99), "us"},
      {"transport.delivery_us_p50", quantile(in.spans.deliverUs, 0.50), "us"},
      {"transport.delivery_us_p99", quantile(in.spans.deliverUs, 0.99), "us"},
      {"transport.coalesced_share",
       tcp && tcpSent > 0 ? reg.counter("privtopk.transport.frames_coalesced") / tcpSent : 0.0,
       "share"},
      {"transport.inline_write_share",
       tcp && tcpSent > 0 ? reg.counter("privtopk.transport.inline_writes") / tcpSent : 0.0,
       "share"},
      {"transport.overload_rejected", reg.counter("privtopk.transport.overload_rejected"),
       "count"},
      {"crypto.records_sealed", sealed / requests, "1/req"},
      {"crypto.records_opened", opened / requests, "1/req"},
      {"crypto.bytes_sealed", reg.counter("privtopk.crypto.bytes_sealed") / requests, "B/req"},
      {"crypto.seal_us", in.unit.sealUs, "us"},
      {"crypto.open_us", in.unit.openUs, "us"},
      {"crypto.busy_share", (sealed * in.unit.sealUs + opened * in.unit.openUs) / capacityUs,
       "derived_share"},
      {"crypto.handshakes", in.handshakesPerSetup, "count"},
      {"data.local_input_us", in.unit.localInputUs, "us"},
      {"data.busy_share",
       static_cast<double>(r.ringExecutions) * kNodes * in.unit.localInputUs / capacityUs,
       "derived_share"},
      {"bench.gen_lag_ms_p99", quantile(r.genLagMs, 0.99), "ms"},
      {"bench.trace_overhead", traceOverhead(in.spec, in.untraced, r), "ratio"},
      {"self_us.request", self(kSpanRequest), "us/req"},
      {"self_us.gateway.execute", self(kSpanGatewayExecute), "us/req"},
      {"self_us.gateway.executor", self(kSpanGatewayExecutor), "us/req"},
      {"self_us.service.await", self(kSpanServiceAwait), "us/req"},
      {"self_us.transport.send", self(kSpanTransportSend), "us/req"},
      {"self_us.transport.deliver", self(kSpanTransportDeliver), "us/req"},
      {"self_us.service.hop", self(kSpanServiceHop), "us/req"},
      {"trace.ring_coverage", median(in.spans.ringCoverage), "share"},
      {"trace.spans_per_request",
       static_cast<double>(in.spans.spans) /
           static_cast<double>(std::max<std::size_t>(in.spans.traces, 1)),
       "1/req"},
  };
}

int run(const Options& o) {
  const WorkloadSpec spec = specFor(o);
  const Rows rows = generateRows(o.seed);
  const auto oracleDbs = buildDatabases(rows);
  const Oracle oracle(oracleDbs);
  TapState taps;

  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  for (int i = 0; i < kSetups; ++i) {
    fleet.reset();
    const std::int64_t t0 = nowNs();
    fleet = std::make_unique<Fleet>(rows, spec.substrate, taps);
    fleet->warmUp();
    setups.push_back(static_cast<double>(nowNs() - t0) / 1e9);
  }
  WorkloadRunner runner(spec, o.seed, *fleet, oracle);
  const std::vector<Question> questions = runner.sampleQuestions(32);
  oracle.verifyAgainstScan(questions);

  po::MetricsRegistry& registry = po::MetricsRegistry::global();
  if (!o.trace) {
    const PhaseResult r = runner.run(o.seconds, false);
    const auto quiet = quietWindows(r);
    std::cerr << "fedbench: per window: steal, qps, p50_ms, p99_ms (* = used)";
    for (const Window& w : r.windows) {
      const bool used = std::find(quiet.begin(), quiet.end(), &w) != quiet.end();
      std::cerr << (used ? "  *" : "  ") << w.stealShare << ", "
                << static_cast<double>(w.completed) / r.windowS << ", "
                << quantile(w.latencyMs, 0.5) << ", "
                << quantile(w.latencyMs, 0.99);
    }
    std::cerr << "\n";
    if (!spec.openLoop) {
      std::cerr << "fedbench: ring executions occupy " << ringShareOf(r, spec)
                << " of the callers' time\n";
    }
    auto problems = selfChecks(spec, r);
    // Run length is chosen so every window leaves ten samples above its
    // p99; a heavily disturbed machine can fall short, which is reported
    // but does not fail the run.
    for (const Window* w : quiet) {
      if (w->completed < kMinLatencySamples) {
        std::cerr << "fedbench: warning: a quiet window completed only "
                  << w->completed << " requests; its p99 wants "
                  << kMinLatencySamples << "\n";
        break;
      }
    }
    for (const auto& p : problems) std::cerr << "fedbench: " << p << "\n";
    printResult(r.wrong == 0, r.attempted, r.failed, endToEnd(spec, r, setups));
    return problems.empty() ? 0 : 1;
  }

  const PhaseResult untraced = runner.run(o.seconds / 2, false);
  const auto before = registry.snapshot();
  SpanStore::global().setEnabled(true);
  taps.setTracing(true);
  PhaseResult traced;
  double queueDepthMax = 0;
  {
    QueueDepthSampler sampler;
    traced = runner.run(o.seconds / 2, true);
    queueDepthMax = sampler.max();
  }
  taps.setTracing(false);
  SpanStore::global().setEnabled(false);
  const auto after = registry.snapshot();
  const RegistryDelta delta(before, after);
  const std::vector<Span> spans = SpanStore::global().drain();
  const SpanAnalysis analysis = analyzeSpans(spans);
  if (!o.spanOut.empty() && !writeSpans(spans, o.spanOut, kWrittenTraces)) {
    std::cerr << "fedbench: cannot write spans to " << o.spanOut << "\n";
  }

  const double sealedRecords = delta.counter("privtopk.crypto.records_sealed");
  const auto tallies = taps.tallies();
  double tapMessages = 0, tapBytes = 0;
  for (const auto& t : tallies) {
    tapMessages += static_cast<double>(t.messages);
    tapBytes += static_cast<double>(t.bytes);
  }
  const double recordBytes =
      sealedRecords > 0 ? delta.counter("privtopk.crypto.bytes_sealed") / sealedRecords
                        : (tapMessages > 0 ? tapBytes / tapMessages : 0);
  const double handshakes = [&] {
    for (const auto& m : after.metrics) {
      if (m.name == "privtopk.crypto.handshakes") return static_cast<double>(m.value);
    }
    return 0.0;
  }();
  const UnitCosts unit = measureUnitCosts(static_cast<std::size_t>(recordBytes),
                                          taps.payloadSample(), questions,
                                          oracleDbs.front());

  const Metrics metrics = perLayer(TracedInputs{
      spec, untraced, traced, delta, analysis, taps, unit, queueDepthMax,
      handshakes / kSetups});
  std::vector<std::string> problems = selfChecks(spec, traced);
  const double coverage = median(analysis.ringCoverage);
  if (!spec.openLoop && !spec.zipf &&
      (coverage < kCoverageLo || coverage > kCoverageHi)) {
    problems.push_back("token chain covers " + std::to_string(coverage) +
                       " of service.await (tolerance " +
                       std::to_string(kCoverageLo) + ".." +
                       std::to_string(kCoverageHi) + ")");
  }
  if (untraced.wrong != 0) problems.push_back("wrong answer: " + untraced.firstWrong);
  for (const auto& p : problems) std::cerr << "fedbench: " << p << "\n";
  printLayerTable(spec.name, metrics);
  printResult(untraced.wrong == 0 && traced.wrong == 0,
              untraced.attempted + traced.attempted,
              untraced.failed + traced.failed, metrics);
  return problems.empty() ? 0 : 1;
}

}  // namespace
}  // namespace fedbench

int main(int argc, char** argv) {
  try {
    return fedbench::run(fedbench::parseArgs(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "fedbench: " << e.what() << "\n";
    return 2;
  }
}
