// Service-layer throughput: queries/sec of a NodeService cluster as a
// function of the initiator's in-flight admission cap, the §4.2 group
// size, the tracing mode, and — over real TCP sockets — the number of
// links in the federation.  The concurrent-query scheduler should scale
// throughput with the in-flight budget (overlapping rings pipeline on the
// worker pool), grouping trades per-query latency for smaller rings,
// tracing-off must sit within noise of the pre-tracing baseline, and the
// links×inflight sweep tracks how the epoll-reactor transport scales with
// fleet size (the retired thread-per-link transport burned one reader
// thread per accepted connection; the `process_threads` counter makes the
// O(1)-threads-per-node claim auditable per run).

#include <benchmark/benchmark.h>

#include <fstream>
#include <future>
#include <memory>
#include <numeric>
#include <ostream>
#include <sstream>
#include <streambuf>
#include <string>
#include <vector>

#include "support/bench_json.hpp"

#include "data/generator.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "obs/trace.hpp"
#include "query/service.hpp"

using namespace privtopk;

namespace {

constexpr std::size_t kNodes = 9;
constexpr std::size_t kQueriesPerBatch = 24;

/// Tracing-mode axis: what the overhead bench compares.
enum TraceMode : int {
  kTraceOff = 0,       ///< no contexts on the wire (baseline)
  kTraceJsonLines = 1, ///< spans serialized to a discarded JSON stream
  kTraceRingBuffer = 2 ///< spans retained in the per-node ring buffer
};

/// Swallows writes so the JSON-lines mode measures serialization +
/// tracer locking, not disk.
struct NullBuffer final : std::streambuf {
  int overflow(int c) override { return c; }
};

/// One benchmark iteration = a batch of naive top-k queries initiated from
/// node 0; the in-flight cap decides how many overlap.
void BM_ServiceThroughput(benchmark::State& state) {
  const auto inflight = static_cast<std::size_t>(state.range(0));
  const auto groupSize = static_cast<std::size_t>(state.range(1));
  const auto traceMode = static_cast<TraceMode>(state.range(2));

  NullBuffer nullBuffer;
  std::ostream nullStream(&nullBuffer);
  if (traceMode == kTraceJsonLines) {
    obs::EventTracer::global().enable(&nullStream);
  }

  data::FleetSpec spec;
  spec.nodes = kNodes;
  spec.rowsPerNode = 16;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng dataRng(4242);
  const auto dbs = data::generateFleet(spec, dataRng);

  net::InProcTransport transport(kNodes);
  query::ServiceOptions options;
  options.maxInflightInitiations = inflight;
  options.maxQueuedInitiations = kQueriesPerBatch + 8;
  options.traceQueries = traceMode != kTraceOff;
  options.spanRingCapacity = traceMode == kTraceRingBuffer ? 8192 : 0;
  std::vector<std::unique_ptr<query::NodeService>> services;
  for (std::size_t i = 0; i < kNodes; ++i) {
    services.push_back(std::make_unique<query::NodeService>(
        static_cast<NodeId>(i), dbs[i], transport, 100 + i, options));
    services.back()->start();
  }

  std::vector<NodeId> ring(kNodes);
  std::iota(ring.begin(), ring.end(), NodeId{0});

  std::uint64_t nextId = 1;
  for (auto _ : state) {
    std::vector<std::future<TopKVector>> futures;
    futures.reserve(kQueriesPerBatch);
    for (std::size_t q = 0; q < kQueriesPerBatch; ++q) {
      query::QueryDescriptor d;
      d.queryId = nextId++;
      d.type = query::QueryType::TopK;
      d.kind = protocol::ProtocolKind::Naive;
      d.tableName = "sales";
      d.attribute = "revenue";
      d.params.k = 3;
      d.params.rounds = 4;
      d.groupSize = groupSize;
      futures.push_back(services[0]->initiate(d, ring));
    }
    for (auto& f : futures) {
      benchmark::DoNotOptimize(f.get());
    }
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kQueriesPerBatch));
  state.counters["inflight"] = static_cast<double>(inflight);
  state.counters["group_size"] = static_cast<double>(groupSize);
  state.counters["trace_mode"] = static_cast<double>(traceMode);
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kQueriesPerBatch),
      benchmark::Counter::kIsRate);

  for (auto& s : services) s->stop();
  transport.shutdown();
  if (traceMode == kTraceJsonLines) obs::EventTracer::global().disable();
}
// The initiator thread spends the batch blocked on futures while the
// worker pool does the protocol work, so rates must be wall-clock based.
BENCHMARK(BM_ServiceThroughput)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Args({1, 0, kTraceOff})
    ->Args({2, 0, kTraceOff})
    ->Args({4, 0, kTraceOff})
    ->Args({8, 0, kTraceOff})
    ->Args({1, 3, kTraceOff})
    ->Args({4, 3, kTraceOff})
    // Tracing-overhead sweep at one representative operating point.
    ->Args({4, 0, kTraceJsonLines})
    ->Args({4, 0, kTraceRingBuffer})
    ->Args({4, 3, kTraceJsonLines})
    ->Args({4, 3, kTraceRingBuffer});

/// Live thread count of this process (all nodes run in-process, so this is
/// the fleet-wide total: service workers + one reactor per transport).
double processThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) {
      return std::stod(line.substr(8));
    }
  }
  return 0.0;
}

/// Links×inflight sweep over real TCP sockets (ROADMAP's transport-scaling
/// axis): an N-node federation answers batches of naive top-k queries over
/// the full ring.  Every hop is a real loopback socket write, so this is
/// the transport's syscall + wakeup path under load, not the in-process
/// queue above.
void BM_ServiceThroughputLinks(benchmark::State& state) {
  const auto links = static_cast<std::size_t>(state.range(0));
  const auto inflight = static_cast<std::size_t>(state.range(1));
  constexpr std::size_t kBatch = 16;

  data::FleetSpec spec;
  spec.nodes = links;
  spec.rowsPerNode = 16;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng dataRng(4242);
  const auto dbs = data::generateFleet(spec, dataRng);

  // Reserve distinct loopback ports by briefly holding ephemeral listeners
  // (same pattern as the TCP test suites).
  std::vector<net::TcpPeer> peers;
  {
    std::vector<std::unique_ptr<net::TcpTransport>> probes;
    for (std::size_t i = 0; i < links; ++i) {
      probes.push_back(std::make_unique<net::TcpTransport>(
          0, std::vector<net::TcpPeer>{{0, "127.0.0.1", 0}}));
      peers.push_back(net::TcpPeer{static_cast<NodeId>(i), "127.0.0.1",
                                   probes.back()->listenPort()});
    }
    for (auto& p : probes) p->shutdown();
  }

  query::ServiceOptions options;
  options.maxInflightInitiations = inflight;
  options.maxQueuedInitiations = kBatch + 8;
  options.retransmitAfter = std::chrono::milliseconds(250);
  std::vector<std::unique_ptr<net::TcpTransport>> transports;
  std::vector<std::unique_ptr<query::NodeService>> services;
  for (std::size_t i = 0; i < links; ++i) {
    transports.push_back(std::make_unique<net::TcpTransport>(
        static_cast<NodeId>(i), peers));
    services.push_back(std::make_unique<query::NodeService>(
        static_cast<NodeId>(i), dbs[i], *transports[i], 100 + i, options));
    services.back()->start();
  }

  std::vector<NodeId> ring(links);
  std::iota(ring.begin(), ring.end(), NodeId{0});

  std::uint64_t nextId = 1;
  for (auto _ : state) {
    std::vector<std::future<TopKVector>> futures;
    futures.reserve(kBatch);
    for (std::size_t q = 0; q < kBatch; ++q) {
      query::QueryDescriptor d;
      d.queryId = nextId++;
      d.type = query::QueryType::TopK;
      d.kind = protocol::ProtocolKind::Naive;
      d.tableName = "sales";
      d.attribute = "revenue";
      d.params.k = 3;
      d.params.rounds = 4;
      futures.push_back(services[0]->initiate(d, ring));
    }
    for (auto& f : futures) {
      benchmark::DoNotOptimize(f.get());
    }
  }

  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(kBatch));
  state.counters["links"] = static_cast<double>(links);
  state.counters["inflight"] = static_cast<double>(inflight);
  state.counters["queries_per_sec"] = benchmark::Counter(
      static_cast<double>(state.iterations() * kBatch),
      benchmark::Counter::kIsRate);
  // Sampled at steady state, before teardown: fleet-wide thread total.
  state.counters["process_threads"] = processThreads();

  for (auto& s : services) s->stop();
  for (auto& t : transports) t->shutdown();
}
BENCHMARK(BM_ServiceThroughputLinks)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Args({8, 1})
    ->Args({8, 8})
    ->Args({16, 8})
    ->Args({32, 1})
    ->Args({32, 8});

}  // namespace

int main(int argc, char** argv) {
  return privtopk::benchsupport::runBenchmarksWithJson(
      argc, argv, "BENCH_service_throughput.json");
}
