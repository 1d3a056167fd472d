// WAN-scale federation latency/throughput: queries/sec and per-query
// p50/p99 of a 9-node NodeService fleet whose transport is wrapped in
// net::ShapingTransport, swept over the named geo profiles (lan, metro,
// cross-region, intercontinental) and the number of concurrently driven
// queries.  The ring protocol serializes one token hop after another, so
// per-query latency should track the profile's one-way latency times the
// hop count while throughput recovers with pipelining (shaping delays
// messages on a delivery queue instead of stalling worker threads).
// Exports BENCH_wan.json for the nightly CI artifact.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <future>
#include <memory>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include "support/bench_json.hpp"

#include "data/generator.hpp"
#include "net/inproc.hpp"
#include "net/shaping.hpp"
#include "query/service.hpp"

using namespace privtopk;

namespace {

constexpr std::size_t kNodes = 9;
constexpr std::size_t kPerWorker = 3;

constexpr const char* kProfiles[] = {"lan", "metro", "cross-region",
                                     "intercontinental"};

/// One iteration = `inflight` driver threads, each running kPerWorker
/// naive top-k queries end to end (initiate -> result) with round-robin
/// initiators, every message shaped by the profile.  Latencies are
/// per-query wall times; the rate counter divides total queries by the
/// iteration's wall clock.
void BM_WanFederation(benchmark::State& state) {
  const std::string profile =
      kProfiles[static_cast<std::size_t>(state.range(0))];
  const auto inflight = static_cast<std::size_t>(state.range(1));

  data::FleetSpec spec;
  spec.nodes = kNodes;
  spec.rowsPerNode = 16;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng dataRng(4242);
  const auto dbs = data::generateFleet(spec, dataRng);

  net::InProcTransport inner(kNodes);
  net::ShapingTransport shaped(
      inner, net::ShapingSpec::parse("profile:*:" + profile + ",seed:17"));

  query::ServiceOptions options;
  options.maxInflightInitiations = 4;
  // Intercontinental hops run ~100 ms each; a long deadline keeps
  // spurious retransmissions off the measured path.
  options.retransmitAfter = std::chrono::milliseconds(2000);
  std::vector<std::unique_ptr<query::NodeService>> services;
  for (std::size_t i = 0; i < kNodes; ++i) {
    services.push_back(std::make_unique<query::NodeService>(
        static_cast<NodeId>(i), dbs[i], shaped, 100 + i, options));
    services.back()->start();
  }

  std::vector<std::vector<double>> latenciesMs(inflight);
  std::uint64_t iteration = 0;
  for (auto _ : state) {
    std::vector<std::thread> workers;
    workers.reserve(inflight);
    for (std::size_t w = 0; w < inflight; ++w) {
      workers.emplace_back([&, w] {
        for (std::size_t q = 0; q < kPerWorker; ++q) {
          const std::size_t slot = w * kPerWorker + q;
          query::QueryDescriptor d;
          d.queryId = 1 + iteration * 1000 + slot;
          d.type = query::QueryType::TopK;
          d.kind = protocol::ProtocolKind::Naive;
          d.tableName = "sales";
          d.attribute = "revenue";
          d.params.k = 3;
          const NodeId initiator = static_cast<NodeId>(slot % kNodes);
          std::vector<NodeId> ring(kNodes);
          std::iota(ring.begin(), ring.end(), NodeId{0});
          std::rotate(ring.begin(), ring.begin() + initiator, ring.end());
          const auto start = std::chrono::steady_clock::now();
          benchmark::DoNotOptimize(
              services[initiator]->initiate(d, ring).get());
          const auto elapsed = std::chrono::steady_clock::now() - start;
          latenciesMs[w].push_back(
              std::chrono::duration<double, std::milli>(elapsed).count());
        }
      });
    }
    for (auto& worker : workers) worker.join();
    ++iteration;
  }

  std::vector<double> all;
  for (auto& perWorker : latenciesMs) {
    all.insert(all.end(), perWorker.begin(), perWorker.end());
  }
  std::sort(all.begin(), all.end());
  const auto percentile = [&](double p) {
    if (all.empty()) return 0.0;
    return all[static_cast<std::size_t>(p *
                                        static_cast<double>(all.size() - 1))];
  };

  const auto queries = static_cast<double>(state.iterations()) *
                       static_cast<double>(inflight * kPerWorker);
  state.SetItemsProcessed(static_cast<std::int64_t>(queries));
  state.SetLabel(profile);
  state.counters["profile"] = static_cast<double>(state.range(0));
  state.counters["inflight"] = static_cast<double>(inflight);
  state.counters["queries_per_sec"] =
      benchmark::Counter(queries, benchmark::Counter::kIsRate);
  state.counters["p50_ms"] = percentile(0.50);
  state.counters["p99_ms"] = percentile(0.99);

  for (auto& s : services) s->stop();
  shaped.shutdown();
  inner.shutdown();
}
// One iteration per point: the slow profiles run seconds per query batch,
// and the latency distribution (not the sample count) is the figure.
BENCHMARK(BM_WanFederation)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond)
    ->Iterations(1)
    ->Args({0, 1})
    ->Args({0, 8})
    ->Args({1, 1})
    ->Args({1, 8})
    ->Args({2, 1})
    ->Args({2, 8})
    ->Args({3, 1})
    ->Args({3, 8});

}  // namespace

int main(int argc, char** argv) {
  return privtopk::benchsupport::runBenchmarksWithJson(argc, argv,
                                                       "BENCH_wan.json");
}
