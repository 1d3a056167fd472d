// Google-benchmark microbenchmarks for the substrates: crypto primitives,
// serialization, transports and a party's local step.  Quantifies the
// paper's §4.2 efficiency argument - cryptographic link protection (our
// substitution) costs orders of magnitude more per byte than the
// protocol's local computation.

#include <benchmark/benchmark.h>

#include <numeric>

#include "support/bench_json.hpp"

#include "crypto/chacha20.hpp"
#include "crypto/dh.hpp"
#include "crypto/hmac.hpp"
#include "crypto/secure_channel.hpp"
#include "crypto/sha256.hpp"
#include "data/generator.hpp"
#include "net/inproc.hpp"
#include "net/message.hpp"
#include "query/federation.hpp"

using namespace privtopk;

namespace {

void BM_Sha256(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  std::vector<std::uint8_t> data(size, 0xab);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::sha256(data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(4096)->Arg(65536);

void BM_HmacSha256(benchmark::State& state) {
  std::vector<std::uint8_t> key(32, 0x11);
  std::vector<std::uint8_t> data(1024, 0x22);
  for (auto _ : state) {
    benchmark::DoNotOptimize(crypto::hmacSha256(key, data));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 1024);
}
BENCHMARK(BM_HmacSha256);

void BM_ChaCha20(benchmark::State& state) {
  const auto size = static_cast<std::size_t>(state.range(0));
  crypto::ChaChaKey key{};
  std::iota(key.begin(), key.end(), std::uint8_t{0});
  std::vector<std::uint8_t> data(size, 0x33);
  for (auto _ : state) {
    crypto::chacha20XorInPlace(key, crypto::makeNonce(1, 1), 0, data);
    benchmark::DoNotOptimize(data.data());
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(size));
}
BENCHMARK(BM_ChaCha20)->Arg(64)->Arg(4096)->Arg(65536);

void BM_DhHandshake512(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    Rng a = rng.fork(1);
    Rng b = rng.fork(2);
    crypto::SecureHandshake alice(crypto::SecureHandshake::Role::Initiator,
                                  crypto::DhGroup::test512(), a);
    crypto::SecureHandshake bob(crypto::SecureHandshake::Role::Responder,
                                crypto::DhGroup::test512(), b);
    benchmark::DoNotOptimize(alice.deriveSession(bob.localHello()));
  }
}
BENCHMARK(BM_DhHandshake512);

void BM_DhModexp2048(benchmark::State& state) {
  const auto& group = crypto::DhGroup::modp2048();
  Rng rng(2);
  const auto kp = crypto::dhGenerate(group, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        crypto::modexp(group.g, kp.privateKey, group.p));
  }
}
BENCHMARK(BM_DhModexp2048);

void BM_SealOpen(benchmark::State& state) {
  Rng a(3);
  Rng b(4);
  crypto::SecureHandshake alice(crypto::SecureHandshake::Role::Initiator,
                                crypto::DhGroup::test512(), a);
  crypto::SecureHandshake bob(crypto::SecureHandshake::Role::Responder,
                              crypto::DhGroup::test512(), b);
  auto tx = alice.deriveSession(bob.localHello());
  auto rx = bob.deriveSession(alice.localHello());
  std::vector<std::uint8_t> payload(512, 0x55);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rx.open(tx.seal(payload)));
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations()) * 512);
}
BENCHMARK(BM_SealOpen);

void BM_MessageCodec(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  net::RoundToken token{1, 3, TopKVector(k, 9999)};
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        net::decodeMessage(net::encodeMessage(token)));
  }
  state.counters["k"] = static_cast<double>(k);
  state.counters["bytes"] =
      static_cast<double>(net::encodeMessage(token).size());
}
BENCHMARK(BM_MessageCodec)->Arg(1)->Arg(16)->Arg(256);

void BM_InProcRoundTrip(benchmark::State& state) {
  net::InProcTransport transport(2);
  const Bytes payload(128, 0x77);
  for (auto _ : state) {
    transport.send(0, 1, payload);
    benchmark::DoNotOptimize(
        transport.receive(1, std::chrono::milliseconds(100)));
  }
  state.counters["messages"] = static_cast<double>(transport.messagesSent());
  state.counters["bytes"] = static_cast<double>(transport.bytesSent());
}
BENCHMARK(BM_InProcRoundTrip);

/// One party's 2,000-row table and a query filtered by one `<=` clause
/// (the federation benchmark's shape: k=16, about half the rows kept).
struct LocalStep {
  data::PrivateDatabase db;
  query::QueryDescriptor descriptor;

  explicit LocalStep(query::QueryType type) {
    data::FleetSpec spec;
    spec.nodes = 1;
    spec.rowsPerNode = 2000;
    Rng rng(11);
    db = std::move(data::generateFleet(spec, rng).front());
    descriptor.type = type;
    descriptor.tableName = spec.tableName;
    descriptor.attribute = spec.attribute;
    descriptor.params.k = 16;
    descriptor.params.rounds = 4;
    descriptor.filter = query::Filter(
        {{spec.attribute, query::FilterOp::Le, Value{5000}}});
  }
};

void BM_LocalInput(benchmark::State& state) {
  const LocalStep step(query::QueryType::TopK);
  const query::LocalParty party(step.db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(party.localInput(step.descriptor));
  }
  state.counters["rows"] = 2000;
}
BENCHMARK(BM_LocalInput);

void BM_LocalAggregate(benchmark::State& state) {
  const LocalStep step(query::QueryType::Sum);
  const query::LocalParty party(step.db);
  for (auto _ : state) {
    benchmark::DoNotOptimize(party.localAggregate(step.descriptor));
  }
  state.counters["rows"] = 2000;
}
BENCHMARK(BM_LocalAggregate);

}  // namespace

int main(int argc, char** argv) {
  return privtopk::benchsupport::runBenchmarksWithJson(
      argc, argv, "BENCH_substrates.json");
}
