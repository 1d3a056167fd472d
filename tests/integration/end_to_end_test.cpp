// End-to-end integration: the full distributed protocol, one NodeService
// per party, over real transports (in-process queues and TCP sockets,
// plaintext and encrypted), plus cross-engine consistency checks.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <memory>
#include <numeric>

#include "crypto/secure_channel.hpp"
#include "data/generator.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "protocol/runner.hpp"
#include "protocol/sim_engine.hpp"
#include "query/service.hpp"

namespace privtopk::query {
namespace {

using namespace std::chrono_literals;
using protocol::ProtocolKind;

// One single-column database per value set, so a test can pin each
// party's private values exactly.
std::vector<data::PrivateDatabase> databasesOf(
    const std::vector<std::vector<Value>>& values) {
  std::vector<data::PrivateDatabase> dbs;
  for (std::size_t i = 0; i < values.size(); ++i) {
    data::Table table(data::Schema({{"revenue", data::ColumnType::Int}}));
    for (const Value v : values[i]) table.appendRow({data::Cell{v}});
    dbs.emplace_back("party" + std::to_string(i));
    dbs.back().addTable("sales", std::move(table));
  }
  return dbs;
}

QueryDescriptor descriptor(std::uint64_t id, std::size_t k,
                           QueryType type = QueryType::TopK) {
  QueryDescriptor d;
  d.queryId = id;
  d.type = type;
  d.tableName = "sales";
  d.attribute = "revenue";
  d.params.k = k;
  d.params.rounds = 10;
  return d;
}

// A random ring order; its first node initiates.
std::vector<NodeId> shuffledRing(std::size_t n, Rng& rng) {
  std::vector<NodeId> ring(n);
  std::iota(ring.begin(), ring.end(), NodeId{0});
  rng.shuffle(ring);
  return ring;
}

// Starts one NodeService per database on `transports[i]`, runs `d` from
// ring.front() and checks that every party learns the initiator's answer.
TopKVector runOnServices(const std::vector<data::PrivateDatabase>& dbs,
                         const std::vector<net::Transport*>& transports,
                         const QueryDescriptor& d,
                         const std::vector<NodeId>& ring, std::uint64_t seed) {
  std::vector<std::unique_ptr<NodeService>> services;
  for (std::size_t i = 0; i < dbs.size(); ++i) {
    services.push_back(std::make_unique<NodeService>(
        static_cast<NodeId>(i), dbs[i], *transports[i], seed + i));
    services.back()->start();
  }
  TopKVector result;
  auto future = services[ring.front()]->initiate(d, ring);
  if (future.wait_for(10s) != std::future_status::ready) {
    ADD_FAILURE() << "initiator " << ring.front() << " never completed";
  } else {
    result = future.get();
    for (std::size_t i = 0; i < services.size(); ++i) {
      EXPECT_EQ(services[i]->waitFor(d.queryId, 10'000ms), result)
          << "node " << i << " disagrees";
    }
  }
  for (auto& s : services) s->stop();
  return result;
}

TopKVector runOverInProc(const std::vector<data::PrivateDatabase>& dbs,
                         const QueryDescriptor& d, Rng& rng) {
  net::InProcTransport transport(dbs.size());
  const std::vector<net::Transport*> transports(dbs.size(), &transport);
  const TopKVector result = runOnServices(
      dbs, transports, d, shuffledRing(dbs.size(), rng), rng.engine()());
  transport.shutdown();
  return result;
}

TEST(EndToEnd, DistributedMaxOverInProcTransport) {
  const auto dbs = databasesOf({{30}, {10}, {40}, {20}});
  Rng rng(1);
  EXPECT_EQ(runOverInProc(dbs, descriptor(77, 1, QueryType::Max), rng),
            (TopKVector{40}));
}

TEST(EndToEnd, DistributedTopKOverInProcTransport) {
  data::UniformDistribution dist;
  Rng dataRng(2);
  const auto values = data::generateValueSets(6, 10, dist, dataRng);
  Rng rng(3);
  EXPECT_EQ(runOverInProc(databasesOf(values), descriptor(77, 4), rng),
            data::trueTopK(values, 4));
}

TEST(EndToEnd, DistributedNaiveProtocol) {
  const auto dbs = databasesOf({{3, 1}, {9, 2}, {7, 8}});
  QueryDescriptor d = descriptor(77, 2);
  d.kind = ProtocolKind::Naive;
  Rng rng(4);
  EXPECT_EQ(runOverInProc(dbs, d, rng), (TopKVector{9, 8}));
}

TEST(EndToEnd, ManyQueriesBackToBack) {
  data::UniformDistribution dist;
  Rng dataRng(5);
  Rng rng(6);
  for (int q = 0; q < 5; ++q) {
    const auto values = data::generateValueSets(4, 5, dist, dataRng);
    const QueryDescriptor d = descriptor(static_cast<std::uint64_t>(q + 1), 2);
    EXPECT_EQ(runOverInProc(databasesOf(values), d, rng),
              data::trueTopK(values, 2))
        << "query " << q;
  }
}

std::vector<net::TcpPeer> reserveRing(std::size_t n) {
  std::vector<std::unique_ptr<net::TcpTransport>> probes;
  std::vector<net::TcpPeer> peers;
  for (std::size_t i = 0; i < n; ++i) {
    probes.push_back(std::make_unique<net::TcpTransport>(
        0, std::vector<net::TcpPeer>{{0, "127.0.0.1", 0}}));
    peers.push_back(net::TcpPeer{static_cast<NodeId>(i), "127.0.0.1",
                                 probes.back()->listenPort()});
  }
  for (auto& p : probes) p->shutdown();
  return peers;
}

TopKVector runOverTcp(const std::vector<std::vector<Value>>& values,
                      std::size_t k, bool encrypt, std::uint64_t seed) {
  const std::size_t n = values.size();
  const auto peers = reserveRing(n);
  net::TcpOptions options;
  options.encrypt = encrypt;
  options.keySeed = seed;

  std::vector<std::unique_ptr<net::TcpTransport>> owned;
  std::vector<net::Transport*> transports;
  for (std::size_t i = 0; i < n; ++i) {
    owned.push_back(std::make_unique<net::TcpTransport>(
        static_cast<NodeId>(i), peers, options));
    transports.push_back(owned.back().get());
  }

  Rng rng(seed);
  const TopKVector result =
      runOnServices(databasesOf(values), transports, descriptor(77, k),
                    shuffledRing(n, rng), rng.engine()());
  for (auto& t : owned) t->shutdown();
  return result;
}

TEST(EndToEnd, DistributedMaxOverTcp) {
  const std::vector<std::vector<Value>> values = {{310}, {120}, {9404}, {202}};
  EXPECT_EQ(runOverTcp(values, 1, /*encrypt=*/false, 7), (TopKVector{9404}));
}

TEST(EndToEnd, DistributedTopKOverEncryptedTcp) {
  data::UniformDistribution dist;
  Rng dataRng(8);
  const auto values = data::generateValueSets(4, 8, dist, dataRng);
  EXPECT_EQ(runOverTcp(values, 3, /*encrypt=*/true, 9),
            data::trueTopK(values, 3));
}

TEST(EndToEnd, EnginesAgreeOnDeterministicRuns) {
  // With p0 = 0 all three execution engines are deterministic merges and
  // must produce the identical (exact) answer.
  data::UniformDistribution dist;
  Rng dataRng(10);
  const auto values = data::generateValueSets(5, 6, dist, dataRng);
  const TopKVector truth = data::trueTopK(values, 3);

  QueryDescriptor d = descriptor(77, 3);
  d.params.p0 = 0.0;
  d.params.rounds = 2;

  // Synchronous runner.
  Rng rng1(11);
  const protocol::RingQueryRunner runner(d.params, ProtocolKind::Probabilistic);
  EXPECT_EQ(runner.run(values, rng1).result, truth);

  // Event-driven simulation.
  protocol::SimulatedRunConfig simCfg;
  simCfg.params = d.params;
  Rng rng2(12);
  EXPECT_EQ(protocol::runSimulatedQuery(values, simCfg, rng2).result, truth);

  // NodeService ring over an in-process transport.
  Rng rng3(13);
  EXPECT_EQ(runOverInProc(databasesOf(values), d, rng3), truth);
}

TEST(EndToEnd, SecureChannelProtectsTokenBytes) {
  // Sanity: over the encrypted transport no frame equals the plaintext
  // encoding of a token.  (The reader thread decrypts before delivering,
  // so we check at the SecureSession layer instead.)
  crypto::SecureHandshake::Role role = crypto::SecureHandshake::Role::Initiator;
  Rng rngA(14);
  Rng rngB(15);
  crypto::SecureHandshake a(role, crypto::DhGroup::test512(), rngA);
  crypto::SecureHandshake b(crypto::SecureHandshake::Role::Responder,
                            crypto::DhGroup::test512(), rngB);
  auto sa = a.deriveSession(b.localHello());
  const Bytes token = net::encodeMessage(net::RoundToken{1, 1, {9999}});
  const auto sealed = sa.seal(token);
  EXPECT_EQ(std::search(sealed.begin(), sealed.end(), token.begin(),
                        token.end()),
            sealed.end());
}

}  // namespace
}  // namespace privtopk::query
