// Distributed deployment demo: five organizations, each running one
// NodeService on its own TCP endpoint, with authenticated encryption on
// every ring link (DH handshake + ChaCha20 + HMAC).
//
// This is the deployment-shaped path: `privtopk node` runs the same
// service, one process per organization; only the address book changes.
// Exits non-zero unless every party learns the true top-k.

#include <cstdio>
#include <numeric>

#include "data/generator.hpp"
#include "net/tcp.hpp"
#include "query/service.hpp"

using namespace privtopk;
using namespace std::chrono_literals;

int main() {
  constexpr std::size_t kParties = 5;
  constexpr std::size_t kTopK = 3;

  // --- Private inputs: one revenue table per organization. ---------------
  const std::vector<std::vector<Value>> revenue = {
      {8120, 7300, 100}, {9050, 2200, 90}, {8800, 8790, 4000},
      {6100, 5900, 5800}, {9925, 300, 200},
  };
  std::vector<data::PrivateDatabase> dbs;
  for (std::size_t i = 0; i < kParties; ++i) {
    data::Table table(data::Schema({{"revenue", data::ColumnType::Int}}));
    for (Value v : revenue[i]) table.appendRow({v});
    dbs.emplace_back("org-" + std::to_string(i));
    dbs.back().addTable("sales", std::move(table));
  }

  // --- Address book: reserve distinct localhost ports. -------------------
  std::vector<net::TcpPeer> peers;
  {
    std::vector<std::unique_ptr<net::TcpTransport>> probes;
    for (std::size_t i = 0; i < kParties; ++i) {
      probes.push_back(std::make_unique<net::TcpTransport>(
          0, std::vector<net::TcpPeer>{{0, "127.0.0.1", 0}}));
      peers.push_back(net::TcpPeer{static_cast<NodeId>(i), "127.0.0.1",
                                   probes.back()->listenPort()});
    }
    for (auto& p : probes) p->shutdown();
  }

  // --- Shared query descriptor (agreed out of band). ---------------------
  query::QueryDescriptor descriptor;
  descriptor.queryId = 20260707;
  descriptor.tableName = "sales";
  descriptor.attribute = "revenue";
  descriptor.params.k = kTopK;
  descriptor.params.epsilon = 1e-6;
  std::vector<NodeId> ring(kParties);
  std::iota(ring.begin(), ring.end(), NodeId{0});
  Rng ringRng(404);
  ringRng.shuffle(ring);  // random mapping + random starting node

  net::TcpOptions tcpOptions;
  tcpOptions.encrypt = true;  // DH + ChaCha20 + HMAC on every link
  tcpOptions.keySeed = descriptor.queryId;

  std::printf("ring order:");
  for (NodeId id : ring) std::printf(" %u", id);
  std::printf("   (node %u starts)\n", ring.front());

  // --- One NodeService per organization, each on its own endpoint. -------
  std::vector<std::unique_ptr<net::TcpTransport>> transports;
  std::vector<std::unique_ptr<query::NodeService>> services;
  for (std::size_t i = 0; i < kParties; ++i) {
    const auto id = static_cast<NodeId>(i);
    transports.push_back(
        std::make_unique<net::TcpTransport>(id, peers, tcpOptions));
    services.push_back(std::make_unique<query::NodeService>(
        id, dbs[i], *transports[i], 505 + i));
    services.back()->start();
  }

  // The ring's first node initiates; the others learn the result from its
  // dissemination around the ring.
  (void)services[ring.front()]->initiate(descriptor, ring);

  std::vector<std::optional<TopKVector>> results;
  for (std::size_t i = 0; i < kParties; ++i) {
    results.push_back(services[i]->waitFor(descriptor.queryId, 30'000ms));
    std::printf("party %zu received result %s\n", i,
                results.back() ? toString(*results.back()).c_str()
                               : "(none: timed out)");
  }
  for (auto& s : services) s->stop();
  for (auto& t : transports) t->shutdown();

  const TopKVector truth = data::trueTopK(revenue, kTopK);
  bool agree = true;
  for (const auto& result : results) agree = agree && result == results[0];
  const bool exact = results[0] == truth;

  std::printf("\nall parties agree: %s\n", agree ? "yes" : "NO");
  std::printf("answer is the true top-%zu %s: %s\n", kTopK,
              toString(truth).c_str(), exact ? "yes" : "NO");
  std::printf("every link ran a Diffie-Hellman handshake and sealed each\n");
  std::printf("token with ChaCha20 + HMAC-SHA256 (encrypt-then-MAC).\n");
  return agree && exact ? 0 : 1;
}
