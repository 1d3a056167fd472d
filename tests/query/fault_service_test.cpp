// NodeService fault-tolerance tests: retransmission of lost tokens, ring
// repair around crashed and unreachable peers (over both InProc and real
// TCP transports), peer kill + relaunch mid-query, grouped merge traffic
// overtaking a slow phase-1 announce, and the bounded completed-result
// cache.

#include "query/service.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <thread>

#include "data/generator.hpp"
#include "net/fault.hpp"
#include "net/inproc.hpp"
#include "net/shaping.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"
#include "protocol/group.hpp"

namespace privtopk::query {
namespace {

using namespace std::chrono_literals;

QueryDescriptor descriptor(std::uint64_t id, QueryType type = QueryType::TopK,
                           std::size_t k = 3) {
  QueryDescriptor d;
  d.queryId = id;
  d.type = type;
  d.tableName = "sales";
  d.attribute = "revenue";
  d.params.k = k;
  d.params.rounds = 10;
  return d;
}

std::vector<data::PrivateDatabase> makeFleet(std::size_t n,
                                             std::uint64_t seed) {
  data::FleetSpec spec;
  spec.nodes = n;
  spec.rowsPerNode = 12;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng rng(seed);
  return data::generateFleet(spec, rng);
}

std::vector<NodeId> fullRing(std::size_t n) {
  std::vector<NodeId> ring(n);
  std::iota(ring.begin(), ring.end(), NodeId{0});
  return ring;
}

/// True top-k over a subset of the fleet (the nodes that survived).
TopKVector survivorsTopK(const std::vector<data::PrivateDatabase>& dbs,
                         const std::vector<NodeId>& survivors, std::size_t k) {
  const auto all = data::fleetValues(dbs, "sales", "revenue");
  std::vector<std::vector<Value>> kept;
  for (NodeId id : survivors) kept.push_back(all[id]);
  return data::trueTopK(kept, k);
}

/// Robustness knobs tightened for fast tests: retransmit quickly and give
/// up on a successor after two failed deliveries.
ServiceOptions fastOptions() {
  ServiceOptions options;
  options.staleAfter = 30'000ms;
  options.retransmitAfter = 150ms;
  options.deadAfterFailures = 2;
  return options;
}

/// In-process fleet where every node shares one fault-injecting transport.
struct FaultyInProcCluster {
  std::vector<data::PrivateDatabase> dbs;
  net::InProcTransport inner;
  net::FaultInjectingTransport transport;
  std::vector<std::unique_ptr<NodeService>> services;

  FaultyInProcCluster(std::size_t n, const std::string& faultSpec,
                      std::uint64_t seed = 21)
      : dbs(makeFleet(n, seed)),
        inner(n),
        transport(inner, net::FaultSpec::parse(faultSpec)) {
    for (std::size_t i = 0; i < n; ++i) {
      services.push_back(std::make_unique<NodeService>(
          static_cast<NodeId>(i), dbs[i], transport, 500 + i, fastOptions()));
      services.back()->start();
    }
  }

  ~FaultyInProcCluster() {
    for (auto& s : services) s->stop();
    transport.shutdown();
  }
};

/// TCP fleet: one transport per node, each wrapped around a SHARED fault
/// state so a scheduled crash severs the node in both directions.  Nodes
/// in `neverLaunched` keep their address-book entry but never listen.
struct FaultyTcpCluster {
  std::vector<data::PrivateDatabase> dbs;
  std::vector<net::TcpPeer> peers;
  std::shared_ptr<net::FaultState> faults;
  std::vector<std::unique_ptr<net::TcpTransport>> transports;
  std::vector<std::unique_ptr<net::FaultInjectingTransport>> wrappers;
  std::vector<std::unique_ptr<NodeService>> services;

  FaultyTcpCluster(std::size_t n, const std::string& faultSpec,
                   std::uint64_t seed = 31,
                   const std::vector<NodeId>& neverLaunched = {})
      : dbs(makeFleet(n, seed)),
        faults(std::make_shared<net::FaultState>(
            net::FaultSpec::parse(faultSpec))) {
    {
      std::vector<std::unique_ptr<net::TcpTransport>> probes;
      for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
        probes.push_back(std::make_unique<net::TcpTransport>(
            0, std::vector<net::TcpPeer>{{0, "127.0.0.1", 0}}));
        peers.push_back(
            net::TcpPeer{id, "127.0.0.1", probes.back()->listenPort()});
      }
      for (auto& p : probes) p->shutdown();
    }
    for (NodeId id = 0; id < static_cast<NodeId>(n); ++id) {
      if (std::find(neverLaunched.begin(), neverLaunched.end(), id) ==
          neverLaunched.end()) {
        launch(id);
      }
    }
  }

  /// Starts (or restarts) node `id` on its assigned port.
  void launch(NodeId id) {
    net::TcpOptions options;
    options.connectTimeout = 1000ms;
    transports.resize(std::max<std::size_t>(transports.size(), id + 1));
    wrappers.resize(std::max<std::size_t>(wrappers.size(), id + 1));
    services.resize(std::max<std::size_t>(services.size(), id + 1));
    transports[id] = std::make_unique<net::TcpTransport>(id, peers, options);
    wrappers[id] =
        std::make_unique<net::FaultInjectingTransport>(*transports[id], faults);
    services[id] = std::make_unique<NodeService>(id, dbs[id], *wrappers[id],
                                                 700 + id, fastOptions());
    services[id]->start();
  }

  /// Tears node `id` down completely (service, wrapper, sockets).
  void kill(NodeId id) {
    services[id]->stop();
    transports[id]->shutdown();
    services[id].reset();
    wrappers[id].reset();
    transports[id].reset();
  }

  ~FaultyTcpCluster() {
    for (auto& s : services) {
      if (s) s->stop();
    }
    for (auto& t : transports) {
      if (t) t->shutdown();
    }
  }
};

// ---------------------------------------------------------------------------
// Retransmission
// ---------------------------------------------------------------------------

TEST(NodeServiceFaults, DroppedTokenIsRetransmitted) {
  // Message 2 on the 0->1 link is the first round token (message 1 is the
  // announce).  Without retransmission the query hangs forever.
  FaultyInProcCluster cluster(3, "drop:0->1:2");
  auto future = cluster.services[0]->initiate(descriptor(1), fullRing(3));
  ASSERT_EQ(future.wait_for(20s), std::future_status::ready);
  EXPECT_EQ(future.get(), survivorsTopK(cluster.dbs, {0, 1, 2}, 3));
  EXPECT_EQ(cluster.transport.dropsInjected(), 1u);
}

TEST(NodeServiceFaults, DroppedAnnounceIsRetransmitted) {
  // Message 1 on the 0->1 link is the announce itself: the successor never
  // learns the query until the initiator's retransmission replays the
  // announce ahead of the stalled token.
  FaultyInProcCluster cluster(3, "drop:0->1:1");
  auto future = cluster.services[0]->initiate(descriptor(2), fullRing(3));
  ASSERT_EQ(future.wait_for(20s), std::future_status::ready);
  EXPECT_EQ(future.get(), survivorsTopK(cluster.dbs, {0, 1, 2}, 3));
}

// ---------------------------------------------------------------------------
// Ring repair
// ---------------------------------------------------------------------------

TEST(NodeServiceFaults, CrashedPeerIsSplicedOutOfTheRing) {
  // Node 2 is fail-stop from the start of a 4-node ring.  Node 1 must
  // declare it dead, splice it out, and route the query 0->1->3->0.
  FaultyInProcCluster cluster(4, "crash:2@0");
  auto future = cluster.services[0]->initiate(descriptor(3), fullRing(4));
  ASSERT_EQ(future.wait_for(20s), std::future_status::ready);
  EXPECT_EQ(future.get(), survivorsTopK(cluster.dbs, {0, 1, 3}, 3));
}

TEST(NodeServiceFaults, RingShrinkingBelowThreeAbortsTheQuery) {
  // The initiator's next two successors are both dead: after splicing both
  // out the ring would be {0, 3}, below the paper's n >= 3 privacy floor,
  // so the initiator must abort (failing its future) rather than run a
  // two-party protocol.
  FaultyInProcCluster cluster(4, "crash:1@0,crash:2@0");
  auto future = cluster.services[0]->initiate(descriptor(4), fullRing(4));
  ASSERT_EQ(future.wait_for(20s), std::future_status::ready);
  EXPECT_THROW((void)future.get(), TransportError);
}

TEST(NodeServiceFaults, PeerWithoutMailboxIsSplicedOut) {
  // Node 9 is on the agreed ring but has no InProc mailbox: every send to
  // it throws, so node 0 splices it out and the live trio completes.
  FaultyInProcCluster cluster(3, "");
  auto future = cluster.services[0]->initiate(descriptor(8), {0, 9, 1, 2});
  ASSERT_EQ(future.wait_for(20s), std::future_status::ready);
  EXPECT_EQ(future.get(), survivorsTopK(cluster.dbs, {0, 1, 2}, 3));
}

// ---------------------------------------------------------------------------
// Acceptance scenario (ISSUE 2): 5-node TCP query with one dropped token
// and one crashed non-initiator completes with the survivors' result.
// ---------------------------------------------------------------------------

TEST(NodeServiceFaults, TcpQuerySurvivesDropAndCrash) {
  FaultyTcpCluster cluster(5, "drop:0->1:2,crash:2@0");
  auto future = cluster.services[0]->initiate(descriptor(5), fullRing(5));
  ASSERT_EQ(future.wait_for(30s), std::future_status::ready);
  EXPECT_EQ(future.get(), survivorsTopK(cluster.dbs, {0, 1, 3, 4}, 3));
  // Survivors learn the result too.
  for (NodeId id : {NodeId{1}, NodeId{3}, NodeId{4}}) {
    const auto result = cluster.services[id]->waitFor(5, 10'000ms);
    ASSERT_TRUE(result.has_value()) << "node " << id;
    EXPECT_EQ(*result, survivorsTopK(cluster.dbs, {0, 1, 3, 4}, 3));
  }
}

TEST(NodeServiceFaults, TcpPeerThatNeverListensIsSplicedOut) {
  // Peer 3 is in every address book but its listener never starts.  A
  // refused connect is a different failure path from an injected crash;
  // node 1 must still splice 3 out of the ring {0, 1, 3, 2}.
  FaultyTcpCluster cluster(4, "", 31, /*neverLaunched=*/{3});
  auto future = cluster.services[0]->initiate(descriptor(9), {0, 1, 3, 2});
  ASSERT_EQ(future.wait_for(30s), std::future_status::ready);
  EXPECT_EQ(future.get(), survivorsTopK(cluster.dbs, {0, 1, 2}, 3));
  for (NodeId id : {NodeId{1}, NodeId{2}}) {
    const auto result = cluster.services[id]->waitFor(9, 10'000ms);
    ASSERT_TRUE(result.has_value()) << "node " << id;
    EXPECT_EQ(*result, survivorsTopK(cluster.dbs, {0, 1, 2}, 3));
  }
}

// ---------------------------------------------------------------------------
// Peer restart (ISSUE 2 satellite): kill and relaunch one TcpTransport node
// mid-query; the ring repairs, the initiator's future resolves, and the
// relaunched node serves the next full-ring query.
// ---------------------------------------------------------------------------

TEST(NodeServiceFaults, TcpPeerKillAndRelaunchMidQuery) {
  // Node 2 forwards the announce (its one allowed send) and dies holding
  // the round-1 token - the worst case, because the token is lost with it
  // and node 1 must both retransmit and repair.
  FaultyTcpCluster cluster(4, "crash:2@1");

  auto first = cluster.services[0]->initiate(descriptor(6), fullRing(4));
  ASSERT_EQ(first.wait_for(30s), std::future_status::ready);
  EXPECT_EQ(first.get(), survivorsTopK(cluster.dbs, {0, 1, 3}, 3));

  // Relaunch node 2: real socket teardown + rebind on the same port, and
  // the fault layer forgets the spent crash schedule.
  cluster.kill(2);
  cluster.faults->revive(2);
  cluster.launch(2);

  // A fresh query over the full ring must now involve all four databases,
  // which also forces node 1 to reconnect its dead 1->2 link.
  auto second = cluster.services[0]->initiate(descriptor(7), fullRing(4));
  ASSERT_EQ(second.wait_for(30s), std::future_status::ready);
  EXPECT_EQ(second.get(), survivorsTopK(cluster.dbs, {0, 1, 2, 3}, 3));
}

// ---------------------------------------------------------------------------
// Grouped merge traffic ahead of the phase-1 announce
// ---------------------------------------------------------------------------

TEST(NodeServiceFaults, MergeTrafficAheadOfPhaseOneAnnounceIsStashed) {
  // Merge ring [coordinator, D1, D2]: a slow coordinator->D2 link lets
  // D1's merge announce and merge token reach D2 before the coordinator's
  // phase-1 announce registers the grouped query there.  D2 must hold
  // that traffic rather than drop it and wait out a retransmission.
  constexpr std::size_t kNodes = 9;
  constexpr std::uint64_t kSeedBase = 1100;
  QueryDescriptor d = descriptor(4242);
  d.kind = protocol::ProtocolKind::Naive;
  d.groupSize = 3;
  const std::vector<NodeId> ring = fullRing(kNodes);
  Rng layoutRng(protocol::groupLayoutSeed(kSeedBase, d.queryId));
  const protocol::GroupLayout layout =
      protocol::makeGroupLayout(ring, 0, d.groupSize, layoutRng);
  ASSERT_EQ(layout.mergeRing.size(), 3u);
  const NodeId d2 = layout.mergeRing[2];

  const auto dbs = makeFleet(kNodes, 51);
  net::InProcTransport inner(kNodes);
  net::ShapingTransport shaped(
      inner, net::ShapingSpec::parse("lat:0->" + std::to_string(d2) + ":200"));
  const ServiceOptions options;  // retransmitAfter stays at its 1 s default
  std::vector<std::unique_ptr<NodeService>> services;
  for (NodeId id = 0; id < kNodes; ++id) {
    services.push_back(std::make_unique<NodeService>(
        id, dbs[id], shaped, kSeedBase + id, options));
    services.back()->start();
  }
  auto& retransmits =
      obs::counter("privtopk.query.retransmits", {{"engine", "service"}});
  auto& dropped =
      obs::counter("privtopk.query.dropped_messages", {{"engine", "service"}});
  const std::uint64_t retransmitsBefore = retransmits.value();
  const std::uint64_t droppedBefore = dropped.value();

  const auto start = std::chrono::steady_clock::now();
  auto future = services[0]->initiate(d, ring);
  ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_EQ(future.get(), survivorsTopK(dbs, ring, 3));
  EXPECT_LT(elapsed, options.retransmitAfter / 2);
  EXPECT_EQ(retransmits.value(), retransmitsBefore);
  EXPECT_EQ(dropped.value(), droppedBefore);

  for (auto& s : services) s->stop();
  shaped.shutdown();
}

TEST(NodeServiceFaults, OrphanedMergeStashExpiresAfterStaleAfter) {
  // Merge traffic for a grouped query whose phase-1 announce never comes
  // is held, not dropped on arrival, and is dropped once staleAfter passes.
  const auto dbs = makeFleet(3, 61);
  net::InProcTransport transport(3);
  ServiceOptions options;
  options.staleAfter = 300ms;
  NodeService service(0, dbs[0], transport, 1300, options);
  service.start();
  auto& dropped =
      obs::counter("privtopk.query.dropped_messages", {{"engine", "service"}});
  const std::uint64_t droppedBefore = dropped.value();

  constexpr std::uint64_t kParent = 8800;
  QueryDescriptor merge = descriptor(protocol::mergeQueryId(kParent));
  merge.kind = protocol::ProtocolKind::Naive;
  net::QueryAnnounce announce;
  announce.queryId = merge.queryId;
  announce.descriptor = merge.encode();
  announce.ringOrder = {1, 0, 2};
  announce.parentQueryId = kParent;
  announce.phase = 2;
  announce.groupSize = 3;
  transport.send(1, 0, net::encodeMessage(announce));
  transport.send(
      1, 0, net::encodeMessage(net::RoundToken{merge.queryId, 1, {7}, {}}));

  std::this_thread::sleep_for(100ms);
  EXPECT_EQ(dropped.value(), droppedBefore);  // held, not dropped
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (dropped.value() < droppedBefore + 2 &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(10ms);
  }
  EXPECT_EQ(dropped.value(), droppedBefore + 2);  // both expired together
  EXPECT_EQ(service.activeQueries(), 0u);

  service.stop();
  transport.shutdown();
}

// ---------------------------------------------------------------------------
// Bounded completed-result cache
// ---------------------------------------------------------------------------

TEST(NodeServiceFaults, CompletedResultsAreBoundedLru) {
  auto dbs = makeFleet(3, 41);
  net::InProcTransport transport(3);
  ServiceOptions options;
  options.completedCap = 4;
  std::vector<std::unique_ptr<NodeService>> services;
  for (NodeId id = 0; id < 3; ++id) {
    services.push_back(std::make_unique<NodeService>(id, dbs[id], transport,
                                                     900 + id, options));
    services.back()->start();
  }

  for (std::uint64_t q = 1; q <= 6; ++q) {
    auto future =
        services[0]->initiate(descriptor(q, QueryType::Max), fullRing(3));
    ASSERT_EQ(future.wait_for(10s), std::future_status::ready);
    (void)future.get();
  }

  // Only the 4 most recent results are retained; the oldest two were
  // evicted (before the cap a long-running daemon leaked one entry per
  // query forever).
  EXPECT_EQ(services[0]->completedQueries(), 4u);
  EXPECT_EQ(services[0]->resultOf(1), std::nullopt);
  EXPECT_EQ(services[0]->resultOf(2), std::nullopt);
  for (std::uint64_t q = 3; q <= 6; ++q) {
    EXPECT_TRUE(services[0]->resultOf(q).has_value()) << "query " << q;
  }

  for (auto& s : services) s->stop();
  transport.shutdown();
}

}  // namespace
}  // namespace privtopk::query
