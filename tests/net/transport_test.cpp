#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"

namespace privtopk::net {
namespace {

using namespace std::chrono_literals;

Bytes bytesOf(const std::string& s) { return Bytes(s.begin(), s.end()); }

// ---------------------------------------------------------------------------
// InProcTransport
// ---------------------------------------------------------------------------

TEST(InProcTransport, DeliversInOrder) {
  InProcTransport t(3);
  t.send(0, 1, bytesOf("first"));
  t.send(0, 1, bytesOf("second"));
  const auto m1 = t.receive(1, 100ms);
  const auto m2 = t.receive(1, 100ms);
  ASSERT_TRUE(m1 && m2);
  EXPECT_EQ(m1->payload, bytesOf("first"));
  EXPECT_EQ(m2->payload, bytesOf("second"));
  EXPECT_EQ(m1->from, 0u);
  EXPECT_EQ(m1->to, 1u);
}

TEST(InProcTransport, TimeoutReturnsNullopt) {
  auto& timeouts = obs::counter("privtopk.transport.receive_timeouts",
                                {{"transport", "inproc"}});
  InProcTransport t(2);
  const std::uint64_t before = timeouts.value();
  const auto start = std::chrono::steady_clock::now();
  EXPECT_EQ(t.receive(0, 30ms), std::nullopt);
  EXPECT_GE(std::chrono::steady_clock::now() - start, 25ms);
  EXPECT_EQ(timeouts.value(), before + 1);
}

TEST(InProcTransport, SeparateMailboxes) {
  InProcTransport t(3);
  t.send(0, 1, bytesOf("for one"));
  t.send(0, 2, bytesOf("for two"));
  EXPECT_EQ(t.receive(2, 100ms)->payload, bytesOf("for two"));
  EXPECT_EQ(t.receive(1, 100ms)->payload, bytesOf("for one"));
}

TEST(InProcTransport, UnknownDestinationThrows) {
  InProcTransport t(2);
  EXPECT_THROW(t.send(0, 9, bytesOf("x")), TransportError);
  EXPECT_THROW((void)t.receive(9, 1ms), TransportError);
}

TEST(InProcTransport, CrossThreadDelivery) {
  InProcTransport t(2);
  std::thread producer([&] {
    for (int i = 0; i < 100; ++i) {
      t.send(0, 1, bytesOf("msg" + std::to_string(i)));
    }
  });
  int received = 0;
  while (received < 100) {
    if (t.receive(1, 1000ms)) ++received;
  }
  producer.join();
  EXPECT_EQ(received, 100);
}

// Receivers blocked on every mailbox wake at shutdown, long before their
// deadline, and a shutdown wakeup is not counted as a receive timeout.
TEST(InProcTransport, ShutdownWakesReceivers) {
  constexpr std::size_t kNodes = 9;
  auto& timeouts = obs::counter("privtopk.transport.receive_timeouts",
                                {{"transport", "inproc"}});
  InProcTransport t(kNodes);
  std::atomic<int> woke{0};
  std::vector<std::thread> blocked;
  for (NodeId n = 0; n < kNodes; ++n) {
    blocked.emplace_back([&, n] {
      if (!t.receive(n, 10s)) woke.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(50ms);
  const std::uint64_t timeoutsBefore = timeouts.value();
  const auto start = std::chrono::steady_clock::now();
  t.shutdown();
  for (auto& th : blocked) th.join();
  EXPECT_EQ(woke.load(), static_cast<int>(kNodes));
  EXPECT_LT(std::chrono::steady_clock::now() - start, 5s);
  EXPECT_EQ(timeouts.value(), timeoutsBefore);
  EXPECT_THROW(t.send(0, 1, bytesOf("x")), TransportError);
}

TEST(InProcTransport, CountsMessagesAndBytes) {
  InProcTransport t(2);
  t.send(0, 1, bytesOf("12345"));
  t.send(1, 0, bytesOf("123"));
  EXPECT_EQ(t.messagesSent(), 2u);
  EXPECT_EQ(t.bytesSent(), 8u);
}

// Every node sends to every node (itself included) while every node
// receives: per-link FIFO, exact totals, and the shared queue-depth gauge
// back at its starting level once the mailboxes are drained.
TEST(InProcTransport, ConcurrentSendersAndReceiversOnEveryMailbox) {
  constexpr std::size_t kNodes = 9;
  constexpr int kPerLink = 200;
  auto& depth = obs::gauge("privtopk.transport.queue_depth",
                           {{"transport", "inproc"}});
  const std::int64_t depthBefore = depth.value();
  InProcTransport t(kNodes);

  std::atomic<std::size_t> bytesOffered{0};
  std::vector<std::thread> threads;
  for (std::size_t s = 0; s < kNodes; ++s) {
    threads.emplace_back([&, s] {
      for (int seq = 0; seq < kPerLink; ++seq) {
        for (std::size_t d = 0; d < kNodes; ++d) {
          const Bytes payload = bytesOf(std::to_string(seq));
          t.send(static_cast<NodeId>(s), static_cast<NodeId>(d), payload);
          bytesOffered.fetch_add(payload.size());
        }
      }
    });
  }
  // next[d][s]: the sequence number node d expects next from node s.
  std::vector<std::vector<int>> next(kNodes, std::vector<int>(kNodes, 0));
  std::vector<int> outOfOrder(kNodes, 0);
  for (std::size_t d = 0; d < kNodes; ++d) {
    threads.emplace_back([&, d] {
      for (std::size_t n = 0; n < kNodes * kPerLink; ++n) {
        const auto env = t.receive(static_cast<NodeId>(d), 5000ms);
        if (!env) return;  // the count check below reports the shortfall
        const std::string body(env->payload.begin(), env->payload.end());
        if (env->to != d || body != std::to_string(next[d][env->from]++)) {
          ++outOfOrder[d];
        }
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t d = 0; d < kNodes; ++d) {
    EXPECT_EQ(outOfOrder[d], 0) << "node " << d;
    for (std::size_t s = 0; s < kNodes; ++s) {
      EXPECT_EQ(next[d][s], kPerLink) << "link " << s << "->" << d;
    }
  }
  EXPECT_EQ(t.messagesSent(), kNodes * kNodes * kPerLink);
  EXPECT_EQ(t.bytesSent(), bytesOffered.load());
  EXPECT_EQ(depth.value(), depthBefore);
}

// A receiver on an empty mailbox keeps its own deadline while the other
// eight mailboxes are flooded and drained.  The flood is bounded by the
// mailbox cap so a slow drain cannot grow the queues without limit.
TEST(InProcTransport, IdleReceiverTimesOutWhileOthersAreFlooded) {
  constexpr std::size_t kNodes = 9;
  InProcTransport t(kNodes, /*maxQueueDepth=*/256);
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (NodeId d = 1; d < kNodes; ++d) {
    threads.emplace_back([&, d] {
      const Bytes payload = bytesOf("flood");
      while (!stop.load()) {
        try {
          t.send(0, d, payload);
        } catch (const OverloadError&) {
          std::this_thread::yield();
        }
      }
    });
    threads.emplace_back([&, d] {
      while (!stop.load()) (void)t.receive(d, 10ms);
    });
  }

  const auto start = std::chrono::steady_clock::now();
  const auto env = t.receive(0, 100ms);
  const auto waited = std::chrono::steady_clock::now() - start;
  stop = true;
  for (auto& th : threads) th.join();

  EXPECT_EQ(env, std::nullopt);
  EXPECT_GE(waited, 95ms);
  EXPECT_LT(waited, 5s);
  EXPECT_GT(t.messagesSent(), 0u);
}

// ---------------------------------------------------------------------------
// TcpTransport
// ---------------------------------------------------------------------------

/// Reserves `count` distinct free localhost ports by holding ephemeral
/// listeners open simultaneously, then releasing them.  SO_REUSEADDR lets
/// the real transports rebind immediately.
std::vector<std::uint16_t> reservePorts(std::size_t count) {
  std::vector<std::unique_ptr<TcpTransport>> probes;
  std::vector<std::uint16_t> ports;
  for (std::size_t i = 0; i < count; ++i) {
    probes.push_back(std::make_unique<TcpTransport>(
        0, std::vector<TcpPeer>{{0, "127.0.0.1", 0}}));
    ports.push_back(probes.back()->listenPort());
  }
  for (auto& p : probes) p->shutdown();
  return ports;
}

struct TcpPair {
  std::unique_ptr<TcpTransport> a;
  std::unique_ptr<TcpTransport> b;
};

TcpPair makeTcpPair(TcpOptions options = {}) {
  const auto ports = reservePorts(2);
  const std::vector<TcpPeer> peers = {{0, "127.0.0.1", ports[0]},
                                      {1, "127.0.0.1", ports[1]}};
  return TcpPair{std::make_unique<TcpTransport>(0, peers, options),
                 std::make_unique<TcpTransport>(1, peers, options)};
}

TEST(TcpTransport, PlaintextDelivery) {
  auto pair = makeTcpPair();
  pair.a->send(0, 1, bytesOf("hello over tcp"));
  const auto env = pair.b->receive(1, 5000ms);
  ASSERT_TRUE(env);
  EXPECT_EQ(env->payload, bytesOf("hello over tcp"));
  EXPECT_EQ(env->from, 0u);
}

TEST(TcpTransport, ManyMessagesOrdered) {
  auto pair = makeTcpPair();
  for (int i = 0; i < 200; ++i) {
    pair.a->send(0, 1, bytesOf("m" + std::to_string(i)));
  }
  for (int i = 0; i < 200; ++i) {
    const auto env = pair.b->receive(1, 5000ms);
    ASSERT_TRUE(env) << "message " << i;
    EXPECT_EQ(env->payload, bytesOf("m" + std::to_string(i)));
  }
}

TEST(TcpTransport, LargePayload) {
  auto pair = makeTcpPair();
  Bytes big(1 << 20);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 31);
  }
  pair.a->send(0, 1, big);
  const auto env = pair.b->receive(1, 5000ms);
  ASSERT_TRUE(env);
  EXPECT_EQ(env->payload, big);
}

TEST(TcpTransport, EncryptedDelivery) {
  TcpOptions options;
  options.encrypt = true;
  options.keySeed = 1234;
  auto pair = makeTcpPair(options);
  pair.a->send(0, 1, bytesOf("secret token"));
  const auto env = pair.b->receive(1, 5000ms);
  ASSERT_TRUE(env);
  EXPECT_EQ(env->payload, bytesOf("secret token"));
  // And several follow-ups on the same session.
  for (int i = 0; i < 10; ++i) {
    pair.a->send(0, 1, bytesOf("n" + std::to_string(i)));
    const auto e = pair.b->receive(1, 5000ms);
    ASSERT_TRUE(e);
    EXPECT_EQ(e->payload, bytesOf("n" + std::to_string(i)));
  }
}

TEST(TcpTransport, BidirectionalTraffic) {
  auto pair = makeTcpPair();
  pair.a->send(0, 1, bytesOf("ping"));
  ASSERT_TRUE(pair.b->receive(1, 5000ms));
  pair.b->send(1, 0, bytesOf("pong"));
  const auto env = pair.a->receive(0, 5000ms);
  ASSERT_TRUE(env);
  EXPECT_EQ(env->payload, bytesOf("pong"));
}

TEST(TcpTransport, SendAsOtherNodeRejected) {
  auto pair = makeTcpPair();
  EXPECT_THROW(pair.a->send(1, 0, bytesOf("spoof")), TransportError);
  EXPECT_THROW((void)pair.a->receive(1, 1ms), TransportError);
}

TEST(TcpTransport, UnknownPeerRejected) {
  auto pair = makeTcpPair();
  EXPECT_THROW(pair.a->send(0, 7, bytesOf("x")), TransportError);
}

TEST(TcpTransport, TrafficCounters) {
  auto pair = makeTcpPair();
  pair.a->send(0, 1, bytesOf("12345"));
  pair.a->send(0, 1, bytesOf("123"));
  ASSERT_TRUE(pair.b->receive(1, 5000ms));
  ASSERT_TRUE(pair.b->receive(1, 5000ms));
  EXPECT_EQ(pair.a->messagesSent(), 2u);
  EXPECT_EQ(pair.a->bytesSent(), 8u);
  EXPECT_EQ(pair.b->messagesReceived(), 2u);
  EXPECT_EQ(pair.b->bytesReceived(), 8u);
  EXPECT_EQ(pair.a->messagesReceived(), 0u);
}

TEST(TcpTransport, ShutdownIsIdempotent) {
  auto pair = makeTcpPair();
  pair.a->shutdown();
  pair.a->shutdown();
  EXPECT_THROW(pair.a->send(0, 1, bytesOf("x")), TransportError);
}

}  // namespace
}  // namespace privtopk::net
