// Transport conformance suite: the behavioural contract NodeService
// depends on, run against both base transports (in-process mailboxes and
// the epoll TCP reactor) AND the decorators (fault injection, WAN shaping)
// so the fast tests, the socket tests and the wrappers cannot drift apart:
//   - per-link FIFO ordering under load,
//   - saturation surfaces OverloadError (backpressure) and the link
//     recovers once drained,
//   - shutdown concurrent with a sending thread is clean (no hang, no
//     crash; post-shutdown sends throw TransportError).

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/fault.hpp"
#include "net/inproc.hpp"
#include "net/shaping.hpp"
#include "net/tcp.hpp"
#include "obs/metrics.hpp"

namespace privtopk::net {
namespace {

using namespace std::chrono_literals;

Bytes bytesOf(const std::string& s) { return Bytes(s.begin(), s.end()); }

/// Reserves `count` distinct free localhost ports (see transport_test.cpp).
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

class TransportConformance : public ::testing::TestWithParam<const char*> {
 protected:
  [[nodiscard]] std::string variant() const { return GetParam(); }
  [[nodiscard]] bool usesTcp() const {
    return variant() == "tcp" || variant() == "shaping_tcp";
  }

  /// Builds a two-node deployment.  `saturable` configures bounds tight
  /// enough that a burst of large sends hits backpressure: a tiny mailbox
  /// for inproc, a short write queue over a tiny socket buffer for TCP, a
  /// short delivery queue for the shaping decorator.
  void makePair(bool saturable = false) {
    if (usesTcp()) {
      const auto ports = reservePorts(2);
      peers_ = {{0, "127.0.0.1", ports[0]}, {1, "127.0.0.1", ports[1]}};
      TcpOptions options;
      options.connectTimeout = 2000ms;
      if (saturable) {
        options.maxQueuedFramesPerPeer = 4;
        options.sendBufferBytes = 4096;
      }
      tcp0_ = std::make_unique<TcpTransport>(0, peers_, options);
      tcp1_ = std::make_unique<TcpTransport>(1, peers_, options);
    } else {
      inproc_ = std::make_unique<InProcTransport>(2, saturable ? 4 : 0);
    }
    // Jitter larger than the inter-send gap so shaping would scramble the
    // order without its FIFO clamp.
    const std::string shape =
        saturable ? "lat:*:1~0.5,queue:4" : "lat:*:1~2,seed:5";
    if (variant() == "fault") {
      fault0_ = std::make_unique<FaultInjectingTransport>(*inproc_,
                                                          FaultSpec{});
    } else if (variant() == "shaping") {
      shape0_ =
          std::make_unique<ShapingTransport>(*inproc_, ShapingSpec::parse(shape));
    } else if (variant() == "shaping_tcp") {
      // One wrapper per node around a shared state, the TCP fleet shape.
      auto state = std::make_shared<ShapingState>(ShapingSpec::parse(shape));
      shape0_ = std::make_unique<ShapingTransport>(*tcp0_, state);
      shape1_ = std::make_unique<ShapingTransport>(*tcp1_, state);
    }
  }

  Transport& node0() {
    if (shape0_) return *shape0_;
    if (fault0_) return *fault0_;
    return inproc_ ? static_cast<Transport&>(*inproc_)
                   : static_cast<Transport&>(*tcp0_);
  }
  Transport& node1() {
    if (shape1_) return *shape1_;
    if (shape0_) return *shape0_;  // in-proc fleets share one wrapper
    if (fault0_) return *fault0_;
    return inproc_ ? static_cast<Transport&>(*inproc_)
                   : static_cast<Transport&>(*tcp1_);
  }

  void shutdownAll() {
    if (fault0_) fault0_->shutdown();
    if (shape0_) shape0_->shutdown();
    if (shape1_) shape1_->shutdown();
    if (inproc_) inproc_->shutdown();
    if (tcp0_) tcp0_->shutdown();
    if (tcp1_) tcp1_->shutdown();
  }

  void TearDown() override { shutdownAll(); }

  std::vector<TcpPeer> peers_;
  // Inners declared before decorators: the decorators' delivery threads
  // reference the inners, so they must be destroyed first (reverse order).
  std::unique_ptr<InProcTransport> inproc_;
  std::unique_ptr<TcpTransport> tcp0_, tcp1_;
  std::unique_ptr<FaultInjectingTransport> fault0_;
  std::unique_ptr<ShapingTransport> shape0_, shape1_;
};

TEST_P(TransportConformance, PerLinkOrderingUnderLoad) {
  makePair();
  constexpr int kMessages = 300;
  for (int i = 0; i < kMessages; ++i) {
    node0().send(0, 1, bytesOf("msg" + std::to_string(i)));
  }
  for (int i = 0; i < kMessages; ++i) {
    const auto env = node1().receive(1, 5000ms);
    ASSERT_TRUE(env) << "message " << i << " never arrived";
    EXPECT_EQ(env->payload, bytesOf("msg" + std::to_string(i)));
    EXPECT_EQ(env->from, 0u);
  }
}

TEST_P(TransportConformance, SaturationSurfacesOverloadAndRecovers) {
  makePair(/*saturable=*/true);
  // Large frames so the TCP reactor cannot outrun the sender through the
  // shrunken socket buffer; small enough that inproc copies stay cheap.
  const Bytes big(256 * 1024, 0xAB);
  auto& inprocRejected = obs::counter("privtopk.transport.overload_rejected",
                                      {{"transport", "inproc"}});
  const std::uint64_t rejectedBefore = inprocRejected.value();

  bool overloaded = false;
  int accepted = 0;
  for (int i = 0; i < 200 && !overloaded; ++i) {
    try {
      node0().send(0, 1, big);
      ++accepted;
    } catch (const OverloadError&) {
      overloaded = true;
    }
  }
  EXPECT_TRUE(overloaded) << "no backpressure after 200 sends";
  if (variant() == "inproc") {
    // The full mailbox is counted where it rejects, like TCP's write queue.
    EXPECT_GT(inprocRejected.value(), rejectedBefore);
  }

  // Backpressure is not link death: draining the receiver unsticks the
  // link and later sends succeed.
  for (int i = 0; i < accepted; ++i) {
    ASSERT_TRUE(node1().receive(1, 5000ms)) << "drain " << i;
  }
  bool recovered = false;
  for (int i = 0; i < 100 && !recovered; ++i) {
    try {
      node0().send(0, 1, bytesOf("after the storm"));
      recovered = true;
    } catch (const OverloadError&) {
      std::this_thread::sleep_for(10ms);  // queue still draining
    }
  }
  ASSERT_TRUE(recovered);
  const auto env = node1().receive(1, 5000ms);
  ASSERT_TRUE(env);
  EXPECT_EQ(env->payload, bytesOf("after the storm"));
}

TEST_P(TransportConformance, ShutdownMidSendIsClean) {
  makePair();
  std::atomic<bool> stop{false};
  std::thread sender([&] {
    const Bytes payload(1024, 0x5A);
    while (!stop.load()) {
      try {
        node0().send(0, 1, payload);
      } catch (const Error&) {
        // TransportError after shutdown / OverloadError under burst: both
        // acceptable; the thread must simply keep running.
      }
    }
  });
  std::this_thread::sleep_for(50ms);
  shutdownAll();  // concurrent with the sender thread
  stop = true;
  sender.join();

  EXPECT_THROW(node0().send(0, 1, bytesOf("late")), TransportError);
  EXPECT_EQ(node1().receive(1, 10ms), std::nullopt);
}

INSTANTIATE_TEST_SUITE_P(Transports, TransportConformance,
                         ::testing::Values("inproc", "tcp", "fault",
                                           "shaping", "shaping_tcp"),
                         [](const auto& info) {
                           return std::string(info.param);
                         });

}  // namespace
}  // namespace privtopk::net
