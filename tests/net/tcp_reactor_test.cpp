// Regression tests for the four blocking-transport defects the epoll
// rewrite fixes:
//   1. a transient accept() failure permanently killed the listener,
//   2. dial-side handshake reads had no deadline (a half-open peer hung
//      the sender's link forever),
//   3. the 4-byte hello was trusted without checking the address book,
//   4. every accepted connection leaked a reader thread + fd until
//      shutdown, and envelopes discarded at shutdown left the queue-depth
//      gauge drifting upward.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <dirent.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/logging.hpp"
#include "net/socket_util.hpp"
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

/// Live thread count of this process.
int processThreads() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("Threads:", 0) == 0) return std::stoi(line.substr(8));
  }
  return -1;
}

/// Open file descriptors of this process.
int processFds() {
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) return -1;
  int count = 0;
  while (::readdir(dir) != nullptr) ++count;
  ::closedir(dir);
  return count;
}

/// Raw blocking client socket connected to a local port.
int rawConnect(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Writes one length-prefixed frame on a raw socket.
void rawWriteFrame(int fd, const Bytes& body) {
  std::uint8_t header[4];
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<std::uint8_t>(body.size() >> (8 * i));
  }
  writeAll(fd, header, 4);
  if (!body.empty()) writeAll(fd, body.data(), body.size());
}

// ---------------------------------------------------------------------------
// Orderly close: a peer that shuts down with nothing of ours queued or in
// flight is logged at INFO, not as a link fault.  The link is still
// evicted, so the next send surfaces the failure and the one after redials.
// ---------------------------------------------------------------------------

/// Captures log lines at INFO and above; restores the logger on exit.
class LogCapture {
 public:
  LogCapture() : level_(logLevel()) {
    setLogLevel(LogLevel::Info);
    setLogSink(&lines_);
  }
  ~LogCapture() {
    setLogSink(nullptr);
    setLogLevel(level_);
  }
  LogCapture(const LogCapture&) = delete;
  LogCapture& operator=(const LogCapture&) = delete;

  [[nodiscard]] std::string text() const { return lines_.str(); }

 private:
  LogLevel level_;
  std::ostringstream lines_;
};

TEST(TcpReactor, OrderlyPeerCloseIsNotALinkFault) {
  const auto ports = reservePorts(2);
  const std::vector<TcpPeer> peers = {{0, "127.0.0.1", ports[0]},
                                      {1, "127.0.0.1", ports[1]}};
  LogCapture log;
  TcpTransport a(0, peers);
  auto b = std::make_unique<TcpTransport>(1, peers);
  a.send(0, 1, bytesOf("before"));
  ASSERT_TRUE(b->receive(1, 2000ms).has_value());

  b->shutdown();
  const auto deadline = std::chrono::steady_clock::now() + 5s;
  while (a.linksEvicted() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(5ms);
  }
  ASSERT_EQ(a.linksEvicted(), 1u);
  const std::string text = log.text();
  EXPECT_EQ(text.find("[WARN"), std::string::npos) << text;
  EXPECT_NE(text.find("tcp link to 1 closed by the peer"), std::string::npos)
      << text;

  EXPECT_THROW(a.send(0, 1, bytesOf("lost")), TransportError);
  TcpTransport b2(1, peers);
  a.send(0, 1, bytesOf("after"));
  const auto got = b2.receive(1, 2000ms);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->payload, bytesOf("after"));

  a.shutdown();
  b2.shutdown();
}

// ---------------------------------------------------------------------------
// Inline-write fast path: serial sends on an idle plaintext link go out
// from the caller thread (no reactor round trip) and are counted in
// privtopk.transport.inline_writes.  Delivery order and content must be
// unchanged.
// ---------------------------------------------------------------------------

TEST(TcpReactor, SerialSendsTakeTheInlineFastPath) {
  const auto ports = reservePorts(2);
  const std::vector<TcpPeer> peers = {{0, "127.0.0.1", ports[0]},
                                      {1, "127.0.0.1", ports[1]}};
  TcpTransport a(0, peers);
  TcpTransport b(1, peers);

  auto& inlineMetric = obs::counter("privtopk.transport.inline_writes",
                                    {{"transport", "tcp"}});
  const std::uint64_t before = inlineMetric.value();

  // Serial request/response style traffic: every send after the first
  // finds the link established and fully drained, so the fast path must
  // engage for most of them.
  constexpr int kMessages = 50;
  for (int i = 0; i < kMessages; ++i) {
    a.send(0, 1, bytesOf("ping-" + std::to_string(i)));
    const auto got = b.receive(1, 2000ms);
    ASSERT_TRUE(got.has_value()) << "message " << i << " lost";
    EXPECT_EQ(got->payload, bytesOf("ping-" + std::to_string(i)));
  }

  // The first send dials (queued); once drained, subsequent serial sends
  // find the wire idle.  Allow slack for scheduling, but the bulk must
  // have been inlined.
  EXPECT_GE(inlineMetric.value() - before, kMessages / 2);

  a.shutdown();
  b.shutdown();
}

TEST(TcpReactor, InlineFastPathSkipsEncryptedLinks) {
  const auto ports = reservePorts(2);
  const std::vector<TcpPeer> peers = {{0, "127.0.0.1", ports[0]},
                                      {1, "127.0.0.1", ports[1]}};
  TcpOptions options;
  options.encrypt = true;
  options.keySeed = 7;
  TcpTransport a(0, peers, options);
  TcpTransport b(1, peers, options);

  auto& inlineMetric = obs::counter("privtopk.transport.inline_writes",
                                    {{"transport", "tcp"}});
  const std::uint64_t before = inlineMetric.value();

  for (int i = 0; i < 10; ++i) {
    a.send(0, 1, bytesOf("sealed-" + std::to_string(i)));
    const auto got = b.receive(1, 2000ms);
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->payload, bytesOf("sealed-" + std::to_string(i)));
  }
  EXPECT_EQ(inlineMetric.value(), before)
      << "sealing is reactor-thread state; encrypted sends must queue";

  a.shutdown();
  b.shutdown();
}

// ---------------------------------------------------------------------------
// Defect 1: accept() failures must not kill the listener.
// ---------------------------------------------------------------------------

TEST(TcpReactor, ListenerSurvivesAcceptFailures) {
  const auto ports = reservePorts(2);
  const std::vector<TcpPeer> peers = {{0, "127.0.0.1", ports[0]},
                                      {1, "127.0.0.1", ports[1]}};
  TcpOptions senderOptions;
  senderOptions.connectTimeout = 2000ms;
  TcpOptions receiverOptions = senderOptions;
  // The receiver's listener fails the first three accepted connections as
  // if accept() had returned an error.  The old listenLoop returned on
  // the first non-EINTR errno, deafening the node forever.
  receiverOptions.testInjectAcceptErrors = 3;
  TcpTransport a(0, peers, senderOptions);
  TcpTransport b(1, peers, receiverOptions);

  // Each failed accept tears down the dialer's fresh connection, so the
  // sender surfaces the failure and redials until the listener recovers.
  std::optional<Envelope> env;
  for (int i = 0; i < 100 && !env; ++i) {
    try {
      a.send(0, 1, bytesOf("retry" + std::to_string(i)));
    } catch (const TransportError&) {
      // Latched link failure; the next send dials fresh.
    }
    env = b.receive(1, 100ms);
  }
  ASSERT_TRUE(env);
  EXPECT_GE(b.acceptRetries(), 3u);

  // The listener is fully healthy afterwards.
  a.send(0, 1, bytesOf("steady"));
  EXPECT_TRUE(b.receive(1, 5000ms));

  a.shutdown();
  b.shutdown();
}

// ---------------------------------------------------------------------------
// Defect 2: connectTimeout must bound the handshake, not just connect().
// ---------------------------------------------------------------------------

TEST(TcpReactor, HalfOpenPeerFailsAtHandshakeDeadline) {
  // A listener that accepts (via the kernel backlog) but never answers
  // the DH handshake.  Before the deadline fix the dialer blocked forever
  // inside the handshake read.
  std::uint16_t halfOpenPort = 0;
  const int halfOpenFd = makeListener(0, halfOpenPort);

  const auto ports = reservePorts(1);
  const std::vector<TcpPeer> peers = {{0, "127.0.0.1", ports[0]},
                                      {1, "127.0.0.1", halfOpenPort}};
  TcpOptions options;
  options.encrypt = true;
  options.connectTimeout = 300ms;
  TcpTransport a(0, peers, options);

  const auto start = std::chrono::steady_clock::now();
  a.send(0, 1, bytesOf("hello?"));  // returns immediately; dial is async

  // The deadline fires on the reactor and the next send surfaces it.
  bool surfaced = false;
  std::string reason;
  for (int i = 0; i < 100 && !surfaced; ++i) {
    std::this_thread::sleep_for(25ms);
    try {
      a.send(0, 1, bytesOf("probe"));
    } catch (const TransportError& e) {
      surfaced = true;
      reason = e.what();
    }
  }
  const auto elapsed = std::chrono::steady_clock::now() - start;
  EXPECT_TRUE(surfaced);
  EXPECT_NE(reason.find("timed out"), std::string::npos) << reason;
  EXPECT_LT(elapsed, 3s);  // bounded by the deadline, not a blocked read

  a.shutdown();
  ::close(halfOpenFd);
}

// ---------------------------------------------------------------------------
// Defect 3: inbound hellos must be validated against the address book.
// ---------------------------------------------------------------------------

TEST(TcpReactor, SpoofedHelloIsRejected) {
  const auto ports = reservePorts(1);
  TcpTransport b(0, {{0, "127.0.0.1", ports[0]}});
  auto& rejectedMetric = obs::counter("privtopk.transport.handshake_rejected",
                                      {{"transport", "tcp"}});
  const std::uint64_t metricBefore = rejectedMetric.value();

  const int fd = rawConnect(b.listenPort());
  ASSERT_GE(fd, 0);
  // Hello claiming NodeId 77, which is not in b's address book, followed
  // by a payload frame that must never reach the inbox.
  rawWriteFrame(fd, Bytes{77, 0, 0, 0});
  rawWriteFrame(fd, bytesOf("forged payload"));

  // The transport closes the connection (RST, not FIN, when our second
  // frame is still unread in its receive buffer)...
  std::uint8_t byte = 0;
  const ssize_t n = ::recv(fd, &byte, 1, 0);
  EXPECT_TRUE(n == 0 || (n < 0 && errno == ECONNRESET)) << n;
  // ...delivers nothing, and counts the rejection.
  EXPECT_EQ(b.receive(0, 100ms), std::nullopt);
  EXPECT_GE(b.handshakeRejected(), 1u);
  EXPECT_GE(rejectedMetric.value(), metricBefore + 1);

  ::close(fd);
  b.shutdown();
}

TEST(TcpReactor, MalformedHelloIsRejected) {
  const auto ports = reservePorts(1);
  TcpTransport b(0, {{0, "127.0.0.1", ports[0]}});

  const int fd = rawConnect(b.listenPort());
  ASSERT_GE(fd, 0);
  rawWriteFrame(fd, bytesOf("definitely not a 4-byte node id"));

  std::uint8_t byte = 0;
  EXPECT_EQ(::recv(fd, &byte, 1, 0), 0);
  EXPECT_GE(b.handshakeRejected(), 1u);

  ::close(fd);
  b.shutdown();
}

// ---------------------------------------------------------------------------
// Defect 4: connection churn must not accumulate threads or fds, and
// shutdown must hand undelivered envelopes back to the queue gauge.
// ---------------------------------------------------------------------------

TEST(TcpReactor, ConnectionChurnKeepsThreadsAndFdsBounded) {
  const auto ports = reservePorts(2);
  const std::vector<TcpPeer> peers = {{0, "127.0.0.1", ports[0]},
                                      {1, "127.0.0.1", ports[1]}};
  TcpOptions options;
  options.connectTimeout = 2000ms;
  TcpTransport b(1, peers, options);

  const int threadsBefore = processThreads();
  const int fdsBefore = processFds();
  ASSERT_GT(threadsBefore, 0);
  ASSERT_GT(fdsBefore, 0);

  // 25 dialer generations, each accepted by b.  The old transport kept
  // one reader thread and one fd per accepted connection until its own
  // shutdown, so b's footprint grew linearly with churn.
  for (int round = 0; round < 25; ++round) {
    TcpTransport a(0, peers, options);
    std::optional<Envelope> env;
    for (int i = 0; i < 50 && !env; ++i) {
      try {
        a.send(0, 1, bytesOf("round" + std::to_string(round)));
      } catch (const TransportError&) {
      }
      env = b.receive(1, 100ms);
    }
    ASSERT_TRUE(env) << "round " << round;
    a.shutdown();
  }

  // Give b's reactor a beat to observe the last EOF and drop the conn.
  std::this_thread::sleep_for(100ms);
  const int threadsAfter = processThreads();
  const int fdsAfter = processFds();
  // O(1): independent of the 25 generations (slack for unrelated noise).
  EXPECT_LE(threadsAfter, threadsBefore + 2);
  EXPECT_LE(fdsAfter, fdsBefore + 4);

  b.shutdown();
}

TEST(TcpReactor, ShutdownDrainsQueueDepthGauge) {
  auto& gauge =
      obs::gauge("privtopk.transport.queue_depth", {{"transport", "tcp"}});
  const auto ports = reservePorts(2);
  const std::vector<TcpPeer> peers = {{0, "127.0.0.1", ports[0]},
                                      {1, "127.0.0.1", ports[1]}};
  TcpTransport a(0, peers);
  TcpTransport b(1, peers);

  const std::int64_t before = gauge.value();
  for (int i = 0; i < 8; ++i) a.send(0, 1, bytesOf("undelivered"));
  // Wait until all eight are sitting in b's inbox (gauge level +8).
  for (int i = 0; i < 100 && gauge.value() < before + 8; ++i) {
    std::this_thread::sleep_for(10ms);
  }
  ASSERT_EQ(gauge.value(), before + 8);

  // Nothing is ever received: shutdown discards the envelopes and must
  // give their gauge contribution back (the old transport leaked it).
  b.shutdown();
  EXPECT_EQ(gauge.value(), before);
  a.shutdown();
}

}  // namespace
}  // namespace privtopk::net
