// The benchmark's federation: generated rows, the answer oracle, the
// question streams, and a running 9-node NodeService fleet over in-process
// or sealed loopback TCP transports.
//
// Inputs come only from the benchmark seed: the harness generates the rows
// and the descriptors, and the library receives nothing else.  Every
// library option stays at its default, except TcpOptions::encrypt on the
// sealed substrate.

#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "common/types.hpp"
#include "data/database.hpp"
#include "net/inproc.hpp"
#include "net/tcp.hpp"
#include "query/descriptor.hpp"
#include "query/service.hpp"

namespace fedbench {

using privtopk::NodeId;
using privtopk::TopKVector;
using privtopk::Value;
using Clock = std::chrono::steady_clock;

/// Monotonic nanoseconds (steady clock); every span and latency uses it.
[[nodiscard]] inline std::int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

inline constexpr std::size_t kNodes = 9;
inline constexpr std::size_t kRowsPerNode = 2000;
inline constexpr std::size_t kK = 16;
inline constexpr Value kDomainLo = 1;      // paper domain [1, 10000]
inline constexpr Value kDomainHi = 10000;
/// Ring thresholds come from the upper half of the domain.
inline constexpr Value kThresholdLo = kDomainHi / 2 + 1;
inline constexpr const char* kTable = "sales";
inline constexpr const char* kAttribute = "revenue";

/// Revenue values per node, uniform on the paper's domain.
using Rows = std::vector<std::vector<Value>>;
[[nodiscard]] Rows generateRows(std::uint64_t seed);
[[nodiscard]] std::vector<privtopk::data::PrivateDatabase> buildDatabases(
    const Rows& rows);

/// The four question shapes of the ring mix.
enum class Shape : std::uint8_t { Probabilistic, Naive, Segmented, Sum };
[[nodiscard]] const char* toString(Shape shape);

/// One question: a `revenue <= threshold` filter with a shape.  The
/// descriptor's queryId stays 0; whoever initiates assigns the wire id.
struct Question {
  privtopk::query::QueryDescriptor descriptor;
  Shape shape = Shape::Probabilistic;
  Value threshold = kDomainHi;
};
[[nodiscard]] Question makeQuestion(Shape shape, Value threshold,
                                    std::size_t groupSize = 0);

/// Ground truth by plaintext scan.  truth() answers from a sorted copy of
/// every value; scanTruth() evaluates the question's own
/// Filter::predicate() row by row and is the reference truth() is checked
/// against (verifyAgainstScan).
class Oracle {
 public:
  explicit Oracle(const std::vector<privtopk::data::PrivateDatabase>& dbs);

  [[nodiscard]] TopKVector truth(const Question& question) const;
  [[nodiscard]] TopKVector scanTruth(const Question& question) const;
  /// Throws std::runtime_error when truth() and scanTruth() disagree on
  /// any of `questions`.
  void verifyAgainstScan(const std::vector<Question>& questions) const;

  struct Verdict {
    bool ok = false;          ///< exact match, or sound for probabilistic
    bool scored = false;      ///< precision applies (probabilistic)
    double precision = 0.0;   ///< |answer ∩ true top-k| / k
  };
  /// Naive, segmented and Sum answers must equal the truth; probabilistic
  /// answers must be sound: position by position no larger than the true
  /// top-k.
  [[nodiscard]] Verdict check(const Question& question,
                              const TopKVector& answer) const;

 private:
  const std::vector<privtopk::data::PrivateDatabase>* dbs_;
  std::vector<Value> sorted_;               // ascending
  std::vector<std::int64_t> prefixSum_;     // prefixSum_[i] = sum sorted_[0..i)
};

/// Weights of the ring mix, in percent: probabilistic, naive, segmented,
/// Sum.
inline constexpr int kMixPercent[4] = {50, 25, 15, 10};
[[nodiscard]] Shape drawShape(std::mt19937_64& rng);

/// The stream of distinct ring questions: the shape follows the mix and
/// each shape walks its own shuffled permutation of the upper-half
/// thresholds.  A shape reuses a threshold only after all 5000 others,
/// i.e. after more insertions than the gateway cache holds by default, so
/// the stream never hits the cache (the workload self-check verifies it).
class RingQuestions {
 public:
  /// `groupSize` > 0 makes every question a grouped probabilistic top-k.
  RingQuestions(std::uint64_t seed, std::size_t groupSize);
  [[nodiscard]] Question next();

 private:
  std::mutex mutex_;
  std::mt19937_64 rng_;
  std::size_t groupSize_;
  std::vector<Value> permutation_[4];
  std::size_t cursor_[4] = {0, 0, 0, 0};
};

/// Transports the fleet runs on.
enum class Substrate { InProc, SealedTcp };

class TapState;
class TapTransport;

/// Nine NodeServices over one substrate, each node's transport wrapped by
/// a TapTransport.  Construction builds the databases, starts the
/// transports and services; warmUp() then has every node initiate one
/// answered query (for TCP this performs the lazy connects and DH
/// handshakes).  Together they are the benchmark's set-up.
class Fleet {
 public:
  Fleet(const Rows& rows, Substrate substrate, TapState& taps);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  void warmUp();
  /// Waits (bounded) until no service has a query in flight, so counters
  /// read afterwards include every node's share of the finished queries.
  void waitIdle();

  [[nodiscard]] privtopk::query::NodeService& service(NodeId node) {
    return *services_[node];
  }
  /// Ring order starting at `initiator`: initiator, initiator+1, ...
  [[nodiscard]] static std::vector<NodeId> ringFrom(NodeId initiator);
  [[nodiscard]] std::uint64_t nextQueryId() { return nextQueryId_++; }

 private:
  std::vector<privtopk::data::PrivateDatabase> dbs_;
  std::unique_ptr<privtopk::net::InProcTransport> inproc_;
  std::vector<std::unique_ptr<privtopk::net::TcpTransport>> tcp_;
  std::vector<std::unique_ptr<TapTransport>> taps_;
  std::vector<std::unique_ptr<privtopk::query::NodeService>> services_;
  std::atomic<std::uint64_t> nextQueryId_{1};
};

}  // namespace fedbench
