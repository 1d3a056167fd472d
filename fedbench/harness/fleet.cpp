#include "fleet.hpp"

#include <algorithm>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "data/table.hpp"
#include "tracing.hpp"

namespace fedbench {

namespace pq = privtopk::query;
namespace pd = privtopk::data;

Rows generateRows(std::uint64_t seed) {
  std::mt19937_64 rng(seed ^ 0x726f7773ULL);
  std::uniform_int_distribution<Value> value(kDomainLo, kDomainHi);
  Rows rows(kNodes);
  for (auto& node : rows) {
    node.resize(kRowsPerNode);
    for (Value& v : node) v = value(rng);
  }
  return rows;
}

std::vector<pd::PrivateDatabase> buildDatabases(const Rows& rows) {
  std::vector<pd::PrivateDatabase> dbs;
  dbs.reserve(rows.size());
  for (std::size_t n = 0; n < rows.size(); ++n) {
    pd::Table table(pd::Schema({{kAttribute, pd::ColumnType::Int}}));
    for (const Value v : rows[n]) table.appendRow({v});
    dbs.emplace_back("node" + std::to_string(n));
    dbs.back().addTable(kTable, std::move(table));
  }
  return dbs;
}

const char* toString(Shape shape) {
  switch (shape) {
    case Shape::Probabilistic: return "probabilistic";
    case Shape::Naive: return "naive";
    case Shape::Segmented: return "segmented";
    case Shape::Sum: return "sum";
  }
  return "?";
}

Question makeQuestion(Shape shape, Value threshold, std::size_t groupSize) {
  Question q;
  q.shape = shape;
  q.threshold = threshold;
  pq::QueryDescriptor& d = q.descriptor;
  d.tableName = kTable;
  d.attribute = kAttribute;
  d.params.k = kK;
  d.filter = pq::Filter({{kAttribute, pq::FilterOp::Le, threshold}});
  switch (shape) {
    case Shape::Probabilistic:
      d.kind = privtopk::protocol::ProtocolKind::Probabilistic;
      d.groupSize = groupSize;
      break;
    case Shape::Naive:
      d.kind = privtopk::protocol::ProtocolKind::Naive;
      break;
    case Shape::Segmented:
      d.kind = privtopk::protocol::ProtocolKind::Probabilistic;
      d.params.mechanism.kind = privtopk::protocol::MechanismKind::Segmented;
      d.params.mechanism.segments = 4;
      break;
    case Shape::Sum:
      d.type = pq::QueryType::Sum;
      break;
  }
  d.validate();
  return q;
}

Oracle::Oracle(const std::vector<pd::PrivateDatabase>& dbs) : dbs_(&dbs) {
  for (const auto& db : dbs) {
    const auto& column = db.table(kTable).intColumn(kAttribute);
    sorted_.insert(sorted_.end(), column.begin(), column.end());
  }
  std::sort(sorted_.begin(), sorted_.end());
  prefixSum_.assign(sorted_.size() + 1, 0);
  for (std::size_t i = 0; i < sorted_.size(); ++i) {
    prefixSum_[i + 1] = prefixSum_[i] + sorted_[i];
  }
}

TopKVector Oracle::truth(const Question& question) const {
  const auto end = static_cast<std::size_t>(
      std::upper_bound(sorted_.begin(), sorted_.end(), question.threshold) -
      sorted_.begin());
  if (question.shape == Shape::Sum) return {prefixSum_[end]};
  TopKVector top;
  for (std::size_t i = end; i > 0 && top.size() < kK; --i) {
    top.push_back(sorted_[i - 1]);
  }
  return top;
}

TopKVector Oracle::scanTruth(const Question& question) const {
  const auto predicate = question.descriptor.filter.predicate();
  std::vector<Value> selected;
  for (const auto& db : *dbs_) {
    const pd::Table& table = db.table(kTable);
    const auto& column = table.intColumn(kAttribute);
    for (std::size_t row = 0; row < table.rowCount(); ++row) {
      if (predicate(table, row)) selected.push_back(column[row]);
    }
  }
  if (question.shape == Shape::Sum) {
    return {std::accumulate(selected.begin(), selected.end(), Value{0})};
  }
  std::sort(selected.begin(), selected.end(), std::greater<>());
  if (selected.size() > kK) selected.resize(kK);
  return selected;
}

void Oracle::verifyAgainstScan(const std::vector<Question>& questions) const {
  for (const Question& q : questions) {
    if (truth(q) != scanTruth(q)) {
      throw std::runtime_error("oracle disagrees with the predicate scan for " +
                               std::string(toString(q.shape)) + " t=" +
                               std::to_string(q.threshold));
    }
  }
}

Oracle::Verdict Oracle::check(const Question& question,
                              const TopKVector& answer) const {
  Verdict verdict;
  const TopKVector expected = truth(question);
  if (question.shape != Shape::Probabilistic) {
    verdict.ok = answer == expected;
    return verdict;
  }
  // Soundness as the protocol defines it (docs/PROTOCOL.md): a randomized
  // value is drawn strictly below the current true k-th value, so the
  // sorted answer never exceeds the true top-k position by position.  A
  // random value left in the final vector (probability <= epsilon) is
  // sound but imprecise, and shows in the precision.
  verdict.scored = true;
  TopKVector sorted = answer;
  std::sort(sorted.begin(), sorted.end(), std::greater<>());
  verdict.ok = sorted.size() <= expected.size();
  for (std::size_t i = 0; verdict.ok && i < sorted.size(); ++i) {
    verdict.ok = sorted[i] <= expected[i];
  }
  verdict.precision =
      static_cast<double>(privtopk::multisetIntersectionSize(answer, expected)) /
      static_cast<double>(kK);
  return verdict;
}

Shape drawShape(std::mt19937_64& rng) {
  int u = std::uniform_int_distribution<int>(0, 99)(rng);
  for (int s = 0; s < 4; ++s) {
    if (u < kMixPercent[s]) return static_cast<Shape>(s);
    u -= kMixPercent[s];
  }
  return Shape::Sum;
}

RingQuestions::RingQuestions(std::uint64_t seed, std::size_t groupSize)
    : rng_(seed ^ 0x71756573ULL), groupSize_(groupSize) {
  for (auto& permutation : permutation_) {
    permutation.resize(static_cast<std::size_t>(kDomainHi - kThresholdLo + 1));
    std::iota(permutation.begin(), permutation.end(), kThresholdLo);
    std::shuffle(permutation.begin(), permutation.end(), rng_);
  }
}

Question RingQuestions::next() {
  std::scoped_lock lock(mutex_);
  const Shape shape = groupSize_ > 0 ? Shape::Probabilistic : drawShape(rng_);
  const auto s = static_cast<std::size_t>(shape);
  const Value threshold =
      permutation_[s][cursor_[s]++ % permutation_[s].size()];
  return makeQuestion(shape, threshold, groupSize_);
}

// ---------------------------------------------------------------------------
// Fleet.

namespace {

/// Distinct loopback ports, reserved by briefly binding ephemeral
/// listeners (the pattern the library's TCP suites use).
std::vector<privtopk::net::TcpPeer> reservePeers() {
  std::vector<privtopk::net::TcpPeer> peers;
  std::vector<std::unique_ptr<privtopk::net::TcpTransport>> probes;
  for (std::size_t i = 0; i < kNodes; ++i) {
    probes.push_back(std::make_unique<privtopk::net::TcpTransport>(
        0, std::vector<privtopk::net::TcpPeer>{{0, "127.0.0.1", 0}}));
    peers.push_back({static_cast<NodeId>(i), "127.0.0.1",
                     probes.back()->listenPort()});
  }
  for (auto& probe : probes) probe->shutdown();
  return peers;
}

}  // namespace

Fleet::Fleet(const Rows& rows, Substrate substrate, TapState& taps)
    : dbs_(buildDatabases(rows)) {
  if (substrate == Substrate::InProc) {
    inproc_ = std::make_unique<privtopk::net::InProcTransport>(kNodes);
    taps_.push_back(std::make_unique<TapTransport>(*inproc_, taps));
  } else {
    const auto peers = reservePeers();
    privtopk::net::TcpOptions options;
    options.encrypt = true;
    for (std::size_t i = 0; i < kNodes; ++i) {
      tcp_.push_back(std::make_unique<privtopk::net::TcpTransport>(
          static_cast<NodeId>(i), peers, options));
      taps_.push_back(std::make_unique<TapTransport>(*tcp_.back(), taps));
    }
  }
  for (std::size_t i = 0; i < kNodes; ++i) {
    TapTransport& tap = *taps_[taps_.size() == 1 ? 0 : i];
    services_.push_back(std::make_unique<pq::NodeService>(
        static_cast<NodeId>(i), dbs_[i], tap, 1000 + i, pq::ServiceOptions{}));
    services_.back()->start();
  }
}

Fleet::~Fleet() {
  for (auto& service : services_) service->stop();
  for (auto& tap : taps_) tap->shutdown();
}

std::vector<NodeId> Fleet::ringFrom(NodeId initiator) {
  std::vector<NodeId> ring(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    ring[i] = static_cast<NodeId>((initiator + i) % kNodes);
  }
  return ring;
}

void Fleet::warmUp() {
  const Question question = makeQuestion(Shape::Naive, kDomainHi);
  std::vector<std::future<TopKVector>> answers;
  for (std::size_t i = 0; i < kNodes; ++i) {
    auto descriptor = question.descriptor;
    descriptor.queryId = nextQueryId();
    answers.push_back(services_[i]->initiate(
        descriptor, ringFrom(static_cast<NodeId>(i))));
  }
  for (auto& answer : answers) {
    if (answer.wait_for(std::chrono::seconds(30)) !=
        std::future_status::ready) {
      throw std::runtime_error("fleet warm-up query did not complete");
    }
    (void)answer.get();
  }
}

void Fleet::waitIdle() {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  for (const auto& service : services_) {
    while (service->activeQueries() != 0 && Clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
}

}  // namespace fedbench
