#include "workloads.hpp"

#include <algorithm>
#include <future>
#include <mutex>
#include <numeric>
#include <random>
#include <stdexcept>
#include <thread>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "protocol/group.hpp"
#include "report.hpp"
#include "tracing.hpp"

namespace fedbench {

namespace pq = privtopk::query;

namespace {

/// A ring execution that did not answer within this bound counts as
/// failed (the service's own retransmit deadline is 1 s).
constexpr auto kRequestTimeout = std::chrono::seconds(5);
/// The traced phase records the spans of one request in this many (every
/// traced request keeps its spans in memory); gateway_zipf's cached path
/// runs at hundreds of thousands of requests per second, so it samples
/// more sparsely.  The tap still pairs every message.
constexpr std::uint64_t kTraceEvery = 4;
constexpr std::uint64_t kZipfTraceEvery = 64;
/// Latency samples kept per window and request loop (bounded memory at
/// the gateway's cached rates; every ring run stays below it).
constexpr std::size_t kLatencyReservoir = std::size_t{1} << 14;
/// How long the open loop's collector sleeps when no future is ready.
constexpr auto kCollectorPoll = std::chrono::microseconds(50);
constexpr std::size_t kZipfQuestions = 64;
constexpr std::size_t kZipfTenants = 8;
constexpr const char* kTenantNames[kZipfTenants] = {"t0", "t1", "t2", "t3",
                                                    "t4", "t5", "t6", "t7"};

struct RequestTimeout : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double msBetween(std::int64_t a, std::int64_t b) {
  return static_cast<double>(b - a) / 1e6;
}

void recordSpan(const char* name, std::int64_t start, std::int64_t end,
                std::uint64_t id, std::uint64_t parent, std::uint64_t trace) {
  SpanStore::global().record(Span{name, start, end, id, parent, trace, -1});
}

/// Maps a timestamp to its measurement window.
struct Windows {
  std::int64_t start = 0;
  std::int64_t widthNs = 1;
  [[nodiscard]] std::size_t of(std::int64_t t) const {
    const std::int64_t w = std::max<std::int64_t>(t - start, 0) / widthNs;
    return std::min<std::size_t>(static_cast<std::size_t>(w), kWindows - 1);
  }
};

Windows windowsFor(std::int64_t start, double seconds) {
  return Windows{start, std::max<std::int64_t>(
                            1, static_cast<std::int64_t>(seconds * 1e9 /
                                                         kWindows))};
}

/// Adds one finished request to `out`.  `answer` is null for a failure.
void account(PhaseResult& out, const Oracle& oracle, const Question& question,
             const TopKVector* answer, double latencyMs, double limitMs,
             std::size_t window) {
  Window& w = out.windows[window];
  ++out.attempted;
  ++w.attempted;
  bool ok = answer != nullptr;
  if (ok) {
    const auto verdict = oracle.check(question, *answer);
    if (verdict.scored) {
      out.precisionSum += verdict.precision;
      ++out.precisionCount;
    }
    if (!verdict.ok) {
      ok = false;
      ++out.wrong;
      if (out.firstWrong.empty()) {
        out.firstWrong = std::string(toString(question.shape)) + " t=" +
                         std::to_string(question.threshold) + " answered " +
                         privtopk::toString(*answer) + ", expected " +
                         privtopk::toString(oracle.truth(question));
      }
    }
  }
  if (!ok || latencyMs > limitMs) ++w.late;
  if (!ok) {
    ++out.failed;
    return;
  }
  ++out.completed;
  const std::uint64_t n = ++w.completed;
  if (w.latencyMs.size() < kLatencyReservoir) {
    w.latencyMs.push_back(latencyMs);
  } else if (const std::uint64_t j = privtopk::splitmix64(n) % n;
             j < kLatencyReservoir) {
    w.latencyMs[j] = latencyMs;
  }
}

void merge(PhaseResult& into, PhaseResult&& part) {
  into.attempted += part.attempted;
  into.failed += part.failed;
  into.wrong += part.wrong;
  into.completed += part.completed;
  into.grouped += part.grouped;
  into.precisionSum += part.precisionSum;
  into.precisionCount += part.precisionCount;
  for (std::size_t i = 0; i < kWindows; ++i) {
    Window& w = into.windows[i];
    w.attempted += part.windows[i].attempted;
    w.late += part.windows[i].late;
    w.completed += part.windows[i].completed;
    w.latencyMs.insert(w.latencyMs.end(), part.windows[i].latencyMs.begin(),
                       part.windows[i].latencyMs.end());
  }
  if (into.firstWrong.empty()) into.firstWrong = std::move(part.firstWrong);
}

pq::GatewayStats statsDelta(const pq::GatewayStats& a,
                            const pq::GatewayStats& b) {
  pq::GatewayStats d = b;
  d.hits -= a.hits;
  d.misses -= a.misses;
  d.coalesced -= a.coalesced;
  d.executions -= a.executions;
  d.shedRateLimit -= a.shedRateLimit;
  d.shedQueueFull -= a.shedQueueFull;
  d.invalidations -= a.invalidations;
  d.evictions -= a.evictions;
  d.expirations -= a.expirations;
  return d;
}

}  // namespace

std::optional<WorkloadSpec> workloadByName(const std::string& name) {
  WorkloadSpec spec;
  spec.name = name;
  if (name == "ring_inproc") return spec;
  if (name == "ring_tcp_sealed") {
    spec.substrate = Substrate::SealedTcp;
    return spec;
  }
  if (name == "ring_grouped") {
    spec.openLoop = true;
    spec.groupSize = 3;
    return spec;
  }
  if (name == "gateway_zipf") {
    spec.zipf = true;
    return spec;
  }
  return std::nullopt;
}

/// 64 fixed questions of the ring mix and the Zipf(1.0) law over them.
struct WorkloadRunner::Zipf {
  std::vector<Question> questions;
  std::vector<double> cumulative;
  /// Every (question, tenant, lane) request, built once so the request
  /// loop copies nothing: index (q * kZipfTenants + tenant) * 3 + lane.
  std::vector<pq::GatewayRequest> requests;

  explicit Zipf(std::uint64_t seed) {
    std::mt19937_64 rng(seed ^ 0x7a697066ULL);
    std::vector<Value> thresholds(
        static_cast<std::size_t>(kDomainHi - kThresholdLo + 1));
    std::iota(thresholds.begin(), thresholds.end(), kThresholdLo);
    std::shuffle(thresholds.begin(), thresholds.end(), rng);
    double total = 0.0;
    for (std::size_t i = 0; i < kZipfQuestions; ++i) {
      questions.push_back(makeQuestion(drawShape(rng), thresholds[i]));
      total += 1.0 / static_cast<double>(i + 1);
      cumulative.push_back(total);
    }
    for (double& c : cumulative) c /= total;
    for (const Question& q : questions) {
      for (std::size_t t = 0; t < kZipfTenants; ++t) {
        for (const auto lane : {pq::Priority::Batch, pq::Priority::Normal,
                                pq::Priority::Interactive}) {
          requests.push_back({q.descriptor, kTenantNames[t], lane});
        }
      }
    }
  }

  /// One request: a Zipf-drawn question, a uniform tenant, and the
  /// interactive/normal/batch lane with probability 20/60/20.
  [[nodiscard]] std::size_t drawRequest(std::mt19937_64& rng,
                                        std::size_t& question) const {
    question = draw(rng);
    const std::size_t tenant = rng() % kZipfTenants;
    const auto u = rng() % 10;
    const std::size_t lane = u < 2 ? 2 : (u < 8 ? 1 : 0);
    return (question * kZipfTenants + tenant) * 3 + lane;
  }

  [[nodiscard]] std::size_t draw(std::mt19937_64& rng) const {
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const auto it = std::lower_bound(cumulative.begin(), cumulative.end(), u);
    return std::min<std::size_t>(
        static_cast<std::size_t>(it - cumulative.begin()), kZipfQuestions - 1);
  }
};

WorkloadRunner::WorkloadRunner(const WorkloadSpec& spec, std::uint64_t seed,
                               Fleet& fleet, const Oracle& oracle)
    : spec_(spec),
      seed_(seed),
      fleet_(fleet),
      oracle_(oracle),
      ring_(seed, spec.groupSize) {
  if (spec_.zipf) zipf_ = std::make_unique<Zipf>(seed);
  if (!spec_.openLoop) {
    gateway_ = std::make_unique<pq::Gateway>(
        [this](const pq::QueryDescriptor& d, privtopk::Rng&) {
          pq::QueryOutcome outcome;
          outcome.values = executeOnRing(d);
          return outcome;
        },
        seed);
  }
}

WorkloadRunner::~WorkloadRunner() = default;

std::vector<Question> WorkloadRunner::sampleQuestions(std::size_t n) {
  if (zipf_) return zipf_->questions;
  RingQuestions fresh(seed_, spec_.groupSize);
  std::vector<Question> out;
  for (std::size_t i = 0; i < n; ++i) out.push_back(fresh.next());
  return out;
}

PhaseResult WorkloadRunner::run(double seconds, bool traced) {
  const std::uint64_t executions0 = executions_.load();
  const std::int64_t busy0 = executorBusyNs_.load();
  const pq::GatewayStats stats0 = gateway_ ? gateway_->stats() : pq::GatewayStats{};
  // Sample the machine's CPU times at every window boundary, so each
  // window knows how much of the machine the hypervisor took away.
  const std::int64_t start = nowNs();
  std::vector<CpuTimes> boundaries;
  std::thread sampler([&] {
    for (std::size_t k = 0; k <= kWindows; ++k) {
      std::this_thread::sleep_until(Clock::time_point(std::chrono::nanoseconds(
          start + static_cast<std::int64_t>(seconds * 1e9 * static_cast<double>(k) /
                                            kWindows))));
      boundaries.push_back(cpuTimes());
    }
  });
  PhaseResult result = spec_.openLoop ? runOpenLoop(start, seconds, traced)
                                      : runClosedLoop(start, seconds, traced);
  sampler.join();
  for (std::size_t k = 0; k < kWindows; ++k) {
    const double total = boundaries[k + 1].total - boundaries[k].total;
    result.windows[k].stealShare =
        (boundaries[k + 1].steal - boundaries[k].steal) / std::max(total, 1.0);
  }
  fleet_.waitIdle();
  result.ringExecutions = executions_.load() - executions0;
  result.executorBusyS =
      static_cast<double>(executorBusyNs_.load() - busy0) / 1e9;
  if (gateway_) result.gateway = statsDelta(stats0, gateway_->stats());
  return result;
}

TopKVector WorkloadRunner::executeOnRing(pq::QueryDescriptor d) {
  const std::int64_t entered = nowNs();
  const auto node = static_cast<NodeId>(roundRobin_++ % kNodes);
  d.queryId = fleet_.nextQueryId();
  SpanStore& store = SpanStore::global();
  const RequestContext context = currentRequest();
  const bool traced = store.enabled() && context.trace != 0;
  const std::uint64_t executorSpan = traced ? store.newId() : 0;
  const std::uint64_t awaitSpan = traced ? store.newId() : 0;
  if (traced) store.bindQuery(d.queryId, context.trace, awaitSpan);

  const std::int64_t start = nowNs();
  auto answer = fleet_.service(node).initiate(d, Fleet::ringFrom(node));
  const bool ready =
      answer.wait_for(kRequestTimeout) == std::future_status::ready;
  TopKVector values;
  if (ready) values = answer.get();
  const std::int64_t end = nowNs();
  executions_.fetch_add(1);
  executorBusyNs_.fetch_add(end - entered);
  if (traced) {
    recordSpan(kSpanServiceAwait, start, end, awaitSpan, executorSpan,
               context.trace);
    recordSpan(kSpanGatewayExecutor, entered, nowNs(), executorSpan,
               context.parentSpan, context.trace);
  }
  if (!ready) throw RequestTimeout("ring execution timed out");
  return values;
}

PhaseResult WorkloadRunner::runClosedLoop(std::int64_t start, double seconds,
                                          bool traced) {
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  const Windows windows = windowsFor(start, seconds);
  std::atomic<std::uint64_t> requestIndex{0};
  std::atomic<std::int64_t> lastEnd{start};
  std::vector<PhaseResult> parts(spec_.callers);
  std::vector<std::thread> callers;

  for (std::size_t c = 0; c < spec_.callers; ++c) {
    callers.emplace_back([&, c] {
      PhaseResult& part = parts[c];
      std::mt19937_64 rng(seed_ * 1000003ULL + c + (traced ? 500 : 0));
      SpanStore& store = SpanStore::global();
      pq::GatewayRequest ringRequest;
      while (nowNs() < deadline) {
        const std::uint64_t i = requestIndex++;
        Question ringQuestion;
        const Question* question = &ringQuestion;
        const pq::GatewayRequest* request = &ringRequest;
        if (zipf_) {
          if (i > 0 && i % spec_.epochEvery == 0) gateway_->bumpDataEpoch();
          std::size_t q = 0;
          request = &zipf_->requests[zipf_->drawRequest(rng, q)];
          question = &zipf_->questions[q];
        } else {
          ringQuestion = ring_.next();
          ringRequest.descriptor = ringQuestion.descriptor;
        }

        const bool sampled =
            traced && i % (zipf_ ? kZipfTraceEvery : kTraceEvery) == 0;
        const std::uint64_t requestSpan = sampled ? store.newId() : 0;
        const std::uint64_t executeSpan = sampled ? store.newId() : 0;
        currentRequest() = RequestContext{requestSpan, executeSpan};
        const std::int64_t t0 = nowNs();
        std::optional<pq::QueryOutcome> outcome;
        try {
          outcome = gateway_->execute(*request);
        } catch (const std::exception&) {
          // Overload, transport failure or timeout: counted as failed.
        }
        const std::int64_t t1 = nowNs();
        account(part, oracle_, *question, outcome ? &outcome->values : nullptr,
                msBetween(t0, t1), spec_.limitMs, windows.of(t1));
        if (sampled) {
          const std::int64_t t2 = nowNs();
          recordSpan(kSpanGatewayExecute, t0, t1, executeSpan, requestSpan,
                     requestSpan);
          recordSpan(kSpanRequest, t0, t2, requestSpan, 0, requestSpan);
        }
        std::int64_t seen = lastEnd.load();
        while (t1 > seen && !lastEnd.compare_exchange_weak(seen, t1)) {
        }
      }
    });
  }
  for (auto& t : callers) t.join();

  PhaseResult result;
  for (auto& part : parts) merge(result, std::move(part));
  result.elapsedS = static_cast<double>(lastEnd.load() - start) / 1e9;
  result.windowS = seconds / kWindows;
  return result;
}

PhaseResult WorkloadRunner::runOpenLoop(std::int64_t start, double seconds,
                                        bool traced) {
  struct Pending {
    Question question;
    std::int64_t due = 0;
    std::uint64_t requestSpan = 0;
    std::uint64_t awaitSpan = 0;
    std::int64_t issuedAt = 0;
    NodeId node = 0;
    std::uint64_t queryId = 0;
    std::future<TopKVector> answer;
  };
  std::mutex mutex;
  std::vector<Pending> issued;  // guarded by mutex
  bool issuing = true;          // guarded by mutex

  const std::int64_t deadline =
      start + static_cast<std::int64_t>(seconds * 1e9);
  const Windows windows = windowsFor(start, seconds);
  PhaseResult issuerPart;
  PhaseResult collectorPart;
  SpanStore& store = SpanStore::global();

  auto finish = [&](Pending& p, bool ready) {
    std::optional<TopKVector> answer;
    if (ready) {
      try {
        answer = p.answer.get();
      } catch (const std::exception&) {
        // A failed query: counted as failed.
      }
    }
    const std::int64_t end = nowNs();
    executions_.fetch_add(1);
    executorBusyNs_.fetch_add(end - p.issuedAt);
    if (answer && fleet_.service(p.node)
                      .resultOf(privtopk::protocol::mergeQueryId(p.queryId))) {
      ++collectorPart.grouped;
    }
    account(collectorPart, oracle_, p.question, answer ? &*answer : nullptr,
            msBetween(p.due, end), spec_.limitMs, windows.of(p.due));
    if (p.requestSpan != 0) {
      recordSpan(kSpanServiceAwait, p.issuedAt, end, p.awaitSpan,
                 p.requestSpan, p.requestSpan);
      recordSpan(kSpanRequest, p.due, nowNs(), p.requestSpan, 0,
                 p.requestSpan);
    }
  };

  // The collector polls every open future, so a stalled query never
  // delays observing the completions behind it.
  std::thread collector([&] {
    std::vector<Pending> open;
    for (;;) {
      bool done = false;
      {
        std::scoped_lock lock(mutex);
        for (auto& p : issued) open.push_back(std::move(p));
        issued.clear();
        done = !issuing;
      }
      if (done && open.empty()) return;
      bool progressed = false;
      for (auto it = open.begin(); it != open.end();) {
        const bool ready = it->answer.wait_for(std::chrono::seconds(0)) ==
                           std::future_status::ready;
        if (ready || nowNs() - it->issuedAt > std::chrono::nanoseconds(
                                                   kRequestTimeout)
                                                   .count()) {
          finish(*it, ready);
          it = open.erase(it);
          progressed = true;
        } else {
          ++it;
        }
      }
      if (!progressed) std::this_thread::sleep_for(kCollectorPoll);
    }
  });

  // The issuer: seeded Poisson arrivals at the fixed offered rate.
  std::mt19937_64 rng(seed_ ^ 0x6172726976ULL ^ (traced ? 0x7472ULL : 0));
  std::exponential_distribution<double> gap(spec_.rate);
  double dueS = 0.0;
  for (std::uint64_t i = 0;; ++i) {
    dueS += gap(rng);
    const std::int64_t due = start + static_cast<std::int64_t>(dueS * 1e9);
    if (due >= deadline) break;
    std::this_thread::sleep_until(
        Clock::time_point(std::chrono::nanoseconds(due)));
    Pending p;
    p.question = ring_.next();
    p.due = due;
    auto d = p.question.descriptor;
    d.queryId = fleet_.nextQueryId();
    const bool sampled = traced && i % kTraceEvery == 0;
    if (sampled) {
      p.requestSpan = store.newId();
      p.awaitSpan = store.newId();
      store.bindQuery(d.queryId, p.requestSpan, p.awaitSpan);
    }
    const auto node = static_cast<NodeId>(roundRobin_++ % kNodes);
    p.node = node;
    p.queryId = d.queryId;
    p.issuedAt = nowNs();
    issuerPart.genLagMs.push_back(msBetween(due, p.issuedAt));
    try {
      p.answer = fleet_.service(node).initiate(d, Fleet::ringFrom(node));
    } catch (const privtopk::Error&) {
      account(issuerPart, oracle_, p.question, nullptr, 0.0, spec_.limitMs,
              windows.of(due));
      continue;
    }
    std::scoped_lock lock(mutex);
    issued.push_back(std::move(p));
  }
  {
    std::scoped_lock lock(mutex);
    issuing = false;
  }
  collector.join();

  PhaseResult result;
  result.genLagMs = std::move(issuerPart.genLagMs);
  merge(result, std::move(issuerPart));
  merge(result, std::move(collectorPart));
  // Arrivals span the window, so the window is the rate's base; a query
  // that completes after it does not stretch it.
  result.elapsedS = seconds;
  result.windowS = seconds / kWindows;
  return result;
}

}  // namespace fedbench
