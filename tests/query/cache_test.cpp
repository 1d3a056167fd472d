#include "query/cache.hpp"

#include <gtest/gtest.h>

#include "data/generator.hpp"
#include "query/gateway.hpp"

namespace privtopk::query {
namespace {

std::vector<data::PrivateDatabase> makeFleet(std::uint64_t seed) {
  data::FleetSpec spec;
  spec.nodes = 4;
  spec.rowsPerNode = 10;
  spec.tableName = "sales";
  spec.attribute = "revenue";
  Rng rng(seed);
  return data::generateFleet(spec, rng);
}

QueryDescriptor descriptor(std::uint64_t queryId = 1, std::size_t k = 3) {
  QueryDescriptor d;
  d.queryId = queryId;
  d.tableName = "sales";
  d.attribute = "revenue";
  d.params.k = k;
  d.params.rounds = 12;
  return d;
}

QueryOutcome outcomeOf(Value v) {
  QueryOutcome outcome;
  outcome.values = {v};
  return outcome;
}

TEST(ResultCache, TtlExpiresEntriesDeterministically) {
  ResultCache::Options options;
  options.ttl = std::chrono::milliseconds(100);
  ResultCache cache(options);
  const auto t0 = ResultCache::Clock::now();

  cache.insert("a", outcomeOf(1), t0);
  ASSERT_TRUE(cache.lookup("a", t0 + std::chrono::milliseconds(99)));
  // At exactly the TTL the entry is stale: expired AND counted as a miss.
  EXPECT_FALSE(cache.lookup("a", t0 + std::chrono::milliseconds(100)));
  EXPECT_EQ(cache.size(), 0u);

  const auto counters = cache.counters();
  EXPECT_EQ(counters.hits, 1u);
  EXPECT_EQ(counters.misses, 1u);
  EXPECT_EQ(counters.expirations, 1u);
}

TEST(ResultCache, LookupRefreshesRecencyForEviction) {
  ResultCache::Options options;
  options.capacity = 2;
  ResultCache cache(options);
  const auto t0 = ResultCache::Clock::now();

  cache.insert("a", outcomeOf(1), t0);
  cache.insert("b", outcomeOf(2), t0);
  ASSERT_TRUE(cache.lookup("a", t0));  // "b" is now least recently used
  cache.insert("c", outcomeOf(3), t0);

  EXPECT_TRUE(cache.lookup("a", t0));
  EXPECT_FALSE(cache.lookup("b", t0));
  EXPECT_TRUE(cache.lookup("c", t0));
  EXPECT_EQ(cache.size(), 2u);
  EXPECT_EQ(cache.counters().evictions, 1u);
}

TEST(ResultCache, InsertRefreshesExistingKey) {
  ResultCache cache;
  const auto t0 = ResultCache::Clock::now();
  cache.insert("a", outcomeOf(1), t0);
  cache.insert("a", outcomeOf(2), t0 + std::chrono::milliseconds(1));
  const auto hit = cache.lookup("a", t0 + std::chrono::milliseconds(2));
  ASSERT_TRUE(hit);
  EXPECT_EQ(hit->values, TopKVector{2});
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCache, ZeroCapacityIsAConfigError) {
  ResultCache::Options options;
  options.capacity = 0;
  EXPECT_THROW(ResultCache cache(options), ConfigError);
}

TEST(ResultCache, ClearDropsEntries) {
  // Distinct questions (k, type) and data epochs are distinct keys.
  ResultCache cache;
  QueryDescriptor bottom = descriptor(1, 3);
  bottom.type = QueryType::BottomK;
  const std::vector<std::string> keys = {
      ResultCache::keyFor(descriptor(1, 3), 0),
      ResultCache::keyFor(descriptor(1, 5), 0),
      ResultCache::keyFor(bottom, 0),
      ResultCache::keyFor(descriptor(1, 3), 1),
  };
  for (std::size_t i = 0; i < keys.size(); ++i) {
    cache.insert(keys[i], outcomeOf(static_cast<Value>(i)));
  }
  EXPECT_EQ(cache.size(), keys.size());

  cache.clear();
  EXPECT_EQ(cache.size(), 0u);
  for (const std::string& key : keys) EXPECT_FALSE(cache.lookup(key));
  EXPECT_EQ(cache.counters().misses, keys.size());
}

// CachedFederation: a ResultCache in front of an in-process federation,
// as query::Gateway composes them.

TEST(CachedFederation, RepeatedQueryHitsCache) {
  const auto fleet = makeFleet(1);
  const Federation federation(fleet);
  Gateway cached(federation, /*seed=*/2);

  const auto first = cached.execute(descriptor());
  const auto second = cached.execute(descriptor());
  EXPECT_EQ(first.values, second.values);
  const auto stats = cached.stats();
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.cacheSize, 1u);
}

TEST(CachedFederation, QueryIdDoesNotBustCache) {
  // The query id is a transport nonce; the same QUESTION must hit.
  const auto fleet = makeFleet(3);
  const Federation federation(fleet);
  Gateway cached(federation, /*seed=*/4);

  (void)cached.execute(descriptor(/*queryId=*/1));
  (void)cached.execute(descriptor(/*queryId=*/999));
  EXPECT_EQ(cached.stats().hits, 1u);
  EXPECT_EQ(cached.stats().misses, 1u);
}

TEST(CachedFederation, DifferentQuestionsMiss) {
  const auto fleet = makeFleet(5);
  const Federation federation(fleet);
  Gateway cached(federation, /*seed=*/6);

  (void)cached.execute(descriptor(1, 3));
  (void)cached.execute(descriptor(1, 5));  // different k
  QueryDescriptor bottom = descriptor(1, 3);
  bottom.type = QueryType::BottomK;
  (void)cached.execute(bottom);  // different type
  const auto stats = cached.stats();
  EXPECT_EQ(stats.misses, 3u);
  EXPECT_EQ(stats.hits, 0u);
  EXPECT_EQ(stats.cacheSize, 3u);
}

TEST(CachedFederation, DataEpochInvalidates) {
  const auto fleet = makeFleet(7);
  const Federation federation(fleet);
  Gateway cached(federation, /*seed=*/8);

  (void)cached.execute(descriptor());  // epoch 0
  cached.bumpDataEpoch();
  (void)cached.execute(descriptor());  // epoch 1
  EXPECT_EQ(cached.stats().misses, 2u);
  (void)cached.execute(descriptor());
  EXPECT_EQ(cached.stats().hits, 1u);
}

TEST(CachedFederation, ClearDropsEntries) {
  const auto fleet = makeFleet(9);
  const Federation federation(fleet);
  Gateway cached(federation, /*seed=*/10);

  (void)cached.execute(descriptor());
  cached.invalidateAll();
  EXPECT_EQ(cached.stats().cacheSize, 0u);
  (void)cached.execute(descriptor());
  EXPECT_EQ(cached.stats().misses, 2u);
}

TEST(CachedFederation, CachedAnswerMatchesTruth) {
  const auto fleet = makeFleet(11);
  const auto raw = data::fleetValues(fleet, "sales", "revenue");
  const Federation federation(fleet);
  Gateway cached(federation, /*seed=*/12);
  const auto outcome = cached.execute(descriptor());
  EXPECT_EQ(outcome.values, data::trueTopK(raw, 3));
  // The cached copy is byte-identical.
  EXPECT_EQ(cached.execute(descriptor()).values, outcome.values);
}

}  // namespace
}  // namespace privtopk::query
