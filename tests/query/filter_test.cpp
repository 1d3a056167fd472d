#include "query/filter.hpp"

#include <gtest/gtest.h>

#include <limits>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "query/federation.hpp"

namespace privtopk::query {
namespace {

data::PrivateDatabase storeDb() {
  data::PrivateDatabase db("store");
  data::Table t(data::Schema({{"region", data::ColumnType::Text},
                              {"year", data::ColumnType::Int},
                              {"revenue", data::ColumnType::Int}}));
  using data::Cell;
  t.appendRow({Cell{std::string("east")}, Cell{Value{2024}}, Cell{Value{500}}});
  t.appendRow({Cell{std::string("east")}, Cell{Value{2025}}, Cell{Value{900}}});
  t.appendRow({Cell{std::string("west")}, Cell{Value{2024}}, Cell{Value{700}}});
  t.appendRow({Cell{std::string("west")}, Cell{Value{2025}}, Cell{Value{400}}});
  t.appendRow({Cell{std::string("north")}, Cell{Value{2025}}, Cell{Value{800}}});
  db.addTable("sales", std::move(t));
  return db;
}

data::Schema storeSchema() {
  return data::Schema({{"region", data::ColumnType::Text},
                       {"year", data::ColumnType::Int},
                       {"revenue", data::ColumnType::Int}});
}

TEST(Filter, EmptyMatchesEverything) {
  const Filter f;
  EXPECT_TRUE(f.empty());
  EXPECT_FALSE(f.predicate());  // empty RowPredicate == no filtering
}

TEST(Filter, TextEqualityClause) {
  const data::PrivateDatabase db = storeDb();
  const Filter f({{"region", FilterOp::Eq, std::string("east")}});
  EXPECT_EQ(db.localTopK("sales", "revenue", 5, f.predicate()),
            (TopKVector{900, 500}));
}

TEST(Filter, IntRangeClause) {
  const data::PrivateDatabase db = storeDb();
  const Filter f({{"year", FilterOp::Ge, Value{2025}}});
  EXPECT_EQ(db.localTopK("sales", "revenue", 5, f.predicate()),
            (TopKVector{900, 800, 400}));
}

TEST(Filter, ConjunctionAndsClauses) {
  const data::PrivateDatabase db = storeDb();
  const Filter f({{"year", FilterOp::Eq, Value{2025}},
                  {"region", FilterOp::Ne, std::string("east")}});
  EXPECT_EQ(db.localTopK("sales", "revenue", 5, f.predicate()),
            (TopKVector{800, 400}));
}

TEST(Filter, AllOperatorsOnInts) {
  const data::PrivateDatabase db = storeDb();
  auto count = [&db](FilterOp op, Value literal) {
    const Filter f({{"revenue", op, literal}});
    return db.localTopK("sales", "revenue", 10, f.predicate()).size();
  };
  EXPECT_EQ(count(FilterOp::Eq, 700), 1u);
  EXPECT_EQ(count(FilterOp::Ne, 700), 4u);
  EXPECT_EQ(count(FilterOp::Lt, 700), 2u);
  EXPECT_EQ(count(FilterOp::Le, 700), 3u);
  EXPECT_EQ(count(FilterOp::Gt, 700), 2u);
  EXPECT_EQ(count(FilterOp::Ge, 700), 3u);
}

TEST(Filter, ValidationAgainstSchema) {
  const data::Schema schema = storeSchema();
  Filter ok({{"year", FilterOp::Lt, Value{2025}},
             {"region", FilterOp::Eq, std::string("east")}});
  EXPECT_NO_THROW(ok.validateAgainst(schema));

  Filter missing({{"nope", FilterOp::Eq, Value{1}}});
  EXPECT_THROW(missing.validateAgainst(schema), SchemaError);

  Filter typeMismatch({{"year", FilterOp::Eq, std::string("2025")}});
  EXPECT_THROW(typeMismatch.validateAgainst(schema), ConfigError);

  Filter textRange({{"region", FilterOp::Lt, std::string("m")}});
  EXPECT_THROW(textRange.validateAgainst(schema), ConfigError);
}

TEST(Filter, SerializationRoundTrip) {
  const Filter f({{"year", FilterOp::Ge, Value{2024}},
                  {"region", FilterOp::Ne, std::string("west")}});
  ByteWriter w;
  f.encodeTo(w);
  ByteReader r(w.bytes());
  EXPECT_EQ(Filter::decodeFrom(r), f);
  EXPECT_TRUE(r.atEnd());
}

TEST(Filter, ParseCliSyntax) {
  const Filter f = Filter::parse("region=east,year>=2025,revenue!=0");
  ASSERT_EQ(f.clauses().size(), 3u);
  EXPECT_EQ(f.clauses()[0].column, "region");
  EXPECT_EQ(f.clauses()[0].op, FilterOp::Eq);
  EXPECT_EQ(std::get<std::string>(f.clauses()[0].literal), "east");
  EXPECT_EQ(f.clauses()[1].op, FilterOp::Ge);
  EXPECT_EQ(std::get<Value>(f.clauses()[1].literal), 2025);
  EXPECT_EQ(f.clauses()[2].op, FilterOp::Ne);
  EXPECT_TRUE(Filter::parse("").empty());
  EXPECT_THROW((void)Filter::parse("justacolumn"), ConfigError);
  EXPECT_THROW((void)Filter::parse("col="), ConfigError);
}

TEST(Filter, DescriptorCarriesFilter) {
  QueryDescriptor d;
  d.queryId = 3;
  d.tableName = "sales";
  d.attribute = "revenue";
  d.params.k = 2;
  d.params.rounds = 10;
  d.filter = Filter({{"year", FilterOp::Eq, Value{2025}}});
  const QueryDescriptor back = QueryDescriptor::decode(d.encode());
  EXPECT_EQ(back, d);
  EXPECT_EQ(back.filter.clauses().size(), 1u);
}

TEST(Filter, FederatedFilteredTopK) {
  // Three parties with the same schema; the filtered consortium query must
  // only see 2025 rows.
  std::vector<data::PrivateDatabase> parties;
  parties.push_back(storeDb());
  {
    data::PrivateDatabase db("b");
    data::Table t(storeSchema());
    using data::Cell;
    t.appendRow(
        {Cell{std::string("east")}, Cell{Value{2025}}, Cell{Value{950}}});
    t.appendRow(
        {Cell{std::string("east")}, Cell{Value{2024}}, Cell{Value{990}}});
    db.addTable("sales", std::move(t));
    parties.push_back(std::move(db));
  }
  {
    data::PrivateDatabase db("c");
    data::Table t(storeSchema());
    using data::Cell;
    t.appendRow(
        {Cell{std::string("west")}, Cell{Value{2025}}, Cell{Value{100}}});
    db.addTable("sales", std::move(t));
    parties.push_back(std::move(db));
  }

  QueryDescriptor d;
  d.queryId = 4;
  d.tableName = "sales";
  d.attribute = "revenue";
  d.params.k = 3;
  d.params.rounds = 12;
  d.filter = Filter({{"year", FilterOp::Eq, Value{2025}}});

  const Federation federation(parties);
  Rng rng(5);
  // 2025 rows: 900, 400, 800 (party a), 950 (b), 100 (c).
  EXPECT_EQ(federation.execute(d, rng).values, (TopKVector{950, 900, 800}));

  // The same query filtered by Sum.
  d.type = QueryType::Sum;
  Rng rng2(6);
  EXPECT_EQ(federation.execute(d, rng2).values,
            (TopKVector{900 + 400 + 800 + 950 + 100}));
}

// ---------------------------------------------------------------------------
// Compiled, column-at-a-time evaluation (Filter::select) against the
// per-row reference (Filter::predicate).
// ---------------------------------------------------------------------------

constexpr Value kMin = std::numeric_limits<Value>::min();
constexpr Value kMax = std::numeric_limits<Value>::max();

/// The values of `column` in the rows `filter.predicate()` keeps.
std::vector<Value> predicateScan(const Filter& filter, const data::Table& table,
                                 const std::vector<Value>& column) {
  const data::RowPredicate predicate = filter.predicate();
  std::vector<Value> kept;
  for (std::size_t row = 0; row < column.size(); ++row) {
    if (!predicate || predicate(table, row)) kept.push_back(column[row]);
  }
  return kept;
}

/// A table of `rows` rows over {tag text, a int, b int}: small ints with
/// the occasional INT64_MIN/INT64_MAX, and three tags.
data::Table randomTable(Rng& rng, std::size_t rows) {
  data::Table t(data::Schema({{"tag", data::ColumnType::Text},
                              {"a", data::ColumnType::Int},
                              {"b", data::ColumnType::Int}}));
  static const std::string kTags[] = {"x", "y", "z"};
  auto cell = [&rng] {
    switch (rng.index(12)) {
      case 0: return kMin;
      case 1: return kMax;
      default: return rng.uniformInt(-5, 5);
    }
  };
  for (std::size_t row = 0; row < rows; ++row) {
    t.appendRow({data::Cell{kTags[rng.index(3)]}, data::Cell{cell()},
                 data::Cell{cell()}});
  }
  return t;
}

/// Up to three clauses over a, b and tag, every operator and the int64
/// edges included.
Filter randomFilter(Rng& rng) {
  static const std::string kTags[] = {"x", "y", "w"};
  static const Value kEdges[] = {kMin, kMin + 1, kMax - 1, kMax};
  std::vector<FilterClause> clauses(rng.index(4));
  for (FilterClause& clause : clauses) {
    const std::size_t column = rng.index(3);
    if (column == 0) {
      clause.column = "tag";
      clause.op = rng.bernoulli(0.5) ? FilterOp::Eq : FilterOp::Ne;
      clause.literal = kTags[rng.index(3)];
      continue;
    }
    clause.column = column == 1 ? "a" : "b";
    clause.op = static_cast<FilterOp>(rng.index(6));
    clause.literal =
        rng.bernoulli(0.25) ? kEdges[rng.index(4)] : rng.uniformInt(-6, 6);
  }
  return Filter(std::move(clauses));
}

TEST(Filter, SelectMatchesThePredicateOnRandomTables) {
  Rng rng(20261019);
  std::size_t nonTrivial = 0;
  for (int trial = 0; trial < 2000; ++trial) {
    const data::Table table = randomTable(rng, rng.index(40));
    const Filter filter = randomFilter(rng);
    for (const char* column : {"a", "b"}) {
      const std::vector<Value>& values = table.intColumn(column);
      const std::vector<Value> want = predicateScan(filter, table, values);
      ASSERT_EQ(filter.select(table, values), want)
          << "trial " << trial << ", column " << column;
      if (!want.empty() && want.size() < values.size()) ++nonTrivial;
    }
  }
  // The generator must exercise real selections, not only all/nothing.
  EXPECT_GT(nonTrivial, 1000u);
}

TEST(Filter, SelectHonoursTheInt64Edges) {
  data::Table t(data::Schema({{"a", data::ColumnType::Int}}));
  for (Value v : {kMin, Value{-1}, Value{0}, Value{1}, kMax}) {
    t.appendRow({data::Cell{v}});
  }
  const std::vector<Value>& a = t.intColumn("a");
  auto select = [&](FilterOp op, Value literal) {
    return Filter({{"a", op, literal}}).select(t, a);
  };
  EXPECT_EQ(select(FilterOp::Lt, kMin), TopKVector{});
  EXPECT_EQ(select(FilterOp::Gt, kMax), TopKVector{});
  EXPECT_EQ(select(FilterOp::Le, kMin), TopKVector{kMin});
  EXPECT_EQ(select(FilterOp::Ge, kMax), TopKVector{kMax});
  EXPECT_EQ(select(FilterOp::Ge, kMin), a);
  EXPECT_EQ(select(FilterOp::Le, kMax), a);
  EXPECT_EQ(select(FilterOp::Ne, kMin), (TopKVector{-1, 0, 1, kMax}));
  EXPECT_EQ(select(FilterOp::Eq, kMax), TopKVector{kMax});
  EXPECT_EQ(Filter().select(t, a), a);
}

TEST(Filter, SelectRejectsAForeignColumn) {
  const data::PrivateDatabase db = storeDb();
  const std::vector<Value> shorter = {1, 2};
  const Filter f({{"year", FilterOp::Ge, Value{2025}}});
  EXPECT_THROW((void)f.select(db.table("sales"), shorter), SchemaError);
}

TEST(Filter, PredicateFollowsTheTableItIsHanded) {
  // One predicate object scanning two tables whose column order differs
  // must resolve the column again for the second table.
  data::Table first(data::Schema({{"year", data::ColumnType::Int},
                                  {"revenue", data::ColumnType::Int}}));
  data::Table second(data::Schema({{"revenue", data::ColumnType::Int},
                                   {"year", data::ColumnType::Int}}));
  first.appendRow({data::Cell{Value{2025}}, data::Cell{Value{1}}});
  second.appendRow({data::Cell{Value{1}}, data::Cell{Value{2025}}});
  const data::RowPredicate p =
      Filter({{"year", FilterOp::Eq, Value{2025}}}).predicate();
  EXPECT_TRUE(p(first, 0));
  EXPECT_TRUE(p(second, 0));
  EXPECT_TRUE(p(first, 0));
}

/// A store table of `rows` random rows within the paper's domain.
data::PrivateDatabase randomStore(Rng& rng, std::size_t rows) {
  static const std::string kRegions[] = {"east", "west", "north"};
  data::Table t(storeSchema());
  for (std::size_t row = 0; row < rows; ++row) {
    t.appendRow({data::Cell{kRegions[rng.index(3)]},
                 data::Cell{rng.uniformInt(2020, 2026)},
                 data::Cell{rng.uniformInt(1, 10000)}});
  }
  data::PrivateDatabase db("random");
  db.addTable("sales", std::move(t));
  return db;
}

Filter randomStoreFilter(Rng& rng) {
  std::vector<FilterClause> clauses;
  if (rng.bernoulli(0.7)) {
    clauses.push_back({"revenue", static_cast<FilterOp>(rng.index(6)),
                       rng.uniformInt(1, 10000)});
  }
  if (rng.bernoulli(0.5)) {
    clauses.push_back({"year", static_cast<FilterOp>(rng.index(6)),
                       rng.uniformInt(2020, 2026)});
  }
  if (rng.bernoulli(0.3)) {
    clauses.push_back({"region", FilterOp::Ne, std::string("west")});
  }
  return Filter(std::move(clauses));
}

TEST(Filter, LocalPartyMatchesThePredicateReference) {
  Rng rng(17);
  for (int trial = 0; trial < 300; ++trial) {
    const data::PrivateDatabase db = randomStore(rng, rng.index(60));
    const LocalParty party(db);
    QueryDescriptor d;
    d.queryId = 1;
    d.tableName = "sales";
    d.attribute = "revenue";
    d.params.k = 1 + rng.index(8);
    d.params.rounds = 4;
    d.filter = randomStoreFilter(rng);
    const data::RowPredicate predicate = d.filter.predicate();
    const std::size_t k = d.params.k;

    d.type = QueryType::TopK;
    EXPECT_EQ(party.localInput(d),
              db.localTopK("sales", "revenue", k, predicate))
        << "trial " << trial;

    // The bottom input is the mirrored bottom-k; presenting it mirrors back.
    d.type = QueryType::BottomK;
    EXPECT_EQ(presentResult(d, party.localInput(d)),
              db.localBottomK("sales", "revenue", k, predicate))
        << "trial " << trial;

    std::int64_t sum = 0;
    std::int64_t rows = 0;
    const data::Table& table = db.table("sales");
    const std::vector<Value>& revenue = table.intColumn("revenue");
    for (std::size_t row = 0; row < revenue.size(); ++row) {
      if (predicate && !predicate(table, row)) continue;
      sum += revenue[row];
      ++rows;
    }
    d.type = QueryType::Sum;
    EXPECT_EQ(party.localAggregate(d), (std::vector<std::int64_t>{sum}));
    d.type = QueryType::Count;
    EXPECT_EQ(party.localAggregate(d), (std::vector<std::int64_t>{rows}));
    d.type = QueryType::Average;
    EXPECT_EQ(party.localAggregate(d),
              (std::vector<std::int64_t>{sum, rows}));
  }
}

}  // namespace
}  // namespace privtopk::query
