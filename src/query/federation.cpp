#include "query/federation.hpp"

#include <numeric>

#include "common/error.hpp"
#include "protocol/core.hpp"
#include "protocol/group.hpp"
#include "protocol/secure_sum.hpp"

namespace privtopk::query {

namespace {

Value mirror(const Domain& domain, Value v) {
  return domain.min + domain.max - v;
}

}  // namespace

void LocalParty::validateSchema(const QueryDescriptor& descriptor) const {
  descriptor.validate();
  if (!db_->hasTable(descriptor.tableName)) {
    throw SchemaError("LocalParty: no table '" + descriptor.tableName + "'");
  }
  const data::Table& table = db_->table(descriptor.tableName);
  // intColumn throws a precise SchemaError for missing/mistyped attribute.
  (void)table.intColumn(descriptor.attribute);
  descriptor.filter.validateAgainst(table.schema());
}

TopKVector LocalParty::localInput(const QueryDescriptor& descriptor) const {
  validateSchema(descriptor);
  const data::Table& table = db_->table(descriptor.tableName);
  std::vector<Value> values =
      descriptor.filter.select(table, table.intColumn(descriptor.attribute));
  const bool bottom = descriptor.isBottom();
  // ~v reverses the order of every int64 without overflow, so the top-k of
  // the complemented values is the complemented bottom-k.
  if (bottom) {
    for (Value& v : values) v = ~v;
  }
  TopKVector input =
      protocol::core::localTopK(std::move(values), descriptor.effectiveK());
  const Domain& domain = descriptor.params.domain;
  for (Value& v : input) {
    if (bottom) v = ~v;
    if (!domain.contains(v)) {
      throw ConfigError("LocalParty: value outside the public domain");
    }
    // Mirror into max-space (the protocol always maximizes): the ascending
    // bottom-k becomes a descending vector.
    if (bottom) v = mirror(domain, v);
  }
  return input;
}

std::vector<std::int64_t> LocalParty::localAggregate(
    const QueryDescriptor& descriptor) const {
  validateSchema(descriptor);
  if (!descriptor.isAggregate()) {
    throw ConfigError("LocalParty::localAggregate: not an aggregate query");
  }
  const data::Table& table = db_->table(descriptor.tableName);
  const std::vector<Value> selected =
      descriptor.filter.select(table, table.intColumn(descriptor.attribute));
  const std::int64_t sum =
      std::accumulate(selected.begin(), selected.end(), std::int64_t{0});
  const auto rows = static_cast<std::int64_t>(selected.size());
  switch (descriptor.type) {
    case QueryType::Sum: return {sum};
    case QueryType::Count: return {rows};
    case QueryType::Average: return {sum, rows};
    default: throw ConfigError("localAggregate: unreachable");
  }
}

TopKVector mirrored(const Domain& domain, TopKVector values) {
  for (Value& v : values) v = mirror(domain, v);
  return values;
}

TopKVector presentResult(const QueryDescriptor& descriptor,
                         TopKVector protocolResult) {
  if (!descriptor.isBottom()) return protocolResult;
  // Descending mirrored values become ascending originals - already the
  // natural order for bottom-k.
  return mirrored(descriptor.params.domain, std::move(protocolResult));
}

Federation::Federation(const std::vector<data::PrivateDatabase>& parties)
    : parties_(&parties) {
  if (!protocol::core::meetsPrivacyFloor(parties.size())) {
    throw ConfigError("Federation: the protocol requires >= 3 parties");
  }
}

QueryOutcome Federation::execute(const QueryDescriptor& descriptor,
                                 Rng& rng) const {
  descriptor.validate();

  if (descriptor.isAggregate()) {
    // Statistics queries run the decentralized secure sum over per-party
    // aggregates (one masked pass, exact totals, uniform intermediates).
    std::vector<std::vector<std::int64_t>> counters;
    counters.reserve(parties_->size());
    for (const auto& db : *parties_) {
      counters.push_back(LocalParty(db).localAggregate(descriptor));
    }
    const protocol::SecureSumResult sum = protocol::secureSum(counters, rng);
    QueryOutcome outcome;
    outcome.values = sum.totals;
    outcome.rounds = 1;
    outcome.messages = sum.messages;
    return outcome;
  }

  std::vector<std::vector<Value>> inputs;
  inputs.reserve(parties_->size());
  for (const auto& db : *parties_) {
    inputs.push_back(LocalParty(db).localInput(descriptor));
  }

  protocol::ProtocolParams params = descriptor.params;
  params.k = descriptor.effectiveK();

  if (descriptor.groupSize >= 3) {
    // Group-parallel execution (paper §4.2): small rings in parallel, one
    // delegate ring to merge.  No single ring sees every party, so there
    // is no whole-run trace to return.
    const protocol::GroupedRunResult run = protocol::runGrouped(
        inputs, params, descriptor.kind, descriptor.groupSize, rng);
    QueryOutcome outcome;
    outcome.values = presentResult(descriptor, run.result);
    outcome.rounds = params.rounds.value_or(0);
    outcome.messages = run.totalMessages;
    return outcome;
  }

  const protocol::RingQueryRunner runner(params, descriptor.kind);
  protocol::RunResult run = runner.run(inputs, rng);

  QueryOutcome outcome;
  outcome.values = presentResult(descriptor, run.result);
  outcome.rounds = run.rounds;
  outcome.messages = run.totalMessages;
  outcome.trace = std::move(run.trace);
  return outcome;
}

}  // namespace privtopk::query
