#include "query/filter.hpp"

#include <charconv>
#include <limits>
#include <memory>
#include <utility>

#include "common/args.hpp"
#include "common/error.hpp"

namespace privtopk::query {

const char* toString(FilterOp op) {
  switch (op) {
    case FilterOp::Eq: return "==";
    case FilterOp::Ne: return "!=";
    case FilterOp::Lt: return "<";
    case FilterOp::Le: return "<=";
    case FilterOp::Gt: return ">";
    case FilterOp::Ge: return ">=";
  }
  return "?";
}

namespace {

/// One clause compiled against a table's schema.
struct Compiled {
  enum class Test : std::uint8_t { IntRange, IntNe, TextEq, TextNe };
  Test test = Test::IntRange;
  std::size_t column = 0;  ///< schema position of the clause's column
  /// IntRange: the inclusive range [lo, hi], empty when lo > hi.  IntNe:
  /// `lo` is the excluded value.
  Value lo = 0;
  Value hi = 0;
  const std::string* text = nullptr;  ///< TextEq/TextNe literal

  [[nodiscard]] bool isInt() const {
    return test == Test::IntRange || test == Test::IntNe;
  }
  [[nodiscard]] bool accepts(Value cell) const {
    return test == Test::IntRange ? (cell >= lo) & (cell <= hi) : cell != lo;
  }
  [[nodiscard]] bool accepts(const std::string& cell) const {
    return (cell == *text) == (test == Test::TextEq);
  }
  [[nodiscard]] bool acceptsRow(const data::Table& table,
                                std::size_t row) const {
    return isInt() ? accepts(table.intColumnAt(column)[row])
                   : accepts(table.textColumnAt(column)[row]);
  }
};

constexpr Value kMinValue = std::numeric_limits<Value>::min();
constexpr Value kMaxValue = std::numeric_limits<Value>::max();

/// Resolves every clause against `schema`, throwing as validateAgainst()
/// documents for a clause the schema cannot serve.  The compiled text
/// clauses point into `clauses`, which must outlive the result.
std::vector<Compiled> compile(const std::vector<FilterClause>& clauses,
                              const data::Schema& schema) {
  std::vector<Compiled> compiled;
  compiled.reserve(clauses.size());
  for (const FilterClause& clause : clauses) {
    Compiled c;
    c.column = schema.indexOf(clause.column);  // throws if absent
    const auto* text = std::get_if<std::string>(&clause.literal);
    switch (schema.column(c.column).type) {
      case data::ColumnType::Int:
        if (text != nullptr) {
          throw ConfigError("Filter: column '" + clause.column +
                            "' is int but the literal is text");
        }
        break;
      case data::ColumnType::Text:
        if (text == nullptr) {
          throw ConfigError("Filter: column '" + clause.column +
                            "' is text but the literal is int");
        }
        if (clause.op != FilterOp::Eq && clause.op != FilterOp::Ne) {
          throw ConfigError("Filter: text column '" + clause.column +
                            "' supports only == and !=");
        }
        break;
      case data::ColumnType::Real:
        throw ConfigError("Filter: real columns are not filterable "
                          "(column '" + clause.column + "')");
    }
    if (text != nullptr) {
      c.test = clause.op == FilterOp::Eq ? Compiled::Test::TextEq
                                         : Compiled::Test::TextNe;
      c.text = text;
      compiled.push_back(c);
      continue;
    }
    const Value v = std::get<Value>(clause.literal);
    c.lo = kMinValue;
    c.hi = kMaxValue;
    // Nothing lies below INT64_MIN or above INT64_MAX, so `< INT64_MIN` and
    // `> INT64_MAX` compile to the empty range [INT64_MAX, INT64_MIN].
    switch (clause.op) {
      case FilterOp::Eq: c.lo = c.hi = v; break;
      case FilterOp::Ne:
        c.test = Compiled::Test::IntNe;
        c.lo = v;
        break;
      case FilterOp::Lt:
        if (v == kMinValue) std::swap(c.lo, c.hi);
        else c.hi = v - 1;
        break;
      case FilterOp::Le: c.hi = v; break;
      case FilterOp::Gt:
        if (v == kMaxValue) std::swap(c.lo, c.hi);
        else c.lo = v + 1;
        break;
      case FilterOp::Ge: c.lo = v; break;
    }
    compiled.push_back(c);
  }
  return compiled;
}

}  // namespace

Filter::Filter(std::vector<FilterClause> clauses)
    : clauses_(std::move(clauses)) {}

void Filter::validateAgainst(const data::Schema& schema) const {
  (void)compile(clauses_, schema);
}

std::vector<Value> Filter::select(const data::Table& table,
                                 const std::vector<Value>& column) const {
  if (column.size() != table.rowCount()) {
    throw SchemaError("Filter::select: the column is not one of the table's");
  }
  if (clauses_.empty()) return column;
  const std::vector<Compiled> compiled = compile(clauses_, table.schema());
  const std::size_t rows = column.size();
  // Store every value, advance past the kept ones: no branch per row.
  std::vector<Value> selected(rows);
  std::size_t kept = 0;
  if (compiled.size() == 1 && compiled[0].test == Compiled::Test::IntRange) {
    const Compiled& range = compiled[0];
    const Value* cells = table.intColumnAt(range.column).data();
    for (std::size_t row = 0; row < rows; ++row) {
      selected[kept] = column[row];
      kept += range.accepts(cells[row]);
    }
  } else {
    std::vector<std::uint8_t> keep(rows, 1);
    for (const Compiled& c : compiled) {
      if (c.isInt()) {
        const std::vector<Value>& cells = table.intColumnAt(c.column);
        for (std::size_t row = 0; row < rows; ++row) {
          keep[row] &= static_cast<std::uint8_t>(c.accepts(cells[row]));
        }
      } else {
        const std::vector<std::string>& cells = table.textColumnAt(c.column);
        for (std::size_t row = 0; row < rows; ++row) {
          keep[row] &= static_cast<std::uint8_t>(c.accepts(cells[row]));
        }
      }
    }
    for (std::size_t row = 0; row < rows; ++row) {
      selected[kept] = column[row];
      kept += keep[row];
    }
  }
  selected.resize(kept);
  return selected;
}

data::RowPredicate Filter::predicate() const {
  if (clauses_.empty()) return {};
  // Every copy of the predicate shares the immutable clauses its compiled
  // text literals point into, and keeps its own compilation cache.
  auto clauses = std::make_shared<const std::vector<FilterClause>>(clauses_);
  return [clauses, compiledFor = static_cast<const data::Table*>(nullptr),
          compiled = std::vector<Compiled>()](const data::Table& table,
                                              std::size_t row) mutable {
    if (&table != compiledFor) {
      compiled = compile(*clauses, table.schema());
      compiledFor = &table;
    }
    for (const Compiled& c : compiled) {
      if (!c.acceptsRow(table, row)) return false;
    }
    return true;
  };
}

void Filter::encodeTo(ByteWriter& w) const {
  w.writeVarint(clauses_.size());
  for (const auto& clause : clauses_) {
    w.writeString(clause.column);
    w.writeU8(static_cast<std::uint8_t>(clause.op));
    if (const auto* value = std::get_if<Value>(&clause.literal)) {
      w.writeU8(0);
      w.writeI64(*value);
    } else {
      w.writeU8(1);
      w.writeString(std::get<std::string>(clause.literal));
    }
  }
}

Filter Filter::decodeFrom(ByteReader& r) {
  const std::uint64_t count = r.readVarint();
  if (count > 1024) throw ProtocolError("Filter: too many clauses");
  std::vector<FilterClause> clauses;
  clauses.reserve(count);
  for (std::uint64_t i = 0; i < count; ++i) {
    FilterClause clause;
    clause.column = r.readString();
    const std::uint8_t rawOp = r.readU8();
    if (rawOp > static_cast<std::uint8_t>(FilterOp::Ge)) {
      throw ProtocolError("Filter: unknown operator");
    }
    clause.op = static_cast<FilterOp>(rawOp);
    const std::uint8_t literalKind = r.readU8();
    if (literalKind == 0) {
      clause.literal = r.readI64();
    } else if (literalKind == 1) {
      clause.literal = r.readString();
    } else {
      throw ProtocolError("Filter: unknown literal kind");
    }
    clauses.push_back(std::move(clause));
  }
  return Filter(std::move(clauses));
}

Filter Filter::parse(const std::string& text) {
  if (text.empty()) return Filter();
  std::vector<FilterClause> clauses;
  for (const std::string& part : splitString(text, ',')) {
    // Longest-match operator scan.
    static constexpr std::pair<const char*, FilterOp> kOps[] = {
        {"==", FilterOp::Eq}, {"!=", FilterOp::Ne}, {"<=", FilterOp::Le},
        {">=", FilterOp::Ge}, {"<", FilterOp::Lt},  {">", FilterOp::Gt},
        {"=", FilterOp::Eq},
    };
    FilterClause clause;
    std::string rhs;
    bool matched = false;
    for (const auto& [symbol, op] : kOps) {
      const std::size_t pos = part.find(symbol);
      if (pos == std::string::npos || pos == 0) continue;
      clause.column = part.substr(0, pos);
      clause.op = op;
      rhs = part.substr(pos + std::string(symbol).size());
      matched = true;
      break;
    }
    if (!matched || rhs.empty()) {
      throw ConfigError("Filter::parse: cannot parse clause '" + part + "'");
    }
    Value value = 0;
    const auto [ptr, ec] =
        std::from_chars(rhs.data(), rhs.data() + rhs.size(), value);
    if (ec == std::errc() && ptr == rhs.data() + rhs.size()) {
      clause.literal = value;
    } else {
      clause.literal = rhs;
    }
    clauses.push_back(std::move(clause));
  }
  return Filter(std::move(clauses));
}

}  // namespace privtopk::query
