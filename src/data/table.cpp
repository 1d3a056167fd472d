#include "data/table.hpp"

#include <unordered_set>

namespace privtopk::data {

std::string toString(ColumnType t) {
  switch (t) {
    case ColumnType::Int: return "int";
    case ColumnType::Real: return "real";
    case ColumnType::Text: return "text";
  }
  return "?";
}

Schema::Schema(std::vector<ColumnSpec> columns) : columns_(std::move(columns)) {
  std::unordered_set<std::string> seen;
  for (const auto& c : columns_) {
    if (!seen.insert(c.name).second) {
      throw SchemaError("Schema: duplicate column '" + c.name + "'");
    }
  }
}

std::size_t Schema::indexOf(const std::string& name) const {
  for (std::size_t i = 0; i < columns_.size(); ++i) {
    if (columns_[i].name == name) return i;
  }
  throw SchemaError("Schema: no column named '" + name + "'");
}

bool Schema::has(const std::string& name) const {
  for (const auto& c : columns_) {
    if (c.name == name) return true;
  }
  return false;
}

Table::Table(Schema schema) : schema_(std::move(schema)) {
  columns_.reserve(schema_.columnCount());
  for (std::size_t i = 0; i < schema_.columnCount(); ++i) {
    switch (schema_.column(i).type) {
      case ColumnType::Int:
        columns_.emplace_back(std::vector<Value>{});
        break;
      case ColumnType::Real:
        columns_.emplace_back(std::vector<double>{});
        break;
      case ColumnType::Text:
        columns_.emplace_back(std::vector<std::string>{});
        break;
    }
  }
}

void Table::appendRow(const std::vector<Cell>& row) {
  if (row.size() != schema_.columnCount()) {
    throw SchemaError("Table::appendRow: cell count mismatch");
  }
  // Validate all cells before mutating any column so a bad row cannot leave
  // columns with uneven lengths.
  for (std::size_t i = 0; i < row.size(); ++i) {
    const ColumnType want = schema_.column(i).type;
    const bool ok = (want == ColumnType::Int &&
                     std::holds_alternative<Value>(row[i])) ||
                    (want == ColumnType::Real &&
                     std::holds_alternative<double>(row[i])) ||
                    (want == ColumnType::Text &&
                     std::holds_alternative<std::string>(row[i]));
    if (!ok) {
      throw SchemaError("Table::appendRow: type mismatch in column '" +
                        schema_.column(i).name + "'");
    }
  }
  for (std::size_t i = 0; i < row.size(); ++i) {
    switch (schema_.column(i).type) {
      case ColumnType::Int:
        std::get<std::vector<Value>>(columns_[i]).push_back(
            std::get<Value>(row[i]));
        break;
      case ColumnType::Real:
        std::get<std::vector<double>>(columns_[i]).push_back(
            std::get<double>(row[i]));
        break;
      case ColumnType::Text:
        std::get<std::vector<std::string>>(columns_[i]).push_back(
            std::get<std::string>(row[i]));
        break;
    }
  }
  ++rowCount_;
}

const std::vector<Value>& Table::intColumn(const std::string& name) const {
  return intColumnAt(schema_.indexOf(name));
}

const std::vector<double>& Table::realColumn(const std::string& name) const {
  const std::size_t i = schema_.indexOf(name);
  if (schema_.column(i).type != ColumnType::Real) {
    throw SchemaError("Table::realColumn: '" + name +
                      "' is not a real column");
  }
  return std::get<std::vector<double>>(columns_[i]);
}

const std::vector<std::string>& Table::textColumn(
    const std::string& name) const {
  return textColumnAt(schema_.indexOf(name));
}

const std::vector<Value>& Table::intColumnAt(std::size_t index) const {
  if (schema_.column(index).type != ColumnType::Int) {
    throw SchemaError("Table::intColumn: '" + schema_.column(index).name +
                      "' is not an int column");
  }
  return std::get<std::vector<Value>>(columns_[index]);
}

const std::vector<std::string>& Table::textColumnAt(std::size_t index) const {
  if (schema_.column(index).type != ColumnType::Text) {
    throw SchemaError("Table::textColumn: '" + schema_.column(index).name +
                      "' is not a text column");
  }
  return std::get<std::vector<std::string>>(columns_[index]);
}

Cell Table::at(std::size_t row, std::size_t col) const {
  if (row >= rowCount_) throw SchemaError("Table::at: row out of range");
  switch (schema_.column(col).type) {
    case ColumnType::Int:
      return std::get<std::vector<Value>>(columns_[col])[row];
    case ColumnType::Real:
      return std::get<std::vector<double>>(columns_[col])[row];
    case ColumnType::Text:
      return std::get<std::vector<std::string>>(columns_[col])[row];
  }
  throw SchemaError("Table::at: bad column type");
}

}  // namespace privtopk::data
