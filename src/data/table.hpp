// A small typed, columnar in-memory table: the storage layer of a private
// database.  Columns are Int (attribute values), Real, or Text.  The paper
// assumes schemas are matched across parties, so Table carries an explicit
// schema that PrivateDatabase checks at query time.

#pragma once

#include <cstddef>
#include <string>
#include <variant>
#include <vector>

#include "common/error.hpp"
#include "common/types.hpp"

namespace privtopk::data {

enum class ColumnType { Int, Real, Text };

[[nodiscard]] std::string toString(ColumnType t);

/// One cell of a row.
using Cell = std::variant<Value, double, std::string>;

/// Column descriptor.
struct ColumnSpec {
  std::string name;
  ColumnType type;

  friend bool operator==(const ColumnSpec&, const ColumnSpec&) = default;
};

/// Table schema: ordered column specs with unique names.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<ColumnSpec> columns);

  [[nodiscard]] std::size_t columnCount() const { return columns_.size(); }
  [[nodiscard]] const ColumnSpec& column(std::size_t i) const {
    return columns_.at(i);
  }
  [[nodiscard]] const std::vector<ColumnSpec>& columns() const {
    return columns_;
  }

  /// Index of the named column; throws SchemaError if absent.
  [[nodiscard]] std::size_t indexOf(const std::string& name) const;
  [[nodiscard]] bool has(const std::string& name) const;

  friend bool operator==(const Schema&, const Schema&) = default;

 private:
  std::vector<ColumnSpec> columns_;
};

/// Columnar table.  Rows are appended; cells are stored per column.
class Table {
 public:
  explicit Table(Schema schema);

  [[nodiscard]] const Schema& schema() const { return schema_; }
  [[nodiscard]] std::size_t rowCount() const { return rowCount_; }

  /// Appends a row; the cell count and types must match the schema.
  void appendRow(const std::vector<Cell>& row);

  /// Typed column accessors; throw SchemaError on name or type mismatch.
  [[nodiscard]] const std::vector<Value>& intColumn(
      const std::string& name) const;
  [[nodiscard]] const std::vector<double>& realColumn(
      const std::string& name) const;
  [[nodiscard]] const std::vector<std::string>& textColumn(
      const std::string& name) const;

  /// Typed column access by schema position (see Schema::indexOf), with no
  /// name lookup; throws SchemaError on a type mismatch.
  [[nodiscard]] const std::vector<Value>& intColumnAt(std::size_t index) const;
  [[nodiscard]] const std::vector<std::string>& textColumnAt(
      std::size_t index) const;

  /// Cell access by (row, column index).
  [[nodiscard]] Cell at(std::size_t row, std::size_t col) const;

 private:
  using ColumnData = std::variant<std::vector<Value>, std::vector<double>,
                                  std::vector<std::string>>;

  Schema schema_;
  std::vector<ColumnData> columns_;
  std::size_t rowCount_ = 0;
};

}  // namespace privtopk::data
