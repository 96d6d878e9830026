#ifndef DFLOW_DB_SCHEMA_H_
#define DFLOW_DB_SCHEMA_H_

#include <string>
#include <vector>

#include "db/value.h"
#include "util/result.h"

namespace dflow::db {

/// One column of a table: name, declared type, nullability.
struct Column {
  std::string name;
  Type type = Type::kInt64;
  bool nullable = true;
};

/// A tuple; values are positionally matched to a Schema.
using Row = std::vector<Value>;

/// Ordered list of columns describing a table or an intermediate operator
/// output.
class Schema {
 public:
  Schema() = default;
  explicit Schema(std::vector<Column> columns);

  size_t NumColumns() const { return columns_.size(); }
  const Column& ColumnAt(size_t i) const { return columns_[i]; }
  const std::vector<Column>& columns() const { return columns_; }

  /// Index of `name`, or NotFound. Name comparison is case-insensitive,
  /// matching the SQL layer. Joined schemas carry qualified column names
  /// ("table.column"); lookup falls back both ways: an unqualified query
  /// name matches a unique ".name" suffix, and a qualified query name whose
  /// exact form is absent matches its unqualified tail. Ambiguous matches
  /// are an error.
  Result<size_t> IndexOf(std::string_view name) const;

  /// Checks arity, column types (kInt64 widens to kDouble targets), and
  /// nullability of `row` against this schema without copying it. Returns
  /// whether some kInt64 value must widen to its kDouble column.
  Result<bool> CheckRow(const Row& row) const;

  /// CheckRow, then returns the row with any widening applied.
  Result<Row> ValidateRow(Row row) const;

  /// Serialization for the WAL and catalogs.
  void EncodeTo(ByteWriter& w) const;
  static Result<Schema> DecodeFrom(ByteReader& r);

  std::string ToString() const;

 private:
  std::vector<Column> columns_;
};

/// Serializes a full row (column count + values).
void EncodeRow(const Row& row, ByteWriter& w);
Result<Row> DecodeRow(ByteReader& r);

}  // namespace dflow::db

#endif  // DFLOW_DB_SCHEMA_H_
