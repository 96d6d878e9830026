#ifndef DFLOW_DB_EXECUTOR_H_
#define DFLOW_DB_EXECUTOR_H_

#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "db/catalog.h"
#include "db/parser.h"
#include "util/result.h"

namespace dflow::db {

/// Materialized result of a query: output column names plus rows.
/// Mutating statements report `affected` and leave columns/rows empty.
struct QueryResult {
  std::vector<std::string> columns;
  std::vector<Row> rows;
  int64_t affected = 0;

  /// ASCII table rendering for examples and debugging.
  std::string ToString() const;
};

/// Receives each row a scan yields, decoded once and handed over to keep;
/// returns false to stop the scan.
using RowVisitor = std::function<bool(RowId, Row&&)>;

/// The one read path into a table: hands `visit` each row of `table` that
/// passes `where` (null = every row; bound to the table's schema). When a
/// top-level AND conjunct is `indexed_column <op> literal` the rows come
/// through that B+Tree in key order; otherwise the heap is walked in
/// physical order, pinning each page once.
Status ScanTable(const TableInfo& table, const ExprPtr& where,
                 const RowVisitor& visit);

/// The equality form: the rows whose `column` equals `key` (SQL `=`, so a
/// NULL key matches nothing), through the column's index when it has one.
Status ScanTable(const TableInfo& table, std::string_view column, Value key,
                 const RowVisitor& visit);

/// Executes a SELECT against the catalog. Both inputs of a join, like a
/// one-table query, are read through ScanTable; joins are
/// index-nested-loop when the inner join key is indexed, else nested-loop.
Result<QueryResult> ExecuteSelect(const Catalog& catalog,
                                  const SelectStmt& stmt);

/// Database's UPDATE/DELETE step: binds `where` (null = all) and collects
/// the RowIds and rows of `table` that match, through ScanTable.
Result<std::vector<std::pair<RowId, Row>>> CollectMatches(
    const TableInfo& table, const ExprPtr& where);

}  // namespace dflow::db

#endif  // DFLOW_DB_EXECUTOR_H_
