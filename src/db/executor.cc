#include "db/executor.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>
#include <sstream>

#include "util/strings.h"

namespace dflow::db {

namespace {

/// True when `v` is SQL TRUE (not NULL, not FALSE).
bool IsTrue(const Value& v) {
  return !v.is_null() && v.type() == Type::kBool && v.AsBool();
}

/// Evaluates `where` (may be null = accept) against `row`; the expression
/// must already be bound.
Result<bool> PassesFilter(const ExprPtr& where, const Row& row) {
  if (where == nullptr) {
    return true;
  }
  DFLOW_ASSIGN_OR_RETURN(Value v, where->Eval(row));
  return IsTrue(v);
}

/// Builds the combined output schema of a join. Columns whose plain names
/// are unique across both inputs keep them; colliding names are qualified
/// as "table.column".
Schema JoinSchema(const TableInfo& left, const TableInfo& right) {
  std::map<std::string, int> name_counts;
  for (const auto* table : {&left, &right}) {
    for (const Column& col : table->heap->schema().columns()) {
      ++name_counts[ToLower(col.name)];
    }
  }
  std::vector<Column> columns;
  for (const auto* table : {&left, &right}) {
    for (const Column& col : table->heap->schema().columns()) {
      Column out = col;
      if (name_counts[ToLower(col.name)] > 1) {
        out.name = table->name + "." + col.name;
      }
      columns.push_back(std::move(out));
    }
  }
  return Schema(std::move(columns));
}

struct AggState {
  int64_t count = 0;
  double sum = 0.0;
  bool sum_is_int = true;
  int64_t isum = 0;
  Value min_value;
  Value max_value;
  bool has_minmax = false;

  void Add(const Value& v) {
    if (v.is_null()) {
      return;  // SQL aggregates skip NULLs.
    }
    ++count;
    if (v.type() == Type::kInt64) {
      isum += v.AsInt();
      sum += static_cast<double>(v.AsInt());
    } else if (v.type() == Type::kDouble) {
      sum_is_int = false;
      sum += v.AsDouble();
    } else {
      sum_is_int = false;  // SUM/AVG invalid; MIN/MAX still fine.
    }
    if (!has_minmax || v.Compare(min_value) < 0) {
      min_value = v;
    }
    if (!has_minmax || v.Compare(max_value) > 0) {
      max_value = v;
    }
    has_minmax = true;
  }

  Value Finish(AggFunc func) const {
    switch (func) {
      case AggFunc::kCount:
        return Value::Int(count);
      case AggFunc::kSum:
        if (count == 0) {
          return Value::Null();
        }
        return sum_is_int ? Value::Int(isum) : Value::Double(sum);
      case AggFunc::kAvg:
        if (count == 0) {
          return Value::Null();
        }
        return Value::Double(sum / static_cast<double>(count));
      case AggFunc::kMin:
        return has_minmax ? min_value : Value::Null();
      case AggFunc::kMax:
        return has_minmax ? max_value : Value::Null();
      case AggFunc::kNone:
        break;
    }
    return Value::Null();
  }
};

std::string ItemName(const SelectItem& item, size_t index) {
  if (!item.alias.empty()) {
    return item.alias;
  }
  if (item.agg != AggFunc::kNone) {
    static const char* kNames[] = {"", "count", "sum", "min", "max", "avg"};
    std::string inner = item.star ? "*" : item.expr->ToString();
    return std::string(kNames[static_cast<int>(item.agg)]) + "(" + inner +
           ")";
  }
  if (item.expr != nullptr) {
    return item.expr->ToString();
  }
  return "col" + std::to_string(index);
}

}  // namespace

Status ScanTable(const TableInfo& table, const ExprPtr& where,
                 const RowVisitor& visit) {
  // Look through the conjuncts of `where` for a predicate one of the
  // table's indexes can serve; the full predicate still filters each row.
  const IndexInfo* chosen_index = nullptr;
  BinOp op = BinOp::kEq;
  Value literal;
  if (where != nullptr) {
    std::vector<ExprPtr> conjuncts;
    Expr::SplitConjuncts(where, &conjuncts);
    for (const ExprPtr& conjunct : conjuncts) {
      std::string column;
      BinOp candidate_op;
      Value candidate_literal;
      if (!conjunct->MatchSimplePredicate(&column, &candidate_op,
                                          &candidate_literal)) {
        continue;
      }
      const IndexInfo* index = table.FindIndexOnColumn(column);
      if (index != nullptr) {
        chosen_index = index;
        op = candidate_op;
        literal = candidate_literal;
        if (op == BinOp::kEq) {
          break;  // Equality is the best we can do; stop looking.
        }
      }
    }
  }

  // A row that passes the filter goes to `visit`; a failed read or filter
  // stops the scan with its status.
  Status scan_status = Status::OK();
  auto offer = [&](RowId rid, Row&& row) -> bool {
    auto pass = PassesFilter(where, row);
    if (!pass.ok()) {
      scan_status = pass.status();
      return false;
    }
    return !*pass || visit(rid, std::move(row));
  };

  if (chosen_index != nullptr) {
    const Value* lo = nullptr;
    const Value* hi = nullptr;
    bool lo_inc = true, hi_inc = true;
    switch (op) {
      case BinOp::kEq:
        lo = hi = &literal;
        break;
      case BinOp::kLt:
        hi = &literal;
        hi_inc = false;
        break;
      case BinOp::kLe:
        hi = &literal;
        break;
      case BinOp::kGt:
        lo = &literal;
        lo_inc = false;
        break;
      case BinOp::kGe:
        lo = &literal;
        break;
      default:
        break;
    }
    chosen_index->tree->Scan(lo, lo_inc, hi, hi_inc,
                             [&](const Value&, RowId rid) {
                               auto row = table.heap->Get(rid);
                               if (!row.ok()) {
                                 scan_status = row.status();
                                 return false;
                               }
                               return offer(rid, *std::move(row));
                             });
    return scan_status;
  }
  DFLOW_RETURN_IF_ERROR(table.heap->ForEach(offer));
  return scan_status;
}

Status ScanTable(const TableInfo& table, std::string_view column, Value key,
                 const RowVisitor& visit) {
  ExprPtr where =
      Expr::Binary(BinOp::kEq, Expr::ColumnRef(std::string(column)),
                   Expr::Literal(std::move(key)));
  DFLOW_RETURN_IF_ERROR(where->Bind(table.heap->schema()));
  return ScanTable(table, where, visit);
}

Result<std::vector<std::pair<RowId, Row>>> CollectMatches(
    const TableInfo& table, const ExprPtr& where) {
  if (where != nullptr) {
    DFLOW_RETURN_IF_ERROR(where->Bind(table.heap->schema()));
  }
  std::vector<std::pair<RowId, Row>> matches;
  DFLOW_RETURN_IF_ERROR(ScanTable(table, where, [&](RowId rid, Row&& row) {
    matches.emplace_back(rid, std::move(row));
    return true;
  }));
  return matches;
}

Result<QueryResult> ExecuteSelect(const Catalog& catalog,
                                  const SelectStmt& stmt) {
  DFLOW_ASSIGN_OR_RETURN(TableInfo * left, catalog.Get(stmt.table));

  Schema input_schema = left->heap->schema();
  std::vector<Row> input_rows;
  auto keep_in = [](std::vector<Row>* rows) -> RowVisitor {
    return [rows](RowId, Row&& row) {
      rows->push_back(std::move(row));
      return true;
    };
  };

  if (!stmt.join.has_value()) {
    ExprPtr where = stmt.where;
    if (where != nullptr) {
      DFLOW_RETURN_IF_ERROR(where->Bind(input_schema));
    }
    DFLOW_RETURN_IF_ERROR(ScanTable(*left, where, keep_in(&input_rows)));
  } else {
    DFLOW_ASSIGN_OR_RETURN(TableInfo * right, catalog.Get(stmt.join->table));
    input_schema = JoinSchema(*left, *right);
    ExprPtr on = stmt.join->on;
    if (on == nullptr) {
      return Status::InvalidArgument("JOIN requires an ON clause");
    }
    DFLOW_RETURN_IF_ERROR(on->Bind(input_schema));
    ExprPtr where = stmt.where;
    if (where != nullptr) {
      DFLOW_RETURN_IF_ERROR(where->Bind(input_schema));
    }

    // Index-nested-loop when the ON clause is an equi-join and the inner
    // (right) join column is indexed; otherwise plain nested loop.
    std::vector<Row> left_rows;
    DFLOW_RETURN_IF_ERROR(ScanTable(*left, nullptr, keep_in(&left_rows)));

    // Probe for the INL opportunity: `a = b` over two bound column refs,
    // one on each side of the join (positions below/above left_width in
    // the combined schema), with the right column indexed.
    size_t left_width = left->heap->schema().NumColumns();
    const std::string* probe_column = nullptr;
    size_t left_key_index = 0;
    {
      auto [bound_a, bound_b] = on->EquiJoinBoundIndexes();
      int left_bound = -1, right_bound = -1;
      if (bound_a >= 0 && bound_b >= 0) {
        if (bound_a < static_cast<int>(left_width) &&
            bound_b >= static_cast<int>(left_width)) {
          left_bound = bound_a;
          right_bound = bound_b;
        } else if (bound_b < static_cast<int>(left_width) &&
                   bound_a >= static_cast<int>(left_width)) {
          left_bound = bound_b;
          right_bound = bound_a;
        }
      }
      if (left_bound >= 0) {
        size_t right_pos = static_cast<size_t>(right_bound) - left_width;
        const std::string& name =
            right->heap->schema().ColumnAt(right_pos).name;
        if (right->FindIndexOnColumn(name) != nullptr) {
          probe_column = &name;
        }
        left_key_index = static_cast<size_t>(left_bound);
      }
    }
    auto emit = [&](const Row& lrow, const Row& rrow) -> Status {
      Row combined;
      combined.reserve(left_width + rrow.size());
      combined.insert(combined.end(), lrow.begin(), lrow.end());
      combined.insert(combined.end(), rrow.begin(), rrow.end());
      DFLOW_ASSIGN_OR_RETURN(Value on_value, on->Eval(combined));
      if (!IsTrue(on_value)) {
        return Status::OK();
      }
      DFLOW_ASSIGN_OR_RETURN(bool pass, PassesFilter(where, combined));
      if (pass) {
        input_rows.push_back(std::move(combined));
      }
      return Status::OK();
    };

    if (probe_column != nullptr) {
      Status emitted = Status::OK();
      for (const Row& lrow : left_rows) {
        DFLOW_RETURN_IF_ERROR(ScanTable(*right, *probe_column,
                                        lrow[left_key_index],
                                        [&](RowId, Row&& rrow) {
                                          emitted = emit(lrow, rrow);
                                          return emitted.ok();
                                        }));
        DFLOW_RETURN_IF_ERROR(emitted);
      }
    } else {
      std::vector<Row> right_rows;
      DFLOW_RETURN_IF_ERROR(ScanTable(*right, nullptr, keep_in(&right_rows)));
      for (const Row& lrow : left_rows) {
        for (const Row& rrow : right_rows) {
          DFLOW_RETURN_IF_ERROR(emit(lrow, rrow));
        }
      }
    }
  }

  // --- Aggregation / projection ---
  bool has_agg = !stmt.group_by.empty();
  for (const SelectItem& item : stmt.items) {
    if (item.agg != AggFunc::kNone) {
      has_agg = true;
    }
  }

  QueryResult result;
  std::vector<Row> output_rows;
  // With ORDER BY, one sort key per output row; one stable sort below.
  std::vector<Row> sort_keys;
  auto add_sort_key = [&](const Row& row) -> Status {
    if (stmt.order_by.empty()) {
      return Status::OK();
    }
    Row key;
    key.reserve(stmt.order_by.size());
    for (const OrderByItem& item : stmt.order_by) {
      DFLOW_ASSIGN_OR_RETURN(Value v, item.expr->Eval(row));
      key.push_back(std::move(v));
    }
    sort_keys.push_back(std::move(key));
    return Status::OK();
  };

  if (has_agg) {
    for (const ExprPtr& e : stmt.group_by) {
      DFLOW_RETURN_IF_ERROR(e->Bind(input_schema));
    }
    for (const SelectItem& item : stmt.items) {
      if (item.star && item.agg == AggFunc::kNone) {
        return Status::InvalidArgument("SELECT * with aggregates");
      }
      if (item.expr != nullptr) {
        DFLOW_RETURN_IF_ERROR(item.expr->Bind(input_schema));
      }
    }
    // Group rows. Key = encoded group-by values; the ordered map gives
    // the groups in encoded-key order, the same on every run.
    struct Group {
      Row first_row;
      std::vector<AggState> aggs;
    };
    std::map<std::string, Group> groups;
    for (const Row& row : input_rows) {
      ByteWriter key_writer;
      for (const ExprPtr& e : stmt.group_by) {
        DFLOW_ASSIGN_OR_RETURN(Value v, e->Eval(row));
        v.EncodeTo(key_writer);
      }
      auto [it, inserted] = groups.try_emplace(key_writer.Take());
      Group& group = it->second;
      if (inserted) {
        group.first_row = row;
        group.aggs.resize(stmt.items.size());
      }
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        const SelectItem& item = stmt.items[i];
        if (item.agg == AggFunc::kNone) {
          continue;
        }
        if (item.star) {
          group.aggs[i].count += 1;  // COUNT(*) counts rows.
        } else {
          DFLOW_ASSIGN_OR_RETURN(Value v, item.expr->Eval(row));
          group.aggs[i].Add(v);
        }
      }
    }
    // With no GROUP BY, aggregates over an empty input still yield one row.
    if (groups.empty() && stmt.group_by.empty()) {
      Group group;
      group.aggs.resize(stmt.items.size());
      groups.emplace("", std::move(group));
    }
    for (auto& [key_bytes, group] : groups) {
      Row out;
      out.reserve(stmt.items.size());
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        const SelectItem& item = stmt.items[i];
        if (item.agg != AggFunc::kNone) {
          if (item.star) {
            out.push_back(Value::Int(group.aggs[i].count));
          } else {
            out.push_back(group.aggs[i].Finish(item.agg));
          }
        } else {
          // Non-aggregate item: evaluate on the group's first row
          // (columns here should be group-by expressions).
          if (group.first_row.empty()) {
            out.push_back(Value::Null());
          } else {
            DFLOW_ASSIGN_OR_RETURN(Value v, item.expr->Eval(group.first_row));
            out.push_back(std::move(v));
          }
        }
      }
      output_rows.push_back(std::move(out));
    }
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      result.columns.push_back(ItemName(stmt.items[i], i));
    }

    // HAVING filters the aggregated groups. It and ORDER BY bind against
    // the output columns (aliases and derived aggregate names), and the
    // sort keys come from the output rows.
    std::vector<Column> out_columns;
    for (const std::string& name : result.columns) {
      out_columns.push_back(Column{name, Type::kString, true});
    }
    Schema out_schema(std::move(out_columns));
    if (stmt.having != nullptr) {
      DFLOW_RETURN_IF_ERROR(stmt.having->Bind(out_schema));
      std::vector<Row> kept;
      kept.reserve(output_rows.size());
      for (Row& row : output_rows) {
        DFLOW_ASSIGN_OR_RETURN(Value verdict, stmt.having->Eval(row));
        if (IsTrue(verdict)) {
          kept.push_back(std::move(row));
        }
      }
      output_rows = std::move(kept);
    }
    for (const OrderByItem& item : stmt.order_by) {
      DFLOW_RETURN_IF_ERROR(item.expr->Bind(out_schema));
    }
    for (const Row& row : output_rows) {
      DFLOW_RETURN_IF_ERROR(add_sort_key(row));
    }
  } else {
    // Plain projection.
    std::vector<ExprPtr> projections;
    for (const SelectItem& item : stmt.items) {
      if (item.star) {
        for (const Column& col : input_schema.columns()) {
          result.columns.push_back(col.name);
          ExprPtr ref = Expr::ColumnRef(col.name);
          DFLOW_RETURN_IF_ERROR(ref->Bind(input_schema));
          projections.push_back(std::move(ref));
        }
        continue;
      }
      DFLOW_RETURN_IF_ERROR(item.expr->Bind(input_schema));
      result.columns.push_back(ItemName(item, projections.size()));
      projections.push_back(item.expr);
    }
    // The sort keys come from the *input* row (so you can order by columns
    // you did not project).
    for (const OrderByItem& item : stmt.order_by) {
      DFLOW_RETURN_IF_ERROR(item.expr->Bind(input_schema));
    }
    output_rows.reserve(input_rows.size());
    for (const Row& row : input_rows) {
      Row out;
      out.reserve(projections.size());
      for (const ExprPtr& e : projections) {
        DFLOW_ASSIGN_OR_RETURN(Value v, e->Eval(row));
        out.push_back(std::move(v));
      }
      output_rows.push_back(std::move(out));
      DFLOW_RETURN_IF_ERROR(add_sort_key(row));
    }
    if (stmt.having != nullptr) {
      return Status::InvalidArgument("HAVING requires aggregation");
    }
  }

  if (!stmt.order_by.empty()) {
    std::vector<size_t> order(output_rows.size());
    std::iota(order.begin(), order.end(), size_t{0});
    std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      for (size_t i = 0; i < stmt.order_by.size(); ++i) {
        int c = sort_keys[a][i].Compare(sort_keys[b][i]);
        if (c != 0) {
          return stmt.order_by[i].descending ? c > 0 : c < 0;
        }
      }
      return false;
    });
    std::vector<Row> sorted;
    sorted.reserve(order.size());
    for (size_t i : order) {
      sorted.push_back(std::move(output_rows[i]));
    }
    output_rows = std::move(sorted);
  }

  // DISTINCT: drop duplicate output rows, keeping first occurrence (so it
  // composes with ORDER BY), before LIMIT applies.
  if (stmt.distinct) {
    std::set<std::string> seen;
    std::vector<Row> unique_rows;
    unique_rows.reserve(output_rows.size());
    for (Row& row : output_rows) {
      ByteWriter encoded;
      EncodeRow(row, encoded);
      if (seen.insert(encoded.Take()).second) {
        unique_rows.push_back(std::move(row));
      }
    }
    output_rows = std::move(unique_rows);
  }

  if (stmt.offset > 0) {
    size_t skip = std::min(output_rows.size(),
                           static_cast<size_t>(stmt.offset));
    output_rows.erase(output_rows.begin(),
                      output_rows.begin() + static_cast<int64_t>(skip));
  }
  if (stmt.limit >= 0 &&
      output_rows.size() > static_cast<size_t>(stmt.limit)) {
    output_rows.resize(static_cast<size_t>(stmt.limit));
  }
  result.rows = std::move(output_rows);
  return result;
}

std::string QueryResult::ToString() const {
  std::vector<size_t> widths(columns.size());
  for (size_t i = 0; i < columns.size(); ++i) {
    widths[i] = columns[i].size();
  }
  std::vector<std::vector<std::string>> cells;
  cells.reserve(rows.size());
  for (const Row& row : rows) {
    std::vector<std::string> line;
    line.reserve(row.size());
    for (size_t i = 0; i < row.size(); ++i) {
      line.push_back(row[i].ToString());
      if (i < widths.size()) {
        widths[i] = std::max(widths[i], line.back().size());
      }
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream os;
  auto rule = [&] {
    os << "+";
    for (size_t w : widths) {
      os << std::string(w + 2, '-') << "+";
    }
    os << "\n";
  };
  rule();
  os << "|";
  for (size_t i = 0; i < columns.size(); ++i) {
    os << " " << columns[i] << std::string(widths[i] - columns[i].size(), ' ')
       << " |";
  }
  os << "\n";
  rule();
  for (const auto& line : cells) {
    os << "|";
    for (size_t i = 0; i < line.size(); ++i) {
      size_t w = i < widths.size() ? widths[i] : line[i].size();
      os << " " << line[i]
         << std::string(w >= line[i].size() ? w - line[i].size() : 0, ' ')
         << " |";
    }
    os << "\n";
  }
  rule();
  os << rows.size() << " row(s)";
  return os.str();
}

}  // namespace dflow::db
