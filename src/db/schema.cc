#include "db/schema.h"

#include <sstream>

#include "util/strings.h"

namespace dflow::db {

Schema::Schema(std::vector<Column> columns) : columns_(std::move(columns)) {}

Result<size_t> Schema::IndexOf(std::string_view name) const {
  std::string lower = ToLower(name);
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (ToLower(columns_[i].name) == lower) {
      return i;
    }
  }
  // Fallback 1: unqualified query name vs qualified schema names.
  if (lower.find('.') == std::string::npos) {
    std::string suffix = "." + lower;
    size_t found = columns_.size();
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (EndsWith(ToLower(columns_[i].name), suffix)) {
        if (found != columns_.size()) {
          return Status::InvalidArgument("ambiguous column name '" +
                                         std::string(name) + "'");
        }
        found = i;
      }
    }
    if (found != columns_.size()) {
      return found;
    }
  } else {
    // Fallback 2: qualified query name vs unqualified schema names.
    std::string tail = lower.substr(lower.rfind('.') + 1);
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (ToLower(columns_[i].name) == tail) {
        return i;
      }
    }
  }
  return Status::NotFound("no column named '" + std::string(name) + "'");
}

Result<bool> Schema::CheckRow(const Row& row) const {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row arity mismatch: got " + std::to_string(row.size()) +
        ", schema has " + std::to_string(columns_.size()));
  }
  bool widens = false;
  for (size_t i = 0; i < row.size(); ++i) {
    const Column& col = columns_[i];
    const Value& v = row[i];
    if (v.is_null()) {
      if (!col.nullable) {
        return Status::InvalidArgument("NULL in non-nullable column '" +
                                       col.name + "'");
      }
      continue;
    }
    if (v.type() == col.type) {
      continue;
    }
    if (v.type() == Type::kInt64 && col.type == Type::kDouble) {
      widens = true;
      continue;
    }
    return Status::InvalidArgument(
        "type mismatch in column '" + col.name + "': expected " +
        std::string(TypeToString(col.type)) + ", got " +
        std::string(TypeToString(v.type())));
  }
  return widens;
}

Result<Row> Schema::ValidateRow(Row row) const {
  DFLOW_ASSIGN_OR_RETURN(bool widens, CheckRow(row));
  if (widens) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (row[i].type() == Type::kInt64 &&
          columns_[i].type == Type::kDouble) {
        row[i] = Value::Double(static_cast<double>(row[i].AsInt()));
      }
    }
  }
  return row;
}

void Schema::EncodeTo(ByteWriter& w) const {
  w.PutVarint(columns_.size());
  for (const Column& col : columns_) {
    w.PutString(col.name);
    w.PutU8(static_cast<uint8_t>(col.type));
    w.PutU8(col.nullable ? 1 : 0);
  }
}

Result<Schema> Schema::DecodeFrom(ByteReader& r) {
  DFLOW_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  std::vector<Column> columns;
  columns.reserve(r.MaxItems(n));
  for (uint64_t i = 0; i < n; ++i) {
    Column col;
    DFLOW_ASSIGN_OR_RETURN(col.name, r.GetString());
    DFLOW_ASSIGN_OR_RETURN(uint8_t type, r.GetU8());
    col.type = static_cast<Type>(type);
    DFLOW_ASSIGN_OR_RETURN(uint8_t nullable, r.GetU8());
    col.nullable = nullable != 0;
    columns.push_back(std::move(col));
  }
  return Schema(std::move(columns));
}

std::string Schema::ToString() const {
  std::ostringstream os;
  os << "(";
  for (size_t i = 0; i < columns_.size(); ++i) {
    if (i > 0) {
      os << ", ";
    }
    os << columns_[i].name << " " << TypeToString(columns_[i].type);
    if (!columns_[i].nullable) {
      os << " NOT NULL";
    }
  }
  os << ")";
  return os.str();
}

void EncodeRow(const Row& row, ByteWriter& w) {
  w.PutVarint(row.size());
  for (const Value& v : row) {
    v.EncodeTo(w);
  }
}

Result<Row> DecodeRow(ByteReader& r) {
  DFLOW_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  Row row;
  row.reserve(r.MaxItems(n));
  // One pointer pass over the values: each decodes in place into the row's
  // next slot, with no Result built per field.
  const char* p = r.cursor();
  const char* error = nullptr;
  for (uint64_t i = 0; i < n && error == nullptr; ++i) {
    error = Value::Decode(&p, r.end(), &row.emplace_back());
  }
  r.SkipTo(p);
  if (error != nullptr) {
    return Status::Corruption(error);
  }
  return row;
}

}  // namespace dflow::db
