#ifndef DFLOW_DB_VALUE_H_
#define DFLOW_DB_VALUE_H_

#include <cstdint>
#include <string>
#include <variant>

#include "util/byte_buffer.h"
#include "util/result.h"

namespace dflow::db {

/// Column types supported by the embedded engine. The paper's metadata
/// databases (Arecibo candidate DB, EventStore's SQLite/MySQL backends,
/// WebLab's page-metadata store) need exactly these: identifiers, counts,
/// timestamps (int64 seconds), measurements, and strings.
enum class Type : uint8_t {
  kNull = 0,
  kBool = 1,
  kInt64 = 2,
  kDouble = 3,
  kString = 4,
};

std::string_view TypeToString(Type t);

/// A dynamically typed SQL value. NULL is modelled as its own type and
/// compares per SQL semantics only through Expr evaluation; the raw
/// Compare() below treats NULL as less than everything so it can be used as
/// a total order for sorting and B+Tree keys.
class Value {
 public:
  Value() : data_(std::monostate{}) {}
  static Value Null() { return Value(); }
  static Value Bool(bool v) { return Value(v); }
  static Value Int(int64_t v) { return Value(v); }
  static Value Double(double v) { return Value(v); }
  static Value String(std::string v) { return Value(std::move(v)); }

  Type type() const;
  bool is_null() const { return type() == Type::kNull; }

  /// Typed accessors; DFLOW_CHECK-fail on type mismatch (caller bugs, not
  /// data errors -- query execution validates types before touching these).
  bool AsBool() const;
  int64_t AsInt() const;
  double AsDouble() const;  // Also accepts kInt64 (widening).
  const std::string& AsString() const;

  /// Total order for sorting and index keys: NULL < bool < numeric <
  /// string; numerics compare by value across kInt64/kDouble.
  /// Returns <0, 0, >0.
  int Compare(const Value& other) const;

  bool operator==(const Value& other) const { return Compare(other) == 0; }
  bool operator<(const Value& other) const { return Compare(other) < 0; }

  /// Serialization for pages and WAL records.
  void EncodeTo(ByteWriter& w) const;
  static Result<Value> DecodeFrom(ByteReader& r);

  /// Decodes the value encoded at `*p` into `*out`, reading no byte at or
  /// past `end`, and advances `*p` past it. Returns nullptr, or why the
  /// bytes are not a value: truncated, a bad varint, or an unknown type
  /// tag. The one value decoder: DecodeFrom and DecodeRow both call it.
  static const char* Decode(const char** p, const char* end, Value* out);

  std::string ToString() const;

  /// Stable 64-bit hash (for group-by keys).
  uint64_t Hash() const;

 private:
  explicit Value(bool v) : data_(v) {}
  explicit Value(int64_t v) : data_(v) {}
  explicit Value(double v) : data_(v) {}
  explicit Value(std::string v) : data_(std::move(v)) {}

  std::variant<std::monostate, bool, int64_t, double, std::string> data_;
};

}  // namespace dflow::db

#endif  // DFLOW_DB_VALUE_H_
