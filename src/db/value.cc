#include "db/value.h"

#include <cmath>
#include <cstring>
#include <sstream>

#include "util/logging.h"

namespace dflow::db {

std::string_view TypeToString(Type t) {
  switch (t) {
    case Type::kNull:
      return "NULL";
    case Type::kBool:
      return "BOOL";
    case Type::kInt64:
      return "INT";
    case Type::kDouble:
      return "DOUBLE";
    case Type::kString:
      return "STRING";
  }
  return "?";
}

Type Value::type() const {
  return static_cast<Type>(data_.index());
}

bool Value::AsBool() const {
  DFLOW_CHECK(type() == Type::kBool) << "Value is " << TypeToString(type());
  return std::get<bool>(data_);
}

int64_t Value::AsInt() const {
  DFLOW_CHECK(type() == Type::kInt64) << "Value is " << TypeToString(type());
  return std::get<int64_t>(data_);
}

double Value::AsDouble() const {
  if (type() == Type::kInt64) {
    return static_cast<double>(std::get<int64_t>(data_));
  }
  DFLOW_CHECK(type() == Type::kDouble) << "Value is " << TypeToString(type());
  return std::get<double>(data_);
}

const std::string& Value::AsString() const {
  DFLOW_CHECK(type() == Type::kString) << "Value is " << TypeToString(type());
  return std::get<std::string>(data_);
}

namespace {
// Rank for cross-type ordering: NULL < bool < numeric < string.
int TypeRank(Type t) {
  switch (t) {
    case Type::kNull:
      return 0;
    case Type::kBool:
      return 1;
    case Type::kInt64:
    case Type::kDouble:
      return 2;
    case Type::kString:
      return 3;
  }
  return 4;
}

template <typename T>
int ThreeWay(T a, T b) {
  return (a > b) - (a < b);
}

// An unordered pair (a NaN on either side) compares as 1.
int CompareDoubles(double a, double b) {
  return a == b ? 0 : (a < b ? -1 : 1);
}

}  // namespace

int Value::Compare(const Value& other) const {
  // Same-type values, every index key's case, compare in one dispatch;
  // only the kInt64/kDouble mix goes through the cross-type rank.
  const Type a = type();
  const Type b = other.type();
  if (a == b) {
    switch (a) {
      case Type::kNull:
        return 0;
      case Type::kBool:
        return ThreeWay(*std::get_if<bool>(&data_),
                        *std::get_if<bool>(&other.data_));
      case Type::kInt64:
        return ThreeWay(*std::get_if<int64_t>(&data_),
                        *std::get_if<int64_t>(&other.data_));
      case Type::kDouble:
        return CompareDoubles(*std::get_if<double>(&data_),
                              *std::get_if<double>(&other.data_));
      case Type::kString:
        return ThreeWay(std::get_if<std::string>(&data_)->compare(
                            *std::get_if<std::string>(&other.data_)),
                        0);
    }
    return 0;
  }
  int ra = TypeRank(a);
  int rb = TypeRank(b);
  if (ra != rb) {
    return ra < rb ? -1 : 1;
  }
  return CompareDoubles(AsDouble(), other.AsDouble());
}

void Value::EncodeTo(ByteWriter& w) const {
  w.PutU8(static_cast<uint8_t>(type()));
  switch (type()) {
    case Type::kNull:
      break;
    case Type::kBool:
      w.PutU8(AsBool() ? 1 : 0);
      break;
    case Type::kInt64:
      // ZigZag varint: small ids and counters (the common case) take one
      // byte on a heap page instead of eight.
      w.PutVarintSigned(AsInt());
      break;
    case Type::kDouble:
      w.PutDouble(std::get<double>(data_));
      break;
    case Type::kString:
      w.PutString(AsString());
      break;
  }
}

const char* Value::Decode(const char** p, const char* end, Value* out) {
  if (*p == end) {
    return "byte reader underflow";
  }
  const uint8_t tag = static_cast<uint8_t>(*(*p)++);
  switch (static_cast<Type>(tag)) {
    case Type::kNull:
      out->data_.emplace<std::monostate>();
      return nullptr;
    case Type::kBool:
      if (*p == end) {
        return "byte reader underflow";
      }
      out->data_.emplace<bool>(*(*p)++ != 0);
      return nullptr;
    case Type::kInt64: {
      uint64_t z = 0;
      if (const char* error = DecodeVarint(p, end, &z)) {
        return error;
      }
      out->data_.emplace<int64_t>(ZigZagDecode(z));
      return nullptr;
    }
    case Type::kDouble: {
      if (end - *p < 8) {
        return "byte reader underflow";
      }
      uint64_t bits = 0;
      for (int i = 0; i < 8; ++i) {
        bits |= static_cast<uint64_t>(static_cast<uint8_t>((*p)[i]))
                << (8 * i);
      }
      *p += 8;
      double v;
      std::memcpy(&v, &bits, sizeof(v));
      out->data_.emplace<double>(v);
      return nullptr;
    }
    case Type::kString: {
      uint64_t len = 0;
      if (const char* error = DecodeVarint(p, end, &len)) {
        return error;
      }
      if (static_cast<uint64_t>(end - *p) < len) {
        return "byte reader underflow reading raw bytes";
      }
      out->data_.emplace<std::string>(*p, static_cast<size_t>(len));
      *p += len;
      return nullptr;
    }
  }
  return "unknown value type tag";
}

Result<Value> Value::DecodeFrom(ByteReader& r) {
  const char* p = r.cursor();
  Value v;
  const char* error = Decode(&p, r.end(), &v);
  r.SkipTo(p);
  if (error != nullptr) {
    return Status::Corruption(error);
  }
  return v;
}

std::string Value::ToString() const {
  switch (type()) {
    case Type::kNull:
      return "NULL";
    case Type::kBool:
      return AsBool() ? "TRUE" : "FALSE";
    case Type::kInt64: {
      std::ostringstream os;
      os << AsInt();
      return os.str();
    }
    case Type::kDouble: {
      std::ostringstream os;
      os << std::get<double>(data_);
      return os.str();
    }
    case Type::kString:
      return AsString();
  }
  return "?";
}

uint64_t Value::Hash() const {
  // FNV-1a over the encoded form, with the type tag folded in so that
  // Int(1) and Bool(true) hash differently.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  h ^= static_cast<uint64_t>(type());
  h *= 1099511628211ull;
  switch (type()) {
    case Type::kNull:
      break;
    case Type::kBool:
      mix(AsBool() ? 1 : 0);
      break;
    case Type::kInt64:
      mix(static_cast<uint64_t>(AsInt()));
      break;
    case Type::kDouble: {
      // Hash numerics by double bit pattern so 1 and 1.0 group together.
      double d = AsDouble();
      uint64_t bits;
      static_assert(sizeof(bits) == sizeof(d));
      __builtin_memcpy(&bits, &d, sizeof(bits));
      mix(bits);
      break;
    }
    case Type::kString:
      for (char c : AsString()) {
        h ^= static_cast<uint8_t>(c);
        h *= 1099511628211ull;
      }
      break;
  }
  return h;
}

}  // namespace dflow::db
