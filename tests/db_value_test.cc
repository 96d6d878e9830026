#include "db/value.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "db/schema.h"
#include "util/rng.h"

namespace dflow::db {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), Type::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).AsBool(), true);
  EXPECT_EQ(Value::Int(42).AsInt(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
}

TEST(ValueTest, IntWidensToDouble) {
  EXPECT_DOUBLE_EQ(Value::Int(7).AsDouble(), 7.0);
}

TEST(ValueTest, CompareWithinTypes) {
  EXPECT_LT(Value::Int(1).Compare(Value::Int(2)), 0);
  EXPECT_EQ(Value::Int(2).Compare(Value::Int(2)), 0);
  EXPECT_GT(Value::String("b").Compare(Value::String("a")), 0);
  EXPECT_LT(Value::Bool(false).Compare(Value::Bool(true)), 0);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(3).Compare(Value::Double(3.5)), 0);
  EXPECT_GT(Value::Double(4.0).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, TotalOrderAcrossTypes) {
  // NULL < bool < numeric < string.
  EXPECT_LT(Value::Null().Compare(Value::Bool(false)), 0);
  EXPECT_LT(Value::Bool(true).Compare(Value::Int(0)), 0);
  EXPECT_LT(Value::Int(999).Compare(Value::String("")), 0);
}

// Value::Compare as it was before same-type values got one dispatch: rank
// first, then a per-type comparison. The reference model for the sweep
// below.
int ReferenceCompare(const Value& a, const Value& b) {
  auto rank = [](Type t) {
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
  };
  const int ra = rank(a.type());
  const int rb = rank(b.type());
  if (ra != rb) {
    return ra < rb ? -1 : 1;
  }
  switch (a.type()) {
    case Type::kNull:
      return 0;
    case Type::kBool: {
      const bool x = a.AsBool(), y = b.AsBool();
      return x == y ? 0 : (x < y ? -1 : 1);
    }
    case Type::kInt64:
    case Type::kDouble: {
      if (a.type() == Type::kInt64 && b.type() == Type::kInt64) {
        const int64_t x = a.AsInt(), y = b.AsInt();
        return x == y ? 0 : (x < y ? -1 : 1);
      }
      const double x = a.AsDouble(), y = b.AsDouble();
      return x == y ? 0 : (x < y ? -1 : 1);
    }
    case Type::kString:
      return a.AsString().compare(b.AsString()) < 0
                 ? -1
                 : (a.AsString() == b.AsString() ? 0 : 1);
  }
  return 0;
}

TEST(ValueTest, CompareMatchesReferenceOnEveryPair) {
  const double inf = std::numeric_limits<double>::infinity();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t big = std::numeric_limits<int64_t>::max();
  const std::vector<Value> values = {
      Value::Null(),         Value::Bool(false),
      Value::Bool(true),     Value::Int(std::numeric_limits<int64_t>::min()),
      Value::Int(-1),        Value::Int(0),
      Value::Int(1),         Value::Int(2),
      Value::Int(big),       Value::Double(-inf),
      Value::Double(-1.0),   Value::Double(-0.0),
      Value::Double(0.0),    Value::Double(1.0),
      Value::Double(1.5),    Value::Double(static_cast<double>(big)),
      Value::Double(inf),    Value::Double(nan),
      Value::String(""),     Value::String("a"),
      Value::String("ab"),   Value::String("b"),
      Value::String("k10"),  Value::String("k9"),
      Value::String(std::string("a\0b", 3))};
  for (const Value& a : values) {
    for (const Value& b : values) {
      EXPECT_EQ(a.Compare(b), ReferenceCompare(a, b))
          << a.ToString() << " vs " << b.ToString();
    }
  }
}

TEST(ValueTest, SerializationRoundTrip) {
  ByteWriter w;
  Value::Null().EncodeTo(w);
  Value::Bool(true).EncodeTo(w);
  Value::Int(-123456789).EncodeTo(w);
  Value::Double(6.022e23).EncodeTo(w);
  Value::String("with \0 byte").EncodeTo(w);

  ByteReader r(w.data());
  EXPECT_TRUE(Value::DecodeFrom(r)->is_null());
  EXPECT_EQ(Value::DecodeFrom(r)->AsBool(), true);
  EXPECT_EQ(Value::DecodeFrom(r)->AsInt(), -123456789);
  EXPECT_DOUBLE_EQ(Value::DecodeFrom(r)->AsDouble(), 6.022e23);
  EXPECT_EQ(Value::DecodeFrom(r)->AsString(), "with ");
}

TEST(ValueTest, HashDistinguishesValues) {
  EXPECT_NE(Value::Int(1).Hash(), Value::Int(2).Hash());
  EXPECT_NE(Value::Int(1).Hash(), Value::Bool(true).Hash());
  EXPECT_NE(Value::String("a").Hash(), Value::String("b").Hash());
  EXPECT_EQ(Value::String("a").Hash(), Value::String("a").Hash());
}

TEST(ValueTest, ToString) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Bool(true).ToString(), "TRUE");
  EXPECT_EQ(Value::Int(-5).ToString(), "-5");
  EXPECT_EQ(Value::String("x").ToString(), "x");
}

TEST(SchemaTest, IndexOfCaseInsensitive) {
  Schema schema({{"Run", Type::kInt64, false}, {"name", Type::kString, true}});
  EXPECT_EQ(*schema.IndexOf("run"), 0u);
  EXPECT_EQ(*schema.IndexOf("NAME"), 1u);
  EXPECT_TRUE(schema.IndexOf("missing").status().IsNotFound());
}

TEST(SchemaTest, QualifiedNameFallbacks) {
  Schema joined({{"runs.id", Type::kInt64, false},
                 {"files.id", Type::kInt64, false},
                 {"bytes", Type::kInt64, false}});
  // Unqualified "id" is ambiguous; qualified forms resolve.
  EXPECT_TRUE(joined.IndexOf("id").status().IsInvalidArgument());
  EXPECT_EQ(*joined.IndexOf("runs.id"), 0u);
  EXPECT_EQ(*joined.IndexOf("files.id"), 1u);
  // Qualified query against unqualified schema name.
  EXPECT_EQ(*joined.IndexOf("t.bytes"), 2u);
}

TEST(SchemaTest, ValidateRowArityAndTypes) {
  Schema schema({{"a", Type::kInt64, false}, {"b", Type::kDouble, true}});
  auto ok = schema.ValidateRow({Value::Int(1), Value::Double(2.0)});
  ASSERT_TRUE(ok.ok());

  EXPECT_TRUE(schema.ValidateRow({Value::Int(1)}).status().IsInvalidArgument());
  EXPECT_TRUE(schema.ValidateRow({Value::String("x"), Value::Double(1.0)})
                  .status()
                  .IsInvalidArgument());
}

TEST(SchemaTest, ValidateRowWidensIntToDouble) {
  Schema schema({{"x", Type::kDouble, false}});
  auto row = schema.ValidateRow({Value::Int(3)});
  ASSERT_TRUE(row.ok());
  EXPECT_EQ((*row)[0].type(), Type::kDouble);
  EXPECT_DOUBLE_EQ((*row)[0].AsDouble(), 3.0);
}

TEST(SchemaTest, ValidateRowNullability) {
  Schema schema({{"a", Type::kInt64, false}, {"b", Type::kInt64, true}});
  EXPECT_TRUE(schema.ValidateRow({Value::Null(), Value::Int(1)})
                  .status()
                  .IsInvalidArgument());
  EXPECT_TRUE(schema.ValidateRow({Value::Int(1), Value::Null()}).ok());
}

TEST(SchemaTest, SerializationRoundTrip) {
  Schema schema({{"a", Type::kInt64, false},
                 {"b", Type::kString, true},
                 {"c", Type::kDouble, true}});
  ByteWriter w;
  schema.EncodeTo(w);
  ByteReader r(w.data());
  auto decoded = Schema::DecodeFrom(r);
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ(decoded->NumColumns(), 3u);
  EXPECT_EQ(decoded->ColumnAt(0).name, "a");
  EXPECT_EQ(decoded->ColumnAt(0).type, Type::kInt64);
  EXPECT_FALSE(decoded->ColumnAt(0).nullable);
  EXPECT_EQ(decoded->ColumnAt(1).type, Type::kString);
}

TEST(SchemaTest, RowSerializationRoundTrip) {
  Row row = {Value::Int(1), Value::String("x"), Value::Null()};
  ByteWriter w;
  EncodeRow(row, w);
  ByteReader r(w.data());
  auto decoded = DecodeRow(r);
  ASSERT_TRUE(decoded.ok());
  ASSERT_EQ(decoded->size(), 3u);
  EXPECT_EQ((*decoded)[0].AsInt(), 1);
  EXPECT_EQ((*decoded)[1].AsString(), "x");
  EXPECT_TRUE((*decoded)[2].is_null());
}

// Counts read from a record are untrusted: a forged count of 2^58 with
// nothing after it must fail as Corruption, not reserve for 2^58 items.
TEST(SchemaTest, ForgedRowValueCountIsCorruption) {
  ByteWriter w;
  w.PutVarint(uint64_t{1} << 58);
  ByteReader r(w.data());
  EXPECT_TRUE(DecodeRow(r).status().IsCorruption());
}

TEST(SchemaTest, ForgedSchemaColumnCountIsCorruption) {
  ByteWriter w;
  w.PutVarint(uint64_t{1} << 58);
  ByteReader r(w.data());
  EXPECT_TRUE(Schema::DecodeFrom(r).status().IsCorruption());
}

// The row decoder before the one-pass rewrite, kept as the reference: a
// Result per field through ByteReader's getters.
Result<Value> ReferenceDecodeValue(ByteReader& r) {
  DFLOW_ASSIGN_OR_RETURN(uint8_t tag, r.GetU8());
  switch (static_cast<Type>(tag)) {
    case Type::kNull:
      return Value::Null();
    case Type::kBool: {
      DFLOW_ASSIGN_OR_RETURN(uint8_t v, r.GetU8());
      return Value::Bool(v != 0);
    }
    case Type::kInt64: {
      DFLOW_ASSIGN_OR_RETURN(int64_t v, r.GetVarintSigned());
      return Value::Int(v);
    }
    case Type::kDouble: {
      DFLOW_ASSIGN_OR_RETURN(double v, r.GetDouble());
      return Value::Double(v);
    }
    case Type::kString: {
      DFLOW_ASSIGN_OR_RETURN(std::string v, r.GetString());
      return Value::String(std::move(v));
    }
  }
  return Status::Corruption("unknown value type tag");
}

Result<Row> ReferenceDecodeRow(ByteReader& r) {
  DFLOW_ASSIGN_OR_RETURN(uint64_t n, r.GetVarint());
  Row row;
  row.reserve(r.MaxItems(n));
  for (uint64_t i = 0; i < n; ++i) {
    DFLOW_ASSIGN_OR_RETURN(Value v, ReferenceDecodeValue(r));
    row.push_back(std::move(v));
  }
  return row;
}

// Same type and same bits: NaN payloads and -0.0 included.
bool SameValue(const Value& a, const Value& b) {
  if (a.type() != b.type()) {
    return false;
  }
  switch (a.type()) {
    case Type::kNull:
      return true;
    case Type::kBool:
      return a.AsBool() == b.AsBool();
    case Type::kInt64:
      return a.AsInt() == b.AsInt();
    case Type::kDouble: {
      const double x = a.AsDouble();
      const double y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof(x)) == 0;
    }
    case Type::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

// Decodes `bytes` with both decoders and requires the same outcome: the
// same Corruption message, or the same values and the same end position.
void ExpectSameDecode(std::string_view bytes) {
  ByteReader r(bytes);
  ByteReader ref(bytes);
  Result<Row> got = DecodeRow(r);
  Result<Row> want = ReferenceDecodeRow(ref);
  ASSERT_EQ(got.ok(), want.ok()) << got.status().ToString() << " vs "
                                 << want.status().ToString();
  if (!want.ok()) {
    ASSERT_TRUE(got.status().IsCorruption());
    ASSERT_EQ(got.status().ToString(), want.status().ToString());
    return;
  }
  ASSERT_EQ(r.position(), ref.position());
  ASSERT_EQ(got->size(), want->size());
  for (size_t i = 0; i < want->size(); ++i) {
    ASSERT_TRUE(SameValue((*got)[i], (*want)[i])) << "value " << i;
  }
}

Value SeededValue(Rng& rng) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  switch (rng.Uniform(0, 4)) {
    case 0:
      return Value::Null();
    case 1:
      return Value::Bool(rng.Bernoulli(0.5));
    case 2: {
      const int64_t ints[] = {0, 1, -1, 63, -64, 64, INT64_MAX, INT64_MIN,
                              static_cast<int64_t>(rng.Next())};
      return Value::Int(ints[rng.Uniform(0, 8)]);
    }
    case 3: {
      uint64_t nan_bits = 0x7ff0000000000001ull | (rng.Next() >> 13);
      if (rng.Bernoulli(0.5)) {
        nan_bits |= 0x8000000000000000ull;
      }
      double nan;
      std::memcpy(&nan, &nan_bits, sizeof(nan));
      const double doubles[] = {0.0, -0.0, kInf, -kInf, nan,
                                std::numeric_limits<double>::denorm_min(),
                                rng.UniformReal(-1e6, 1e6)};
      return Value::Double(doubles[rng.Uniform(0, 6)]);
    }
    default: {
      std::string s(static_cast<size_t>(rng.Uniform(0, 20)), '\0');
      for (char& c : s) {
        c = static_cast<char>(rng.Uniform(0, 255));
      }
      return Value::String(std::move(s));
    }
  }
}

TEST(SchemaTest, DecodeRowMatchesReferenceDecoder) {
  Rng rng(18);
  std::vector<std::string> records;
  for (int i = 0; i < 1000; ++i) {
    Row row;
    const int width = static_cast<int>(rng.Uniform(0, 9));
    for (int k = 0; k < width; ++k) {
      row.push_back(SeededValue(rng));
    }
    if (i % 400 == 7) {
      row.push_back(Value::String(std::string(100 * 1024, 'k')));
      row.push_back(SeededValue(rng));
    }
    ByteWriter w;
    EncodeRow(row, w);
    records.push_back(w.Take());
  }
  for (const std::string& record : records) {
    ExpectSameDecode(record);
    // Truncated at every byte.
    for (size_t len = 0; len < record.size(); ++len) {
      ExpectSameDecode(std::string_view(record).substr(0, len));
    }
  }
  // Single-byte mutations: tags, counts, varints and lengths alike.
  for (int i = 0; i < 1000; ++i) {
    std::string record = records[static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(records.size()) - 1))];
    if (record.empty()) {
      continue;
    }
    const size_t at = static_cast<size_t>(
        rng.Uniform(0, static_cast<int64_t>(record.size()) - 1));
    record[at] = static_cast<char>(record[at] ^ rng.Uniform(1, 255));
    ExpectSameDecode(record);
  }
}

}  // namespace
}  // namespace dflow::db
