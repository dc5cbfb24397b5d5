#include "common/serde.h"

#include <cstring>

namespace mlfs {

void Encoder::PutFixed32(uint32_t v) {
  char b[4];
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  buf_.append(b, 4);
}

void Encoder::PutFixed64(uint64_t v) {
  char b[8];
  for (int i = 0; i < 8; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  buf_.append(b, 8);
}

void Encoder::PutVarint64(uint64_t v) {
  while (v >= 0x80) {
    buf_.push_back(static_cast<char>((v & 0x7f) | 0x80));
    v >>= 7;
  }
  buf_.push_back(static_cast<char>(v));
}

void Encoder::PutDouble(double v) {
  uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed64(bits);
}

void Encoder::PutFloat(float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutFixed32(bits);
}

void Encoder::PutString(std::string_view s) {
  PutVarint64(s.size());
  buf_.append(s.data(), s.size());
}

void Encoder::PutValue(const Value& v) {
  PutU8(static_cast<uint8_t>(v.type()));
  switch (v.type()) {
    case FeatureType::kNull:
      break;
    case FeatureType::kBool:
      PutU8(v.bool_value() ? 1 : 0);
      break;
    case FeatureType::kInt64:
      PutFixed64(static_cast<uint64_t>(v.int64_value()));
      break;
    case FeatureType::kDouble:
      PutDouble(v.double_value());
      break;
    case FeatureType::kString:
      PutString(v.string_value());
      break;
    case FeatureType::kTimestamp:
      PutFixed64(static_cast<uint64_t>(v.time_value()));
      break;
    case FeatureType::kEmbedding: {
      const auto& e = v.embedding_value();
      PutVarint64(e.size());
      for (float f : e) PutFloat(f);
      break;
    }
  }
}

void Encoder::PutRow(const Row& row) {
  PutVarint64(row.num_values());
  for (size_t i = 0; i < row.num_values(); ++i) PutValue(row.value(i));
}

void Encoder::PutSchema(const Schema& schema) {
  PutVarint64(schema.num_fields());
  for (const FieldSpec& field : schema.fields()) {
    PutString(field.name);
    PutU8(static_cast<uint8_t>(field.type));
    PutU8(field.nullable ? 1 : 0);
  }
}

Status Decoder::Need(size_t n) const {
  if (data_.size() - pos_ < n) {
    return Status::Corruption("decoder: truncated input (need " +
                              std::to_string(n) + " bytes, have " +
                              std::to_string(data_.size() - pos_) + ")");
  }
  return Status::OK();
}

StatusOr<uint8_t> Decoder::GetU8() {
  MLFS_RETURN_IF_ERROR(Need(1));
  return static_cast<uint8_t>(data_[pos_++]);
}

StatusOr<uint32_t> Decoder::GetFixed32() {
  MLFS_RETURN_IF_ERROR(Need(4));
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

StatusOr<uint64_t> Decoder::GetFixed64() {
  MLFS_RETURN_IF_ERROR(Need(8));
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<unsigned char>(data_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

StatusOr<uint64_t> Decoder::GetVarint64() {
  uint64_t v = 0;
  int shift = 0;
  while (true) {
    if (shift > 63) return Status::Corruption("varint too long");
    MLFS_RETURN_IF_ERROR(Need(1));
    uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
    v |= static_cast<uint64_t>(byte & 0x7f) << shift;
    if ((byte & 0x80) == 0) return v;
    shift += 7;
  }
}

StatusOr<double> Decoder::GetDouble() {
  MLFS_ASSIGN_OR_RETURN(uint64_t bits, GetFixed64());
  double d;
  std::memcpy(&d, &bits, sizeof(d));
  return d;
}

StatusOr<float> Decoder::GetFloat() {
  MLFS_ASSIGN_OR_RETURN(uint32_t bits, GetFixed32());
  float f;
  std::memcpy(&f, &bits, sizeof(f));
  return f;
}

StatusOr<std::string> Decoder::GetString() {
  MLFS_ASSIGN_OR_RETURN(uint64_t len, GetVarint64());
  MLFS_RETURN_IF_ERROR(Need(len));
  std::string s(data_.substr(pos_, len));
  pos_ += len;
  return s;
}

StatusOr<Value> Decoder::GetValue() {
  MLFS_ASSIGN_OR_RETURN(uint8_t tag, GetU8());
  if (tag > static_cast<uint8_t>(FeatureType::kEmbedding)) {
    return Status::Corruption("bad value tag " + std::to_string(tag));
  }
  switch (static_cast<FeatureType>(tag)) {
    case FeatureType::kNull:
      return Value::Null();
    case FeatureType::kBool: {
      MLFS_ASSIGN_OR_RETURN(uint8_t b, GetU8());
      return Value::Bool(b != 0);
    }
    case FeatureType::kInt64: {
      MLFS_ASSIGN_OR_RETURN(uint64_t v, GetFixed64());
      return Value::Int64(static_cast<int64_t>(v));
    }
    case FeatureType::kDouble: {
      MLFS_ASSIGN_OR_RETURN(double d, GetDouble());
      return Value::Double(d);
    }
    case FeatureType::kString: {
      MLFS_ASSIGN_OR_RETURN(std::string s, GetString());
      return Value::String(std::move(s));
    }
    case FeatureType::kTimestamp: {
      MLFS_ASSIGN_OR_RETURN(uint64_t v, GetFixed64());
      return Value::Time(static_cast<Timestamp>(v));
    }
    case FeatureType::kEmbedding: {
      MLFS_ASSIGN_OR_RETURN(uint64_t dim, GetVarint64());
      if (dim > (1ULL << 24) || dim > remaining() / sizeof(float)) {
        return Status::Corruption("embedding dim too large: " +
                                  std::to_string(dim));
      }
      std::vector<float> e(dim);
      for (uint64_t i = 0; i < dim; ++i) {
        MLFS_ASSIGN_OR_RETURN(e[i], GetFloat());
      }
      return Value::Embedding(std::move(e));
    }
  }
  return Status::Corruption("unreachable value tag");
}

StatusOr<SchemaPtr> Decoder::GetSchema() {
  MLFS_ASSIGN_OR_RETURN(uint64_t n, GetVarint64());
  if (n > 100000) {
    return Status::Corruption("schema field count too large");
  }
  std::vector<FieldSpec> fields;
  fields.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    FieldSpec field;
    MLFS_ASSIGN_OR_RETURN(field.name, GetString());
    MLFS_ASSIGN_OR_RETURN(uint8_t type, GetU8());
    if (type > static_cast<uint8_t>(FeatureType::kEmbedding)) {
      return Status::Corruption("bad field type tag");
    }
    field.type = static_cast<FeatureType>(type);
    MLFS_ASSIGN_OR_RETURN(uint8_t nullable, GetU8());
    field.nullable = nullable != 0;
    fields.push_back(std::move(field));
  }
  return Schema::Create(std::move(fields));
}

StatusOr<Row> Decoder::GetRow(SchemaPtr schema) {
  MLFS_ASSIGN_OR_RETURN(uint64_t n, GetVarint64());
  // Every value takes at least its tag byte.
  if (n > remaining()) {
    return Status::Corruption("row value count exceeds input");
  }
  std::vector<Value> values;
  values.reserve(n);
  for (uint64_t i = 0; i < n; ++i) {
    MLFS_ASSIGN_OR_RETURN(Value v, GetValue());
    values.push_back(std::move(v));
  }
  return Row::Create(std::move(schema), std::move(values));
}

}  // namespace mlfs
