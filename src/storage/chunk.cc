#include "storage/chunk.h"

#include "common/verify.h"
#include "storage/chunk_verify.h"

namespace agora {

Chunk::Chunk(const Schema& schema) {
  columns_.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) {
    columns_.emplace_back(f.type);
  }
}

void Chunk::AppendRow(const std::vector<Value>& row) {
  AGORA_DCHECK(row.size() == columns_.size());
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendValue(row[i]);
  }
}

void Chunk::Append(Chunk other) {
  const size_t rows = other.num_rows();
  if (rows == 0) return;
  if (num_rows() == 0) {
    // Adopted columns hold no view, so the chunk pins no table buffer.
    *this = std::move(other);
    for (ColumnVector& col : columns_) col.Materialize();
    return;
  }
  AGORA_DCHECK(other.num_columns() == columns_.size());
  if (columns_.empty()) {
    explicit_rows_ += rows;
    return;
  }
  for (size_t i = 0; i < columns_.size(); ++i) {
    columns_[i].AppendRange(other.columns_[i], 0, rows);
  }
}

Chunk Chunk::GatherRows(const std::vector<uint32_t>& sel) const {
  if (VerificationEnabled()) {
    Status bounds = VerifySelection(sel, num_rows(), "Chunk::GatherRows");
    AGORA_CHECK(bounds.ok()) << bounds.message();
  }
  Chunk out;
  out.columns_.reserve(columns_.size());
  for (const auto& col : columns_) {
    out.columns_.push_back(col.Gather(sel));
  }
  out.explicit_rows_ = sel.size();
  return out;
}

std::vector<Value> Chunk::RowValues(size_t row) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col.GetValue(row));
  return out;
}

size_t Chunk::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& col : columns_) bytes += col.MemoryBytes();
  return bytes;
}

std::string Chunk::ToString(size_t max_rows) const {
  std::string out;
  size_t rows = num_rows();
  for (size_t r = 0; r < rows && r < max_rows; ++r) {
    for (size_t c = 0; c < columns_.size(); ++c) {
      if (c > 0) out += " | ";
      out += columns_[c].GetValue(r).ToString();
    }
    out += '\n';
  }
  if (rows > max_rows) {
    out += "... (" + std::to_string(rows - max_rows) + " more rows)\n";
  }
  return out;
}

}  // namespace agora
