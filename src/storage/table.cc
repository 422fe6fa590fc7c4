#include "storage/table.h"

#include <algorithm>
#include <atomic>
#include <numeric>

namespace agora {

namespace {
std::atomic<uint64_t> next_table_id{1};
}  // namespace

Table::Table(std::string name, Schema schema)
    : id_(next_table_id.fetch_add(1, std::memory_order_relaxed)),
      name_(std::move(name)),
      schema_(std::move(schema)) {
  columns_.reserve(schema_.num_fields());
  for (const Field& f : schema_.fields()) {
    // String columns are dictionary-encoded from the first append; they
    // decode for good past kMaxDictionaryEntries distinct values.
    columns_.push_back(f.type == TypeId::kString
                           ? ColumnVector::MakeDictionary()
                           : ColumnVector(f.type));
  }
}

Status Table::AppendRow(const std::vector<Value>& row) {
  if (row.size() != columns_.size()) {
    return Status::InvalidArgument(
        "row has " + std::to_string(row.size()) + " values, table '" + name_ +
        "' has " + std::to_string(columns_.size()) + " columns");
  }
  for (size_t i = 0; i < row.size(); ++i) {
    if (row[i].is_null()) {
      columns_[i].AppendNull();
      continue;
    }
    TypeId want = schema_.field(i).type;
    if (row[i].type() == want) {
      columns_[i].AppendValue(row[i]);
    } else {
      auto cast = row[i].CastTo(want);
      if (!cast.ok()) return cast.status();
      columns_[i].AppendValue(*cast);
    }
  }
  ++num_rows_;
  InvalidateDerived();
  return Status::OK();
}

Status Table::AppendChunk(const Chunk& chunk) {
  if (chunk.num_columns() != columns_.size()) {
    return Status::InvalidArgument("chunk column count mismatch for table '" +
                                   name_ + "'");
  }
  for (size_t c = 0; c < columns_.size(); ++c) {
    if (chunk.column(c).type() != columns_[c].type()) {
      return Status::TypeError(
          "chunk column " + std::to_string(c) + " has type " +
          std::string(TypeIdToString(chunk.column(c).type())) +
          ", table expects " +
          std::string(TypeIdToString(columns_[c].type())));
    }
  }
  size_t rows = chunk.num_rows();
  for (size_t c = 0; c < columns_.size(); ++c) {
    columns_[c].AppendRange(chunk.column(c), 0, rows);
  }
  num_rows_ += rows;
  InvalidateDerived();
  return Status::OK();
}

Status Table::RetainRows(const std::vector<uint32_t>& keep) {
  for (size_t i = 0; i < keep.size(); ++i) {
    if (keep[i] >= num_rows_ || (i > 0 && keep[i] <= keep[i - 1])) {
      return Status::InvalidArgument(
          "RetainRows requires ascending in-range row ids");
    }
  }
  for (auto& col : columns_) {
    col = col.Gather(keep);
  }
  num_rows_ = keep.size();
  InvalidateDerived();
  return Status::OK();
}

Status Table::SetCell(size_t row, size_t column, const Value& v) {
  if (row >= num_rows_ || column >= columns_.size()) {
    return Status::OutOfRange("SetCell target out of range");
  }
  Value coerced = v;
  TypeId want = schema_.field(column).type;
  if (!v.is_null() && v.type() != want) {
    AGORA_ASSIGN_OR_RETURN(coerced, v.CastTo(want));
  }
  columns_[column].SetValue(row, coerced);
  InvalidateDerived();
  return Status::OK();
}

Chunk Table::GetChunk(size_t start, size_t count,
                      const std::vector<size_t>& projection) const {
  Chunk out;
  size_t end = std::min(start + count, num_rows_);
  size_t n = end > start ? end - start : 0;
  if (projection.empty()) {
    for (const auto& col : columns_) {
      out.AddColumn(col.Slice(start, n));
    }
  } else {
    for (size_t c : projection) {
      AGORA_DCHECK(c < columns_.size());
      out.AddColumn(columns_[c].Slice(start, n));
    }
  }
  out.SetExplicitRowCount(n);
  return out;
}

Chunk Table::GetChunkView(const std::vector<size_t>& projection) const {
  Chunk out;
  if (projection.empty()) {
    for (const auto& col : columns_) {
      out.AddColumn(col);  // shared buffer, O(1)
    }
  } else {
    for (size_t c : projection) {
      AGORA_DCHECK(c < columns_.size());
      out.AddColumn(columns_[c]);
    }
  }
  out.SetExplicitRowCount(num_rows_);
  return out;
}

std::vector<Value> Table::GetRow(size_t row) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col.GetValue(row));
  return out;
}

void Table::BuildZoneMaps() {
  // Build off to the side: concurrent scans keep pruning against their
  // snapshot (or none) until the finished set is swapped in below.
  auto maps = std::make_shared<ZoneMapSet>();
  size_t num_blocks = (num_rows_ + kChunkSize - 1) / kChunkSize;
  for (size_t c = 0; c < columns_.size(); ++c) {
    TypeId t = columns_[c].type();
    if (!IsNumeric(t) && t != TypeId::kBool) continue;
    ZoneMap zm;
    zm.blocks.resize(num_blocks);
    for (size_t b = 0; b < num_blocks; ++b) {
      size_t begin = b * kChunkSize;
      size_t end = std::min(begin + kChunkSize, num_rows_);
      ZoneMapEntry& e = zm.blocks[b];
      for (size_t r = begin; r < end; ++r) {
        if (columns_[c].IsNull(r)) continue;
        double v = columns_[c].GetNumeric(r);
        if (!e.has_values) {
          e.min = e.max = v;
          e.has_values = true;
        } else {
          e.min = std::min(e.min, v);
          e.max = std::max(e.max, v);
        }
      }
    }
    maps->emplace(c, std::move(zm));
  }
  MutexLock lock(index_mu_);
  zone_maps_ = std::move(maps);
}

bool Table::HasZoneMaps() const {
  MutexLock lock(index_mu_);
  return zone_maps_ != nullptr && !zone_maps_->empty();
}

std::shared_ptr<const ZoneMapSet> Table::zone_maps() const {
  MutexLock lock(index_mu_);
  return zone_maps_;
}

std::shared_ptr<const ZoneMap> Table::GetZoneMap(size_t column) const {
  std::shared_ptr<const ZoneMapSet> maps = zone_maps();
  if (maps == nullptr) return nullptr;
  auto it = maps->find(column);
  if (it == maps->end()) return nullptr;
  // Aliasing constructor: the handle keeps the whole set alive.
  return std::shared_ptr<const ZoneMap>(std::move(maps), &it->second);
}

Status Table::BuildHashIndex(const std::string& index_name, size_t column) {
  if (column >= columns_.size()) {
    return Status::InvalidArgument("index column out of range");
  }
  // Build off to the side first: concurrent readers keep probing the old
  // snapshot (or none) until the finished index is swapped in below.
  auto index = std::make_shared<HashIndex>(index_name, column);
  const ColumnVector& col = columns_[column];
  for (size_t r = 0; r < num_rows_; ++r) {
    if (col.IsNull(r)) continue;
    index->Insert(col.HashRow(r), static_cast<int64_t>(r));
  }
  MutexLock lock(index_mu_);
  // Replace an existing index on the same column.
  for (auto& idx : indexes_) {
    if (idx->column() == column) {
      idx = std::move(index);
      return Status::OK();
    }
  }
  indexes_.push_back(std::move(index));
  return Status::OK();
}

std::shared_ptr<const HashIndex> Table::GetHashIndex(size_t column) const {
  MutexLock lock(index_mu_);
  for (const auto& idx : indexes_) {
    if (idx->column() == column) return idx;
  }
  return nullptr;
}

void Table::InvalidateDerived() {
  MutexLock lock(index_mu_);
  zone_maps_.reset();
  indexes_.clear();
}

std::shared_ptr<Table> Table::SortedCopy(const std::string& new_name,
                                         size_t column) const {
  AGORA_CHECK(column < columns_.size());
  std::vector<uint32_t> perm(num_rows_);
  std::iota(perm.begin(), perm.end(), 0);
  const ColumnVector& key = columns_[column];
  std::stable_sort(perm.begin(), perm.end(),
                   [&key](uint32_t a, uint32_t b) {
                     return key.CompareRows(a, key, b) < 0;
                   });
  auto out = std::make_shared<Table>(new_name, schema_);
  for (size_t c = 0; c < columns_.size(); ++c) {
    out->columns_[c] = columns_[c].Gather(perm);
  }
  out->num_rows_ = num_rows_;
  return out;
}

size_t Table::MemoryBytes() const {
  size_t bytes = 0;
  for (const auto& col : columns_) {
    bytes += col.MemoryBytes();
    if (col.is_dictionary()) bytes += col.dictionary().MemoryBytes();
  }
  return bytes;
}

}  // namespace agora
