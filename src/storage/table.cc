#include "storage/table.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>

namespace agora {

namespace {

std::atomic<uint64_t> next_table_id{1};

/// OK when `rows` are strictly ascending ids below `num_rows`.
Status CheckRowIds(const std::vector<uint32_t>& rows, size_t num_rows,
                   const char* caller) {
  for (size_t i = 0; i < rows.size(); ++i) {
    if (rows[i] >= num_rows || (i > 0 && rows[i] <= rows[i - 1])) {
      return Status::InvalidArgument(std::string(caller) +
                                     " requires ascending in-range row ids");
    }
  }
  return Status::OK();
}

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
  MaintainAfterAppend(num_rows_ - 1);
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
  MaintainAfterAppend(num_rows_ - rows);
  return Status::OK();
}

Status Table::RetainRows(const std::vector<uint32_t>& keep) {
  AGORA_RETURN_IF_ERROR(CheckRowIds(keep, num_rows_, "RetainRows"));
  for (auto& col : columns_) {
    col = col.Gather(keep);
  }
  num_rows_ = keep.size();
  // Row ids shift, so derived structures are rebuilt, not patched.
  if (zone_maps() != nullptr) PublishZoneMaps(ComputeZoneMaps());
  for (const auto& index : IndexesForWrite()) FillIndex(index.get());
  return Status::OK();
}

Status Table::UpdateRows(const std::vector<uint32_t>& rows,
                         const std::vector<size_t>& columns,
                         const std::vector<ColumnVector>& values) {
  AGORA_RETURN_IF_ERROR(CheckRowIds(rows, num_rows_, "UpdateRows"));
  if (values.size() != columns.size()) {
    return Status::InvalidArgument("UpdateRows needs one vector per column");
  }
  for (size_t k = 0; k < columns.size(); ++k) {
    if (columns[k] >= columns_.size() ||
        std::find(columns.begin(), columns.begin() + k, columns[k]) !=
            columns.begin() + k) {
      return Status::InvalidArgument(
          "UpdateRows targets must be distinct in-range columns");
    }
    if (values[k].type() != columns_[columns[k]].type() ||
        values[k].size() != rows.size()) {
      return Status::InvalidArgument(
          "UpdateRows values must match the column type and row count");
    }
  }
  if (rows.empty()) return Status::OK();

  // Indexes on an updated column: move each row's entry from its old key
  // hash to its new one.
  std::vector<std::shared_ptr<HashIndex>> moved;
  for (auto& index : IndexesForWrite()) {
    if (std::find(columns.begin(), columns.end(), index->column()) !=
        columns.end()) {
      moved.push_back(std::move(index));
    }
  }
  for (const auto& index : moved) {
    const ColumnVector& col = columns_[index->column()];
    std::vector<uint64_t> old_hashes;
    for (uint32_t r : rows) {
      if (!col.IsNull(r)) old_hashes.push_back(col.HashRow(r));
    }
    std::sort(old_hashes.begin(), old_hashes.end());
    old_hashes.erase(std::unique(old_hashes.begin(), old_hashes.end()),
                     old_hashes.end());
    index->Erase(old_hashes, rows);
  }
  for (size_t k = 0; k < columns.size(); ++k) {
    columns_[columns[k]].Scatter(rows, values[k]);
  }
  for (const auto& index : moved) {
    const ColumnVector& col = columns_[index->column()];
    for (uint32_t r : rows) {
      if (!col.IsNull(r)) index->Insert(col.HashRow(r), r);
    }
  }

  // Zone maps: recompute only the touched blocks of the updated columns.
  std::shared_ptr<const ZoneMapSet> maps = zone_maps();
  if (maps == nullptr) return Status::OK();
  auto next = std::make_shared<ZoneMapSet>(*maps);
  for (size_t c : columns) {
    auto it = next->find(c);
    if (it == next->end()) continue;  // no zone map on this column
    size_t last_block = SIZE_MAX;
    for (uint32_t r : rows) {
      const size_t block = r / kChunkSize;
      if (block == last_block) continue;  // rows ascend
      it->second.blocks[block] = ComputeZoneMapEntry(c, block);
      last_block = block;
    }
  }
  PublishZoneMaps(std::move(next));
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

std::vector<Value> Table::GetRow(size_t row) const {
  std::vector<Value> out;
  out.reserve(columns_.size());
  for (const auto& col : columns_) out.push_back(col.GetValue(row));
  return out;
}

ZoneMapEntry Table::ComputeZoneMapEntry(size_t column, size_t block) const {
  const ColumnVector& col = columns_[column];
  const size_t begin = block * kChunkSize;
  const size_t end = std::min(begin + kChunkSize, num_rows_);
  ZoneMapEntry e;
  for (size_t r = begin; r < end; ++r) {
    if (col.IsNull(r)) continue;
    double v = col.GetNumeric(r);
    if (std::isnan(v)) {
      // NaN compares equal to every IN candidate (Value::Compare), so a
      // block holding one may match anything.
      e.min = -std::numeric_limits<double>::infinity();
      e.max = std::numeric_limits<double>::infinity();
      e.has_values = true;
      return e;
    }
    if (!e.has_values) {
      e.min = e.max = v;
      e.has_values = true;
    } else {
      e.min = std::min(e.min, v);
      e.max = std::max(e.max, v);
    }
  }
  return e;
}

std::shared_ptr<ZoneMapSet> Table::ComputeZoneMaps() const {
  auto maps = std::make_shared<ZoneMapSet>();
  size_t num_blocks = (num_rows_ + kChunkSize - 1) / kChunkSize;
  for (size_t c = 0; c < columns_.size(); ++c) {
    TypeId t = columns_[c].type();
    if (!IsNumeric(t) && t != TypeId::kBool) continue;
    ZoneMap zm;
    zm.blocks.reserve(num_blocks);
    for (size_t b = 0; b < num_blocks; ++b) {
      zm.blocks.push_back(ComputeZoneMapEntry(c, b));
    }
    maps->emplace(c, std::move(zm));
  }
  return maps;
}

void Table::PublishZoneMaps(std::shared_ptr<const ZoneMapSet> maps) {
  MutexLock lock(index_mu_);
  zone_maps_ = std::move(maps);
}

void Table::BuildZoneMaps() {
  // Build off to the side: concurrent scans keep pruning against their
  // snapshot (or none) until the finished set is swapped in.
  PublishZoneMaps(ComputeZoneMaps());
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

void Table::FillIndex(HashIndex* index) const {
  index->Clear();
  const ColumnVector& col = columns_[index->column()];
  for (size_t r = 0; r < num_rows_; ++r) {
    if (col.IsNull(r)) continue;
    index->Insert(col.HashRow(r), static_cast<int64_t>(r));
  }
}

Status Table::BuildHashIndex(const std::string& index_name, size_t column) {
  if (column >= columns_.size()) {
    return Status::InvalidArgument("index column out of range");
  }
  // Build off to the side first: concurrent readers keep probing the old
  // snapshot (or none) until the finished index is swapped in below.
  auto index = std::make_shared<HashIndex>(index_name, column);
  FillIndex(index.get());
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

std::vector<std::shared_ptr<HashIndex>> Table::IndexesForWrite() const {
  MutexLock lock(index_mu_);
  return indexes_;
}

void Table::MaintainAfterAppend(size_t old_rows) {
  // One lock round trip on the bulk-load path, where nothing is derived.
  std::shared_ptr<const ZoneMapSet> maps;
  std::vector<std::shared_ptr<HashIndex>> indexes;
  {
    MutexLock lock(index_mu_);
    if (zone_maps_ == nullptr && indexes_.empty()) return;
    maps = zone_maps_;
    indexes = indexes_;
  }
  if (maps != nullptr) {
    // The last partial block is recomputed whole (not folded into), so
    // the result is exactly what a fresh build would produce.
    auto next = std::make_shared<ZoneMapSet>(*maps);
    const size_t first = old_rows / kChunkSize;
    const size_t num_blocks = (num_rows_ + kChunkSize - 1) / kChunkSize;
    for (auto& [c, zm] : *next) {
      zm.blocks.resize(num_blocks);
      for (size_t b = first; b < num_blocks; ++b) {
        zm.blocks[b] = ComputeZoneMapEntry(c, b);
      }
    }
    PublishZoneMaps(std::move(next));
  }
  for (const auto& index : indexes) {
    const ColumnVector& col = columns_[index->column()];
    for (size_t r = old_rows; r < num_rows_; ++r) {
      if (!col.IsNull(r)) index->Insert(col.HashRow(r), static_cast<int64_t>(r));
    }
  }
}

Status Table::VerifyDerived() const {
  auto fail = [this](const std::string& what) {
    return Status::Internal("table '" + name_ + "': " + what);
  };
  std::shared_ptr<const ZoneMapSet> maps = zone_maps();
  if (maps != nullptr) {
    std::shared_ptr<const ZoneMapSet> fresh = ComputeZoneMaps();
    if (maps->size() != fresh->size()) {
      return fail("maintained zone maps cover " +
                  std::to_string(maps->size()) + " columns, a rebuild " +
                  std::to_string(fresh->size()));
    }
    for (const auto& [c, want] : *fresh) {
      auto it = maps->find(c);
      if (it == maps->end()) {
        return fail("column " + std::to_string(c) + " lost its zone map");
      }
      const std::vector<ZoneMapEntry>& got = it->second.blocks;
      if (got.size() != want.blocks.size()) {
        return fail("zone map of column " + std::to_string(c) + " has " +
                    std::to_string(got.size()) + " blocks, a rebuild " +
                    std::to_string(want.blocks.size()));
      }
      for (size_t b = 0; b < got.size(); ++b) {
        const ZoneMapEntry& g = got[b];
        const ZoneMapEntry& w = want.blocks[b];
        // Bitwise: the same block computation must give the same doubles.
        if (g.has_values != w.has_values ||
            (w.has_values && (std::memcmp(&g.min, &w.min, sizeof(double)) != 0 ||
                              std::memcmp(&g.max, &w.max, sizeof(double)) != 0))) {
          return fail("zone map of column " + std::to_string(c) +
                      " block " + std::to_string(b) +
                      " differs from a rebuild");
        }
      }
    }
  }
  for (const auto& index : IndexesForWrite()) {
    const ColumnVector& col = columns_[index->column()];
    std::vector<uint8_t> seen(num_rows_, 0);
    size_t entries = 0;
    std::string bad;
    index->ForEach([&](uint64_t hash, int64_t row) {
      ++entries;
      if (!bad.empty()) return;
      if (row < 0 || static_cast<size_t>(row) >= num_rows_) {
        bad = "holds out-of-range row " + std::to_string(row);
      } else if (seen[row]++ != 0) {
        bad = "holds row " + std::to_string(row) + " twice";
      } else if (col.IsNull(row)) {
        bad = "holds NULL row " + std::to_string(row);
      } else if (col.HashRow(row) != hash) {
        bad = "holds row " + std::to_string(row) + " under a stale hash";
      }
    });
    size_t valid = 0;
    for (size_t r = 0; r < num_rows_; ++r) valid += col.IsNull(r) ? 0 : 1;
    if (bad.empty() && entries != valid) {
      bad = "holds " + std::to_string(entries) + " entries for " +
            std::to_string(valid) + " non-NULL rows";
    }
    if (!bad.empty()) return fail("index '" + index->name() + "' " + bad);
  }
  return Status::OK();
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
