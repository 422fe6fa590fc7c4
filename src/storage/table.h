#ifndef AGORA_STORAGE_TABLE_H_
#define AGORA_STORAGE_TABLE_H_

#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/thread_annotations.h"
#include "storage/chunk.h"
#include "storage/column_vector.h"
#include "types/schema.h"

namespace agora {

/// Per-block min/max statistics over a numeric column; blocks are
/// kChunkSize rows. NULL-only blocks have has_values == false.
struct ZoneMapEntry {
  double min = 0;
  double max = 0;
  bool has_values = false;
};

/// Zone map for one column: one entry per kChunkSize-row block.
struct ZoneMap {
  std::vector<ZoneMapEntry> blocks;

  /// True if the block may contain a value in [lo, hi].
  bool BlockMayMatch(size_t block, double lo, double hi) const {
    const ZoneMapEntry& e = blocks[block];
    if (!e.has_values) return false;
    return e.max >= lo && e.min <= hi;
  }
};

/// All of one table's zone maps, keyed by column index. Published as an
/// immutable shared_ptr snapshot so scans can keep pruning against the
/// set they opened with while a concurrent rebuild swaps in a new one.
using ZoneMapSet = std::unordered_map<size_t, ZoneMap>;

/// Secondary hash index mapping a column's value hash to row ids.
/// Collisions are resolved by re-checking the stored value on probe.
class HashIndex {
 public:
  HashIndex(std::string name, size_t column) : name_(std::move(name)), column_(column) {}

  const std::string& name() const { return name_; }
  size_t column() const { return column_; }

  void Insert(uint64_t hash, int64_t row_id) {
    map_.emplace(hash, row_id);
  }

  /// All candidate row ids whose key hash equals `hash` (callers must
  /// verify equality on the actual column value).
  std::vector<int64_t> Probe(uint64_t hash) const {
    std::vector<int64_t> out;
    auto range = map_.equal_range(hash);
    for (auto it = range.first; it != range.second; ++it) {
      out.push_back(it->second);
    }
    return out;
  }

  size_t size() const { return map_.size(); }

 private:
  std::string name_;
  size_t column_;
  std::unordered_multimap<uint64_t, int64_t> map_;
};

/// An in-memory columnar table: one ColumnVector per field plus optional
/// zone maps and secondary indexes. Append-only; row ids are positions.
///
/// Concurrency: concurrent readers (GetChunk/GetChunkView/GetRow/
/// GetHashIndex/zone_maps) are safe with each other and with
/// BuildHashIndex/BuildZoneMaps — the derived-structure registries are
/// internally locked and hand out shared_ptr snapshots, so a SELECT
/// racing CREATE INDEX (or a sibling scan's lazy zone-map build) either
/// probes the old structure or the new one, never a torn one. Mutating
/// table *data* (AppendRow/AppendChunk/RetainRows/SetCell) is NOT safe
/// under concurrent readers; the engine's writer lock provides that
/// exclusion (see the Database class comment).
class Table {
 public:
  Table(std::string name, Schema schema);

  /// Process-unique id assigned at construction and never reused, even
  /// after the table is dropped and its memory recycled. Caches that
  /// outlive a DROP TABLE (e.g. the optimizer's StatsCache) key on this
  /// instead of the heap address, which a successor table may reuse.
  uint64_t id() const { return id_; }

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return columns_.size(); }

  const ColumnVector& column(size_t i) const { return columns_[i]; }

  /// Appends one row; invalidates zone maps and indexes built earlier.
  Status AppendRow(const std::vector<Value>& row);

  /// Appends all rows of `chunk` (column types must match the schema).
  Status AppendChunk(const Chunk& chunk);

  /// Keeps only the rows listed in `keep` (ascending row ids); everything
  /// else is deleted. Invalidates zone maps and indexes.
  Status RetainRows(const std::vector<uint32_t>& keep);

  /// Overwrites one cell (coercing `v` to the column type). Invalidates
  /// zone maps and indexes.
  Status SetCell(size_t row, size_t column, const Value& v);

  /// Materializes rows [start, start+count) as a Chunk, optionally
  /// projecting a subset of columns (empty = all, in schema order).
  Chunk GetChunk(size_t start, size_t count,
                 const std::vector<size_t>& projection = {}) const;

  /// Zero-copy view of the whole table as one Chunk: columns share the
  /// table's buffers (copy-on-write protects readers from later table
  /// mutations). Used by the fused scan-filter path, which refines a
  /// selection over the view and gathers surviving rows once per block.
  Chunk GetChunkView(const std::vector<size_t>& projection = {}) const;

  /// Boxes one row (slow path).
  std::vector<Value> GetRow(size_t row) const;

  // -- Physical design knobs (E4) ---------------------------------------

  /// Builds per-block min/max zone maps for every numeric column. Safe
  /// under concurrent readers: the set is built off to the side and
  /// swapped in under the derived-structure lock (two scans lazily
  /// building at once produce identical sets; last swap wins).
  void BuildZoneMaps();
  bool HasZoneMaps() const;
  /// Snapshot of all zone maps (nullptr if never built / invalidated).
  /// The snapshot stays valid — pruning against the state it was built
  /// from — even if the maps are concurrently rebuilt or invalidated.
  std::shared_ptr<const ZoneMapSet> zone_maps() const;
  /// Zone map for `column`, or nullptr if absent / non-numeric. The
  /// handle aliases the snapshot, so it outlives concurrent rebuilds.
  std::shared_ptr<const ZoneMap> GetZoneMap(size_t column) const;

  /// Builds (or rebuilds) a hash index named `index_name` on `column`.
  /// Safe under concurrent readers: the new index is built off to the
  /// side and swapped into the registry under the index lock.
  Status BuildHashIndex(const std::string& index_name, size_t column);
  /// Snapshot handle to the index on `column`, or nullptr. The handle
  /// stays valid (probing the state it was built from) even if the index
  /// is concurrently rebuilt or invalidated.
  std::shared_ptr<const HashIndex> GetHashIndex(size_t column) const;

  /// Returns a copy of this table physically sorted by `column` ascending
  /// (NULLs first). Demonstrates physical/logical independence: same schema
  /// and contents, different layout.
  std::shared_ptr<Table> SortedCopy(const std::string& new_name,
                                    size_t column) const;

  /// Column payloads plus the dictionaries of encoded columns.
  size_t MemoryBytes() const;

 private:
  uint64_t id_;
  std::string name_;
  Schema schema_;
  std::vector<ColumnVector> columns_;
  size_t num_rows_ = 0;

  /// Drops derived structures after a data mutation (caller holds writer
  /// exclusion for the data; the index registry still locks internally so
  /// concurrent snapshot holders stay safe).
  void InvalidateDerived();

  // Derived structures: guarded by index_mu_ so lookups can race
  // rebuilds; everything handed out is a shared_ptr snapshot.
  mutable Mutex index_mu_;
  // Null until built.
  std::shared_ptr<const ZoneMapSet> zone_maps_ AGORA_GUARDED_BY(index_mu_);
  std::vector<std::shared_ptr<HashIndex>> indexes_
      AGORA_GUARDED_BY(index_mu_);
};

}  // namespace agora

#endif  // AGORA_STORAGE_TABLE_H_
