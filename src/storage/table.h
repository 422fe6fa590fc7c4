#ifndef AGORA_STORAGE_TABLE_H_
#define AGORA_STORAGE_TABLE_H_

#include <algorithm>
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

  /// True if the block may contain one of `points` (ascending, no NaN):
  /// some point lies in the block's [min, max].
  bool BlockMayMatchAny(size_t block, const std::vector<double>& points) const {
    const ZoneMapEntry& e = blocks[block];
    if (!e.has_values) return false;
    auto it = std::lower_bound(points.begin(), points.end(), e.min);
    return it != points.end() && *it <= e.max;
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

  /// Removes the entries of `rows` (ascending) filed under any of
  /// `hashes`. Walks each hash's chain once, so the cost stays linear in
  /// the index even when many updated rows share a low-cardinality key.
  void Erase(const std::vector<uint64_t>& hashes,
             const std::vector<uint32_t>& rows) {
    for (uint64_t hash : hashes) {
      auto [it, end] = map_.equal_range(hash);
      while (it != end) {
        if (std::binary_search(rows.begin(), rows.end(), it->second)) {
          it = map_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  void Clear() { map_.clear(); }

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

  /// Calls fn(hash, row_id) for every entry, in unspecified order.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (const auto& [hash, row] : map_) fn(hash, row);
  }

  size_t size() const { return map_.size(); }

 private:
  std::string name_;
  size_t column_;
  std::unordered_multimap<uint64_t, int64_t> map_;
};

/// An in-memory columnar table: one ColumnVector per field plus optional
/// zone maps and secondary indexes. Row ids are positions.
///
/// Derived structures are maintained by every write, never dropped:
/// appends extend the last zone-map block and add new ones, UpdateRows
/// recomputes only the blocks it touched and moves the updated rows'
/// index entries, and RetainRows rebuilds both. On a table without zone
/// maps or indexes this costs one lock round trip per append, so bulk
/// loads stay cheap.
///
/// Concurrency: concurrent readers (GetChunk/GetRow/
/// GetHashIndex/zone_maps) are safe with each other and with
/// BuildHashIndex/BuildZoneMaps. The zone-map set is an immutable
/// shared_ptr snapshot: builds and writes assemble a new set off to the
/// side and swap it in under index_mu_, so a scan keeps pruning against
/// the set it opened with. The index registry is locked the same way, so
/// a SELECT racing CREATE INDEX probes the old index or the new one,
/// never a torn one. Mutating table *data* (AppendRow/AppendChunk/
/// RetainRows/UpdateRows) is NOT safe under concurrent readers; the
/// engine's writer lock provides that exclusion (see the Database class
/// comment), and the same exclusion covers the in-place updates those
/// calls make to existing hash indexes.
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

  /// Appends one row (coercing values to the column types).
  Status AppendRow(const std::vector<Value>& row);

  /// Appends all rows of `chunk` (column types must match the schema).
  Status AppendChunk(const Chunk& chunk);

  /// Keeps only the rows listed in `keep` (ascending row ids); everything
  /// else is deleted. Rebuilds zone maps and indexes that exist.
  Status RetainRows(const std::vector<uint32_t>& keep);

  /// Overwrites column `columns[k]` at the rows `rows` (strictly
  /// ascending) with `values[k]`: row i of values[k] lands in row
  /// rows[i]. Each values[k] has rows.size() rows and the column's type.
  /// One typed, dictionary-aware scatter per column (ColumnVector::
  /// Scatter); columns must be distinct.
  Status UpdateRows(const std::vector<uint32_t>& rows,
                    const std::vector<size_t>& columns,
                    const std::vector<ColumnVector>& values);

  /// Rows [start, start+count) as a Chunk of O(1) views into the
  /// table's buffers (ColumnVector::Slice), optionally projecting a
  /// subset of columns (empty = all, in schema order). Copy-on-write
  /// keeps the views' values fixed across later table mutations;
  /// GetChunk(0, num_rows()) is the whole table.
  Chunk GetChunk(size_t start, size_t count,
                 const std::vector<size_t>& projection = {}) const;

  /// Boxes one row (slow path).
  std::vector<Value> GetRow(size_t row) const;

  // -- Physical design knobs (E4) ---------------------------------------

  /// Builds per-block min/max zone maps for every numeric column. Safe
  /// under concurrent readers: the set is built off to the side and
  /// swapped in under the derived-structure lock (two scans lazily
  /// building at once produce identical sets; last swap wins).
  void BuildZoneMaps();
  bool HasZoneMaps() const;
  /// Snapshot of all zone maps (nullptr if never built). The snapshot
  /// stays valid — pruning against the state it was built from — even if
  /// the maps are concurrently rebuilt or maintained by a write.
  std::shared_ptr<const ZoneMapSet> zone_maps() const;
  /// Zone map for `column`, or nullptr if absent / non-numeric. The
  /// handle aliases the snapshot, so it outlives concurrent rebuilds.
  std::shared_ptr<const ZoneMap> GetZoneMap(size_t column) const;

  /// Builds (or rebuilds) a hash index named `index_name` on `column`.
  /// Safe under concurrent readers: the new index is built off to the
  /// side and swapped into the registry under the index lock.
  Status BuildHashIndex(const std::string& index_name, size_t column);
  /// Handle to the index on `column`, or nullptr. A CREATE INDEX
  /// replaces the registry entry, leaving held handles on the old index;
  /// writes update the registered index in place (under the engine's
  /// writer exclusion, so no reader holds a handle then).
  std::shared_ptr<const HashIndex> GetHashIndex(size_t column) const;

  /// AGORA_VERIFY check of the maintained derived state: the zone-map
  /// set (if any) equals a fresh build block by block, and every index
  /// holds exactly the non-NULL rows of its column, each under its
  /// HashRow hash. Returns Internal naming the first mismatch.
  Status VerifyDerived() const;

  /// Returns a copy of this table physically sorted by `column` ascending
  /// (NULLs first). Demonstrates physical/logical independence: same schema
  /// and contents, different layout.
  std::shared_ptr<Table> SortedCopy(const std::string& new_name,
                                    size_t column) const;

  /// Column payloads plus the dictionaries of encoded columns.
  size_t MemoryBytes() const;

 private:
  /// Zone maps of every numeric column over the current rows.
  std::shared_ptr<ZoneMapSet> ComputeZoneMaps() const;
  /// Min/max of `column` over block `block`.
  ZoneMapEntry ComputeZoneMapEntry(size_t column, size_t block) const;
  /// Clears `index` and inserts every non-NULL row of its column.
  void FillIndex(HashIndex* index) const;

  /// Maintenance after rows [old_rows, num_rows_) were appended: the
  /// last partial block and the new blocks of each zone map are
  /// recomputed, and the new rows enter every index. No-op when neither
  /// exists.
  void MaintainAfterAppend(size_t old_rows);

  /// The registered indexes, for a writer to update in place.
  std::vector<std::shared_ptr<HashIndex>> IndexesForWrite() const;
  /// Swaps in a new zone-map set.
  void PublishZoneMaps(std::shared_ptr<const ZoneMapSet> maps);

  uint64_t id_;
  std::string name_;
  Schema schema_;
  std::vector<ColumnVector> columns_;
  size_t num_rows_ = 0;

  // Derived structures: guarded by index_mu_ so lookups can race
  // rebuilds. Zone-map sets are immutable once published; the indexes
  // behind the registry are updated in place by writers (see the class
  // comment).
  mutable Mutex index_mu_;
  // Null until built.
  std::shared_ptr<const ZoneMapSet> zone_maps_ AGORA_GUARDED_BY(index_mu_);
  std::vector<std::shared_ptr<HashIndex>> indexes_
      AGORA_GUARDED_BY(index_mu_);
};

}  // namespace agora

#endif  // AGORA_STORAGE_TABLE_H_
