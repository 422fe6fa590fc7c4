#ifndef AGORA_EXEC_SCAN_H_
#define AGORA_EXEC_SCAN_H_

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "exec/hash_table.h"
#include "exec/physical_op.h"
#include "expr/expr.h"
#include "storage/table.h"

namespace agora {

/// Rows handed to one worker at a time by a morsel source (~64K rows =
/// 32 blocks). Small enough for work-stealing balance, large enough to
/// amortize dispatch.
inline constexpr size_t kMorselRows = 32 * kChunkSize;

/// A contiguous row range claimed by one worker. `index` is the morsel's
/// position in table order; parallel consumers merge per-morsel results in
/// index order so output (including float aggregate rounding) does not
/// depend on worker count or scheduling.
struct Morsel {
  size_t begin = 0;
  size_t end = 0;
  size_t index = 0;
};

/// A constraint on a base-table column derived from the pushed-down
/// predicate at plan time, used for zone-map block skipping: a [lo, hi]
/// range, or (from `col IN (...)`) a point set, where a block survives
/// only if one of the points lies in its [min, max].
struct ColumnRangeConstraint {
  size_t column;  // base-table column index
  double lo;
  double hi;
  /// The point set, ascending and NaN-free; when non-empty it replaces
  /// [lo, hi].
  std::vector<double> points;
};

/// Output of a scan run for UPDATE/DELETE: one INT64 column holding the
/// base-table row ids of the matching rows, ascending.
Schema RowIdSchema();

/// A hash join's build-side Bloom filter, applied by the scan that
/// produces the join's probe keys. `columns` are the scan-output columns
/// holding the keys, in the join's key order. The join owns the scan's
/// subtree and fills the filter before it opens that subtree.
struct JoinFilter {
  const BloomFilter* bloom = nullptr;
  std::vector<size_t> columns;
};

/// Sequential scan over a base table in kChunkSize blocks.
///
/// Optionally applies a pushed-down predicate during the scan and skips
/// whole blocks whose zone maps prove no row can satisfy the range
/// constraints (experiment E4: physical design changes plans, not queries).
/// With `emit_row_ids`, it emits the row ids of the surviving rows
/// (RowIdSchema) instead of gathering their columns.
///
/// Join filters (AddJoinFilter) refine the same selection after the
/// predicate: each hashes its key columns straight from the table through
/// the selection (HashJoinKeys, the join's own convention) and drops NULL
/// keys and Bloom misses, so a row no join above can match is never
/// gathered or probed. Filters stack in the order they were added; the
/// scan counts bloom_checked_rows/bloom_filtered_rows for them.
class PhysicalScan : public PhysicalOperator {
 public:
  PhysicalScan(std::shared_ptr<Table> table, std::vector<size_t> projection,
               ExprPtr predicate, std::vector<ColumnRangeConstraint> ranges,
               bool use_zone_maps, bool emit_row_ids, Schema schema,
               ExecContext* context);

  Status OpenImpl() override;
  Status NextImpl(Chunk* chunk, bool* done) override;
  std::string name() const override { return "Scan"; }

  bool emit_row_ids() const { return emit_row_ids_; }
  bool has_predicate() const { return predicate_ != nullptr; }
  /// Adds a join filter over scan-output `columns` (planner only; see
  /// JoinFilter). Not for row-id scans.
  void AddJoinFilter(const BloomFilter* bloom, std::vector<size_t> columns);

  // -- Morsel-source API (parallel path) --------------------------------
  //
  // Open() resets a shared atomic cursor; workers then ClaimMorsel() until
  // it is exhausted and run ScanMorsel() on their claim. The serial Next()
  // path keeps its own cursor and is unaffected.

  const std::shared_ptr<Table>& table() const { return table_; }
  size_t MorselCount() const {
    return (table_->num_rows() + kMorselRows - 1) / kMorselRows;
  }
  /// Atomically hands out the next unclaimed morsel. Thread-safe.
  bool ClaimMorsel(Morsel* morsel);
  /// Scans one morsel — zone-map skipping and the pushed predicate applied
  /// per block, exactly like the serial path — and feeds each surviving
  /// chunk to `sink`. Counters go to `stats` (a per-worker slot). Safe to
  /// call concurrently for distinct morsels.
  Status ScanMorsel(const Morsel& morsel,
                    const std::function<Status(Chunk&&)>& sink,
                    ExecStats* stats) const;

 private:
  /// Shared block-scan step: materializes [start, start+count) unless zone
  /// maps prove it empty (*skipped = true). Chunks fully removed by the
  /// pushed predicate come back with zero rows.
  Status ScanBlock(size_t start, size_t count, Chunk* out, bool* skipped,
                   ExecStats* stats) const;

  std::shared_ptr<Table> table_;
  std::vector<size_t> projection_;  // empty = all columns
  ExprPtr predicate_;               // bound against the projected schema
  std::vector<ColumnRangeConstraint> ranges_;  // base-table column indexes
  bool use_zone_maps_;
  bool emit_row_ids_;
  /// Zone-map snapshot captured once in Open: every block of this scan
  /// prunes against one consistent set even if a concurrent query
  /// rebuilds the table's maps mid-scan.
  std::shared_ptr<const ZoneMapSet> zone_map_snapshot_;
  size_t next_row_ = 0;                  // serial pull cursor
  std::atomic<size_t> morsel_cursor_{0};  // parallel claim cursor
  std::vector<JoinFilter> join_filters_;
  /// Zero-copy whole-table view (built in Open when a predicate or a join
  /// filter is pushed down). The fused filter refines a selection of
  /// absolute row ids against it and gathers once per block; read-only,
  /// so safe to share across morsel workers.
  Chunk scan_view_;
  /// Per join filter, its key columns of scan_view_ (shared, O(1) copies).
  std::vector<std::vector<ColumnVector>> join_filter_keys_;
};

/// Point-lookup scan through a hash index: emits only rows whose indexed
/// column equals `key`. Chosen by the physical planner for
/// `col = constant` predicates when an index exists. With
/// `emit_row_ids`, it emits the matching row ids (RowIdSchema).
class PhysicalIndexScan : public PhysicalOperator {
 public:
  PhysicalIndexScan(std::shared_ptr<Table> table,
                    std::vector<size_t> projection, size_t key_column,
                    Value key, ExprPtr residual_predicate, bool emit_row_ids,
                    Schema schema, ExecContext* context);

  Status OpenImpl() override;
  Status NextImpl(Chunk* chunk, bool* done) override;
  std::string name() const override { return "IndexScan"; }

 private:
  std::shared_ptr<Table> table_;
  std::vector<size_t> projection_;
  size_t key_column_;
  Value key_;
  ExprPtr residual_predicate_;
  bool emit_row_ids_;
  Chunk view_;  // whole-table view the residual refines in row-id mode
  std::vector<int64_t> matches_;
  size_t next_match_ = 0;
};

/// Applies `predicate` to `chunk`, keeping only TRUE rows. Refines a
/// selection vector (AND/OR short-circuit via RefineSelection) and
/// gathers once — or not at all when every row passes. Shared by scan,
/// filter, and join residuals. When `stats` is given, folds the
/// expression counters (expr_rows_evaluated, sel_vector_hits) into it
/// and counts chunks returned without a gather copy
/// (filter_gathers_avoided).
Result<Chunk> FilterChunk(const Chunk& chunk, const Expr& predicate,
                          ExecStats* stats = nullptr);

}  // namespace agora

#endif  // AGORA_EXEC_SCAN_H_
