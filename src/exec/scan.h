#ifndef AGORA_EXEC_SCAN_H_
#define AGORA_EXEC_SCAN_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "exec/hash_table.h"
#include "exec/physical_op.h"
#include "expr/expr.h"
#include "expr/expr_rewrite.h"
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

/// Output of a scan run for UPDATE/DELETE: one INT64 column holding the
/// base-table row ids of the matching rows, ascending.
Schema RowIdSchema();

/// A hash join's build-side key filter, applied by the scan that
/// produces the join's probe keys. `columns` are the scan-output columns
/// holding the keys, in the join's key order. The join owns the scan's
/// subtree and fills the filter before it opens that subtree.
struct JoinFilter {
  const JoinKeyFilter* filter = nullptr;
  std::vector<size_t> columns;
};

/// Sequential scan over a base table in kChunkSize blocks.
///
/// Optionally applies a pushed-down predicate during the scan and, with
/// `zone_maps`, skips whole blocks whose zone maps prove no row can
/// satisfy it (experiment E4: physical design changes plans, not
/// queries). With `emit_row_ids`, it emits the row ids of the surviving
/// rows (RowIdSchema) instead of gathering their columns.
///
/// The scan reads its predicate once, at construction (PlanPredicate):
/// one pass over the conjuncts fixes the order they run in
/// (OrderScanConjuncts: the conjuncts that fold onto one BIGINT or DATE
/// column move to the front, past conjuncts that cannot fail only; the
/// rest keep their SQL order; EXPLAIN prints this order), splits off the
/// leading range below, and, with `zone_maps`, finds the bound each
/// conjunct puts on a column for block skipping: `col op literal` on a
/// numeric or BOOLEAN column (not `<>`, NULL, NaN or string literals) and
/// `col IN (...)` of numbers, as a point set. The order is part of the
/// plan, so counters read as if each conjunct ran alone in that order and
/// agree at every thread count.
///
/// The fused filter path (a pushed predicate or a join filter) builds a
/// selection of absolute row ids per block over a zero-copy table view:
///  * Leading range. The `col op literal` comparisons at the front of the
///    order on one BIGINT or DATE column, each literal of the column's
///    type, fold into one inclusive int64 range, tested in one
///    branch-free pass over the block's contiguous rows. The rest of the
///    predicate refines that selection (RefineSelection), so a later
///    conjunct sees only the rows earlier ones kept. A string comparison
///    or IN list over a dictionary column runs there once per entry and
///    keeps each row by its code (expr/expr_eval.cc).
///  * Join filters (AddJoinFilter) refine it next: each tests its key
///    columns straight from the table through the selection
///    (JoinKeyFilter::Select: a key bitmap, or a Bloom filter over the
///    join's own key hashes) and drops NULL keys and misses, so a row no
///    join above can match is never gathered or probed. While no
///    predicate has run, the first filter reads the block's rows in
///    place. Filters stack in the order they were added; the scan counts
///    bloom_checked_rows/bloom_filtered_rows for them.
///  * Full chunks. Survivors of consecutive blocks of one morsel are
///    gathered together into chunks of up to kChunkSize rows, in table
///    order; the serial path flushes at the same morsel bounds. A block
///    whose every row passes is emitted as a slice of the table instead,
///    after the rows still pending before it.
class PhysicalScan : public PhysicalOperator {
 public:
  PhysicalScan(std::shared_ptr<Table> table, std::vector<size_t> projection,
               ExprPtr predicate, bool zone_maps, bool emit_row_ids,
               Schema schema, ExecContext* context);

  Status OpenImpl() override;
  Status NextImpl(Chunk* chunk, bool* done) override;
  std::string name() const override { return "Scan"; }

  bool emit_row_ids() const { return emit_row_ids_; }
  bool has_predicate() const { return predicate_ != nullptr; }
  /// Adds a join filter over scan-output `columns` (planner only; see
  /// JoinFilter). Not for row-id scans.
  void AddJoinFilter(const JoinKeyFilter* filter,
                     std::vector<size_t> columns);

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
  /// per block, exactly like the serial path — and feeds each non-empty
  /// chunk to `sink`. Counters go to `stats` (a per-worker slot). Safe to
  /// call concurrently for distinct morsels.
  Status ScanMorsel(const Morsel& morsel,
                    const std::function<Status(Chunk&&)>& sink,
                    ExecStats* stats) const;

 private:
  /// One stream of output chunks over rows [next_row, end): the serial
  /// pull path has one per Open, each morsel one of its own. Holds the
  /// surviving row ids not yet emitted and the per-block scratch.
  struct ScanCursor {
    size_t next_row = 0;  // first row of the next block to read
    size_t end = 0;
    /// Survivors of the blocks read so far, absolute and ascending.
    std::vector<uint32_t> pending;
    /// A fully passing block waiting for `pending` to be emitted first.
    size_t slice_start = 0;
    size_t slice_rows = 0;
    // Per-block scratch.
    std::vector<uint32_t> block_rows;

    bool exhausted() const {
      return next_row >= end && pending.empty() && slice_rows == 0;
    }
  };

  /// An inclusive int64 range; empty when lo > hi.
  struct IntRange {
    int64_t lo = INT64_MIN;
    int64_t hi = INT64_MAX;
  };

  /// A bound on a base-table column that zone maps test per block: a
  /// [lo, hi] range, or (from `col IN (...)`) a point set, where a block
  /// survives only if one of the points lies in its [min, max].
  struct ColumnRangeConstraint {
    size_t column;  // base-table column index
    double lo;
    double hi;
    /// The point set, ascending and NaN-free; when non-empty it replaces
    /// [lo, hi].
    std::vector<double> points;
  };

  /// The one pass over the predicate's conjuncts: orders them, splits off
  /// the leading range (range_column_, range_prefixes_) from the rest
  /// (rest_predicate_) and, with `zone_maps`, collects ranges_.
  void PlanPredicate(bool zone_maps);
  /// The zone-map bound `conjunct` (matched as `m`, when it compares a
  /// column with a literal) puts on a base-table column, if any.
  std::optional<ColumnRangeConstraint> ZoneRange(
      const Expr& conjunct, const std::optional<ColumnLiteral>& m) const;
  /// True when zone maps prove the block starting at `start` empty.
  bool BlockPruned(size_t start, ExecStats* stats) const;
  /// Sets cur->block_rows to the absolute ids of the rows of
  /// [start, start + n) that pass the predicate and the join filters.
  Status FilterBlock(size_t start, size_t n, ScanCursor* cur,
                     ExecStats* stats) const;
  /// The cursor's next non-empty output chunk, or an empty `out` once
  /// the cursor is exhausted. The one routine behind NextImpl and
  /// ScanMorsel.
  Status NextChunk(ScanCursor* cur, Chunk* out, ExecStats* stats) const;

  std::shared_ptr<Table> table_;
  std::vector<size_t> projection_;  // empty = all columns
  ExprPtr predicate_;               // bound against the projected schema
  /// Column of scan_view_ the leading range reads (SIZE_MAX: none), and
  /// the range of each prefix of its conjuncts: range_prefixes_[j] holds
  /// the rows passing conjuncts 0..j, and the last is the whole range.
  size_t range_column_ = SIZE_MAX;
  std::vector<IntRange> range_prefixes_;
  /// The predicate's conjuncts after the leading range, in the order they
  /// run (null if none).
  ExprPtr rest_predicate_;
  /// Zone-map bounds of the predicate; empty without zone maps.
  std::vector<ColumnRangeConstraint> ranges_;
  bool emit_row_ids_;
  /// Zone-map snapshot captured once in Open: every block of this scan
  /// prunes against one consistent set even if a concurrent query
  /// rebuilds the table's maps mid-scan.
  std::shared_ptr<const ZoneMapSet> zone_map_snapshot_;
  ScanCursor cursor_;                     // serial pull path
  std::atomic<size_t> morsel_cursor_{0};  // parallel claim cursor
  std::vector<JoinFilter> join_filters_;
  /// Zero-copy whole-table view (built in Open when a predicate or a join
  /// filter is pushed down). The fused filter refines a selection of
  /// absolute row ids against it and gathers once per output chunk;
  /// read-only, so safe to share across morsel workers.
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

/// Sets `*sel` to the rows of `chunk` where `predicate` is TRUE, by
/// refining a selection vector (AND/OR short-circuit via
/// RefineSelection); `sel->all` when every row passes. When `stats` is
/// given, folds the expression counters (expr_rows_evaluated,
/// sel_vector_hits) into it and counts a selection that keeps every row
/// (filter_gathers_avoided: its rows need no gather).
Status SelectRows(const Expr& predicate, const Chunk& chunk, Selection* sel,
                  ExecStats* stats);

/// Applies `predicate` to `chunk`, keeping only TRUE rows: SelectRows,
/// then one gather — or none when every row passes. Shared by scan,
/// filter, and nested-loop join conditions.
Result<Chunk> FilterChunk(const Chunk& chunk, const Expr& predicate,
                          ExecStats* stats = nullptr);

}  // namespace agora

#endif  // AGORA_EXEC_SCAN_H_
