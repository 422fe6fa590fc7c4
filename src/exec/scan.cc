#include "exec/scan.h"

#include <algorithm>
#include <numeric>

namespace agora {

Result<Chunk> FilterChunk(const Chunk& chunk, const Expr& predicate,
                          ExecStats* stats) {
  Selection sel;
  ExprCounters counters;
  AGORA_RETURN_IF_ERROR(
      RefineSelection(predicate, chunk, &sel, &counters));
  if (stats != nullptr) {
    stats->expr_rows_evaluated += counters.rows_evaluated;
    stats->sel_vector_hits += counters.sel_hits;
  }
  if (sel.all) {
    if (stats != nullptr) stats->filter_gathers_avoided++;
    return chunk;
  }
  if (sel.rows.size() == chunk.num_rows()) {
    if (stats != nullptr) stats->filter_gathers_avoided++;
    return chunk;
  }
  return chunk.GatherRows(sel.rows);
}

Schema RowIdSchema() {
  return Schema({Field{"rowid", TypeId::kInt64, false}});
}

namespace {

/// A RowIdSchema chunk holding `rows`.
Chunk RowIdChunk(const std::vector<uint32_t>& rows) {
  ColumnVector ids(TypeId::kInt64);
  ids.ResizeForOverwrite(rows.size());
  int64_t* out = ids.mutable_int64_data();
  for (size_t i = 0; i < rows.size(); ++i) out[i] = rows[i];
  std::fill_n(ids.mutable_validity_data(), rows.size(), uint8_t{1});
  Chunk chunk;
  chunk.AddColumn(std::move(ids));
  return chunk;
}

}  // namespace

PhysicalScan::PhysicalScan(std::shared_ptr<Table> table,
                           std::vector<size_t> projection, ExprPtr predicate,
                           std::vector<ColumnRangeConstraint> ranges,
                           bool use_zone_maps, bool emit_row_ids,
                           Schema schema, ExecContext* context)
    : PhysicalOperator(std::move(schema), context),
      table_(std::move(table)),
      projection_(std::move(projection)),
      predicate_(std::move(predicate)),
      ranges_(std::move(ranges)),
      use_zone_maps_(use_zone_maps),
      emit_row_ids_(emit_row_ids) {}

void PhysicalScan::AddJoinFilter(const BloomFilter* bloom,
                                 std::vector<size_t> columns) {
  AGORA_CHECK(!emit_row_ids_);
  join_filters_.push_back(JoinFilter{bloom, std::move(columns)});
}

Status PhysicalScan::OpenImpl() {
  next_row_ = 0;
  morsel_cursor_.store(0, std::memory_order_relaxed);
  if (use_zone_maps_ && !table_->HasZoneMaps()) {
    // Zone maps were requested by the planner but not built yet; build
    // them now (idempotent, amortized across queries on static tables;
    // concurrent scans building at once swap in identical sets).
    table_->BuildZoneMaps();
  }
  zone_map_snapshot_ = use_zone_maps_ ? table_->zone_maps() : nullptr;
  if (predicate_ != nullptr || !join_filters_.empty()) {
    scan_view_ = table_->GetChunkView(projection_);
  }
  join_filter_keys_.clear();
  for (const JoinFilter& filter : join_filters_) {
    std::vector<ColumnVector> keys;
    for (size_t c : filter.columns) keys.push_back(scan_view_.column(c));
    join_filter_keys_.push_back(std::move(keys));
  }
  return Status::OK();
}

Status PhysicalScan::ScanBlock(size_t start, size_t count, Chunk* out,
                               bool* skipped, ExecStats* stats) const {
  *skipped = false;
  size_t block = start / kChunkSize;

  // Zone-map pruning: skip the block if any range constraint proves it
  // empty of matches.
  if (use_zone_maps_ && !ranges_.empty() && zone_map_snapshot_ != nullptr) {
    for (const ColumnRangeConstraint& r : ranges_) {
      auto it = zone_map_snapshot_->find(r.column);
      const ZoneMap* zm =
          it == zone_map_snapshot_->end() ? nullptr : &it->second;
      if (zm != nullptr && block < zm->blocks.size() &&
          !(r.points.empty() ? zm->BlockMayMatch(block, r.lo, r.hi)
                             : zm->BlockMayMatchAny(block, r.points))) {
        stats->blocks_skipped++;
        *skipped = true;
        return Status::OK();
      }
    }
  }

  size_t end = std::min(start + count, table_->num_rows());
  size_t n = end > start ? end - start : 0;

  if (predicate_ != nullptr || !join_filters_.empty()) {
    // Fused scan filter: refine a selection of absolute row ids over
    // the zero-copy table view — by the predicate, then by each join
    // filter — and gather survivors once. The raw block is never
    // materialized.
    Selection sel;
    sel.all = false;
    sel.rows.resize(n);
    for (size_t i = 0; i < n; ++i) {
      sel.rows[i] = static_cast<uint32_t>(start + i);
    }
    if (predicate_ != nullptr) {
      ExprCounters counters;
      AGORA_RETURN_IF_ERROR(
          RefineSelection(*predicate_, scan_view_, &sel, &counters));
      stats->expr_rows_evaluated += counters.rows_evaluated;
      stats->sel_vector_hits += counters.sel_hits;
    }
    stats->blocks_read++;
    stats->rows_scanned += static_cast<int64_t>(n);
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> valid;
    for (size_t f = 0; f < join_filters_.size() && !sel.rows.empty(); ++f) {
      const BloomFilter& bloom = *join_filters_[f].bloom;
      size_t m = sel.rows.size();
      HashJoinKeys(join_filter_keys_[f], sel.rows.data(), m, &hashes,
                   &valid);
      // Branch-free compaction: most rows miss. NULL keys never match and
      // are not counted as Bloom checks (the probe never checked them).
      size_t kept = 0;
      int64_t checked = 0;
      for (size_t i = 0; i < m; ++i) {
        sel.rows[kept] = sel.rows[i];
        kept += valid[i] & static_cast<uint8_t>(bloom.MightContain(hashes[i]));
        checked += valid[i];
      }
      stats->bloom_checked_rows += checked;
      stats->bloom_filtered_rows += checked - static_cast<int64_t>(kept);
      sel.rows.resize(kept);
    }
    Chunk res;
    if (emit_row_ids_) {
      res = RowIdChunk(sel.rows);
    } else if (sel.rows.size() == n) {
      // Whole block passes: a contiguous slice beats a gather.
      res = table_->GetChunk(start, count, projection_);
      stats->filter_gathers_avoided++;
    } else {
      res = scan_view_.GatherRows(sel.rows);
    }
    stats->bytes_materialized += static_cast<int64_t>(res.MemoryBytes());
    *out = std::move(res);
    return Status::OK();
  }

  Chunk raw;
  if (emit_row_ids_) {
    std::vector<uint32_t> rows(n);
    std::iota(rows.begin(), rows.end(), static_cast<uint32_t>(start));
    raw = RowIdChunk(rows);
  } else {
    raw = table_->GetChunk(start, count, projection_);
  }
  stats->blocks_read++;
  stats->rows_scanned += static_cast<int64_t>(raw.num_rows());
  stats->bytes_materialized += static_cast<int64_t>(raw.MemoryBytes());
  *out = std::move(raw);
  return Status::OK();
}

Status PhysicalScan::NextImpl(Chunk* chunk, bool* done) {
  size_t total = table_->num_rows();
  while (next_row_ < total) {
    size_t count = std::min(kChunkSize, total - next_row_);
    Chunk raw;
    bool skipped = false;
    AGORA_RETURN_IF_ERROR(
        ScanBlock(next_row_, count, &raw, &skipped, &context_->stats));
    next_row_ += count;
    if (skipped || raw.num_rows() == 0) continue;  // keep pulling
    *chunk = std::move(raw);
    *done = next_row_ >= total;
    context_->stats.chunks_emitted++;
    return Status::OK();
  }
  *chunk = Chunk(schema_);
  *done = true;
  return Status::OK();
}

bool PhysicalScan::ClaimMorsel(Morsel* morsel) {
  size_t total = table_->num_rows();
  size_t begin = morsel_cursor_.fetch_add(kMorselRows,
                                          std::memory_order_relaxed);
  if (begin >= total) return false;
  morsel->begin = begin;
  morsel->end = std::min(begin + kMorselRows, total);
  morsel->index = begin / kMorselRows;
  return true;
}

Status PhysicalScan::ScanMorsel(const Morsel& morsel,
                                const std::function<Status(Chunk&&)>& sink,
                                ExecStats* stats) const {
  for (size_t row = morsel.begin; row < morsel.end; row += kChunkSize) {
    size_t count = std::min(kChunkSize, morsel.end - row);
    Chunk raw;
    bool skipped = false;
    AGORA_RETURN_IF_ERROR(ScanBlock(row, count, &raw, &skipped, stats));
    if (skipped || raw.num_rows() == 0) continue;
    stats->chunks_emitted++;
    AGORA_RETURN_IF_ERROR(sink(std::move(raw)));
  }
  return Status::OK();
}

PhysicalIndexScan::PhysicalIndexScan(std::shared_ptr<Table> table,
                                     std::vector<size_t> projection,
                                     size_t key_column, Value key,
                                     ExprPtr residual_predicate,
                                     bool emit_row_ids, Schema schema,
                                     ExecContext* context)
    : PhysicalOperator(std::move(schema), context),
      table_(std::move(table)),
      projection_(std::move(projection)),
      key_column_(key_column),
      key_(std::move(key)),
      residual_predicate_(std::move(residual_predicate)),
      emit_row_ids_(emit_row_ids) {}

Status PhysicalIndexScan::OpenImpl() {
  next_match_ = 0;
  matches_.clear();
  std::shared_ptr<const HashIndex> index = table_->GetHashIndex(key_column_);
  if (index == nullptr) {
    return Status::Internal("index scan planned but index is missing on '" +
                            table_->name() + "'");
  }
  std::vector<int64_t> candidates = index->Probe(key_.Hash());
  context_->stats.probe_calls += static_cast<int64_t>(candidates.size());
  const ColumnVector& col = table_->column(key_column_);
  for (int64_t row : candidates) {
    if (!col.IsNull(static_cast<size_t>(row)) &&
        col.GetValue(static_cast<size_t>(row)).Compare(key_) == 0) {
      matches_.push_back(row);
    }
  }
  std::sort(matches_.begin(), matches_.end());
  if (emit_row_ids_ && residual_predicate_ != nullptr) {
    view_ = table_->GetChunkView(projection_);
  }
  return Status::OK();
}

Status PhysicalIndexScan::NextImpl(Chunk* chunk, bool* done) {
  if (emit_row_ids_) {
    // The residual refines a selection of absolute row ids over the
    // table view, like the fused scan filter; nothing is gathered.
    Selection sel;
    sel.all = false;
    while (sel.rows.empty() && next_match_ < matches_.size()) {
      size_t take = std::min(kChunkSize, matches_.size() - next_match_);
      sel.rows.assign(matches_.begin() + next_match_,
                      matches_.begin() + next_match_ + take);
      next_match_ += take;
      context_->stats.rows_scanned += static_cast<int64_t>(take);
      if (residual_predicate_ != nullptr) {
        ExprCounters counters;
        AGORA_RETURN_IF_ERROR(RefineSelection(*residual_predicate_, view_,
                                              &sel, &counters));
        context_->stats.expr_rows_evaluated += counters.rows_evaluated;
        context_->stats.sel_vector_hits += counters.sel_hits;
      }
    }
    *chunk = sel.rows.empty() ? Chunk(schema_) : RowIdChunk(sel.rows);
    *done = next_match_ >= matches_.size();
    return Status::OK();
  }
  // Batch-gather the next block of matched row ids column-at-a-time,
  // the same columnar path Table::GetChunk uses — one type dispatch per
  // column instead of boxing every cell through Value.
  size_t take = std::min(kChunkSize, matches_.size() - next_match_);
  Chunk out(schema_);
  if (take > 0) {
    std::vector<uint32_t> sel(take);
    for (size_t i = 0; i < take; ++i) {
      sel[i] = static_cast<uint32_t>(matches_[next_match_ + i]);
    }
    next_match_ += take;
    if (projection_.empty()) {
      for (size_t c = 0; c < table_->num_columns(); ++c) {
        out.column(c).AppendGatherPadded(table_->column(c), sel.data(),
                                         take);
      }
    } else {
      for (size_t c = 0; c < projection_.size(); ++c) {
        out.column(c).AppendGatherPadded(table_->column(projection_[c]),
                                         sel.data(), take);
      }
    }
  }
  context_->stats.rows_scanned += static_cast<int64_t>(take);
  if (residual_predicate_ != nullptr && out.num_rows() > 0) {
    AGORA_ASSIGN_OR_RETURN(
        out, FilterChunk(out, *residual_predicate_, &context_->stats));
  }
  *chunk = std::move(out);
  *done = next_match_ >= matches_.size();
  return Status::OK();
}

}  // namespace agora
