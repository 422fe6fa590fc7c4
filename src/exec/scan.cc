#include "exec/scan.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "expr/expr_rewrite.h"

namespace agora {

Status SelectRows(const Expr& predicate, const Chunk& chunk, Selection* sel,
                  ExecStats* stats) {
  *sel = Selection{};
  ExprCounters counters;
  AGORA_RETURN_IF_ERROR(RefineSelection(predicate, chunk, sel, &counters));
  if (stats != nullptr) {
    stats->expr_rows_evaluated += counters.rows_evaluated;
    stats->sel_vector_hits += counters.sel_hits;
  }
  if (sel->all || sel->rows.size() == chunk.num_rows()) {
    if (stats != nullptr) stats->filter_gathers_avoided++;
    sel->all = true;
    sel->rows.clear();
  }
  return Status::OK();
}

Result<Chunk> FilterChunk(const Chunk& chunk, const Expr& predicate,
                          ExecStats* stats) {
  Selection sel;
  AGORA_RETURN_IF_ERROR(SelectRows(predicate, chunk, &sel, stats));
  if (sel.all) return chunk;
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

/// True for the column types zone maps keep bounds of.
bool ZoneMapped(TypeId type) {
  return IsNumeric(type) || type == TypeId::kBool;
}

/// lo <= x <= lo + span as one unsigned compare (lo and span as uint64).
bool InRange(int64_t x, uint64_t lo, uint64_t span) {
  return static_cast<uint64_t>(x) - lo <= span;
}

/// Writes base + i for each valid row i of [0, n) with inner_lo <= x[i]
/// <= inner_hi to `out`, ascending, and returns how many; sets *in_outer
/// to the number of valid rows in [outer_lo, outer_hi], which holds the
/// inner range (both non-empty). One branch-free pass: each range costs
/// a compare a row.
size_t SelectInRange(const int64_t* x, const uint8_t* valid, size_t n,
                     int64_t inner_lo, int64_t inner_hi, int64_t outer_lo,
                     int64_t outer_hi, uint32_t base, uint32_t* out,
                     size_t* in_outer) {
  const auto ilo = static_cast<uint64_t>(inner_lo);
  const uint64_t ispan = static_cast<uint64_t>(inner_hi) - ilo;
  const auto olo = static_cast<uint64_t>(outer_lo);
  const uint64_t ospan = static_cast<uint64_t>(outer_hi) - olo;
  size_t k = 0;
  size_t outer = 0;
  for (size_t i = 0; i < n; ++i) {
    out[k] = base + static_cast<uint32_t>(i);
    k += valid[i] & static_cast<uint8_t>(InRange(x[i], ilo, ispan));
    outer += valid[i] & static_cast<uint8_t>(InRange(x[i], olo, ospan));
  }
  *in_outer = outer;
  return k;
}

/// The number of valid rows of [0, n) with lo <= x[i] <= hi (lo <= hi).
size_t CountInRange(const int64_t* x, const uint8_t* valid, size_t n,
                    int64_t lo, int64_t hi) {
  const auto ulo = static_cast<uint64_t>(lo);
  const uint64_t span = static_cast<uint64_t>(hi) - ulo;
  size_t k = 0;
  for (size_t i = 0; i < n; ++i) {
    k += valid[i] & static_cast<uint8_t>(InRange(x[i], ulo, span));
  }
  return k;
}

}  // namespace

PhysicalScan::PhysicalScan(std::shared_ptr<Table> table,
                           std::vector<size_t> projection, ExprPtr predicate,
                           bool zone_maps, bool emit_row_ids, Schema schema,
                           ExecContext* context)
    : PhysicalOperator(std::move(schema), context),
      table_(std::move(table)),
      projection_(std::move(projection)),
      predicate_(std::move(predicate)),
      emit_row_ids_(emit_row_ids) {
  PlanPredicate(zone_maps);
}

void PhysicalScan::PlanPredicate(bool zone_maps) {
  rest_predicate_ = predicate_;
  if (predicate_ == nullptr) return;
  ScanOrder order = OrderScanConjuncts(SplitConjuncts(predicate_));
  std::vector<ExprPtr>& conjuncts = order.conjuncts;
  IntRange range;
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const std::optional<ColumnLiteral> m = MatchColumnLiteral(*conjuncts[i]);
    if (zone_maps) {
      std::optional<ColumnRangeConstraint> r = ZoneRange(*conjuncts[i], m);
      if (r.has_value()) ranges_.push_back(std::move(*r));
    }
    if (i >= order.range) continue;
    int64_t lo = 0;
    int64_t hi = 0;
    FoldRange(*m, &lo, &hi);  // the order put only folding conjuncts here
    range_column_ = m->column->index();
    range.lo = std::max(range.lo, lo);
    range.hi = std::min(range.hi, hi);
    range_prefixes_.push_back(range);
  }
  if (order.range == 0) return;  // nothing moved: the predicate as written
  conjuncts.erase(conjuncts.begin(), conjuncts.begin() + order.range);
  // The rest stays an AND, so a non-BOOLEAN conjunct fails as the
  // operand of a logical expression, exactly as inside the whole one.
  rest_predicate_ =
      conjuncts.empty()
          ? nullptr
          : std::make_shared<LogicalExpr>(LogicalOp::kAnd, std::move(conjuncts));
}

std::optional<PhysicalScan::ColumnRangeConstraint> PhysicalScan::ZoneRange(
    const Expr& conjunct, const std::optional<ColumnLiteral>& m) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  ColumnRangeConstraint r;
  const ColumnRefExpr* ref = nullptr;
  if (conjunct.kind() == ExprKind::kInList) {
    // The sorted non-NULL literals. NOT IN, string lists and lists
    // holding a NaN (which Value::Compare finds equal to everything) are
    // not pruned.
    const auto& in = static_cast<const InListExpr&>(conjunct);
    if (in.negated() || in.child()->kind() != ExprKind::kColumnRef) {
      return std::nullopt;
    }
    ref = static_cast<const ColumnRefExpr*>(in.child().get());
    if (!ZoneMapped(ref->result_type())) return std::nullopt;
    for (const Value& v : in.values()) {
      if (v.is_null()) continue;
      if (v.type() == TypeId::kString || std::isnan(v.AsDouble())) {
        return std::nullopt;
      }
      r.points.push_back(v.AsDouble());
    }
    if (r.points.empty()) return std::nullopt;
    std::sort(r.points.begin(), r.points.end());
    r.lo = r.points.front();
    r.hi = r.points.back();
  } else {
    if (!m.has_value() || !ZoneMapped(m->column->result_type()) ||
        m->literal->is_null() || m->literal->type() == TypeId::kString ||
        m->op == CompareOp::kNe) {
      return std::nullopt;
    }
    ref = m->column;
    const double v = m->literal->AsDouble();
    if (std::isnan(v)) return std::nullopt;
    r.lo = m->op == CompareOp::kLt || m->op == CompareOp::kLe ? -kInf : v;
    r.hi = m->op == CompareOp::kGt || m->op == CompareOp::kGe ? kInf : v;
  }
  r.column = projection_.empty() ? ref->index() : projection_[ref->index()];
  return r;
}

void PhysicalScan::AddJoinFilter(const JoinKeyFilter* filter,
                                 std::vector<size_t> columns) {
  AGORA_CHECK(!emit_row_ids_);
  join_filters_.push_back(JoinFilter{filter, std::move(columns)});
}

Status PhysicalScan::OpenImpl() {
  cursor_ = ScanCursor{};
  cursor_.end = table_->num_rows();
  morsel_cursor_.store(0, std::memory_order_relaxed);
  if (!ranges_.empty() && !table_->HasZoneMaps()) {
    // The predicate bounds a column but the zone maps are not built yet;
    // build them now (idempotent, amortized across queries on static
    // tables; concurrent scans building at once swap in identical sets).
    table_->BuildZoneMaps();
  }
  zone_map_snapshot_ = ranges_.empty() ? nullptr : table_->zone_maps();
  if (predicate_ != nullptr || !join_filters_.empty()) {
    scan_view_ = table_->GetChunk(0, table_->num_rows(), projection_);
  }
  join_filter_keys_.clear();
  for (const JoinFilter& filter : join_filters_) {
    std::vector<ColumnVector> keys;
    for (size_t c : filter.columns) keys.push_back(scan_view_.column(c));
    join_filter_keys_.push_back(std::move(keys));
  }
  return Status::OK();
}

bool PhysicalScan::BlockPruned(size_t start, ExecStats* stats) const {
  if (zone_map_snapshot_ == nullptr) return false;
  const size_t block = start / kChunkSize;
  for (const ColumnRangeConstraint& r : ranges_) {
    auto it = zone_map_snapshot_->find(r.column);
    const ZoneMap* zm =
        it == zone_map_snapshot_->end() ? nullptr : &it->second;
    if (zm != nullptr && block < zm->blocks.size() &&
        !(r.points.empty() ? zm->BlockMayMatch(block, r.lo, r.hi)
                           : zm->BlockMayMatchAny(block, r.points))) {
      stats->blocks_skipped++;
      return true;
    }
  }
  return false;
}

Status PhysicalScan::FilterBlock(size_t start, size_t n, ScanCursor* cur,
                                 ExecStats* stats) const {
  std::vector<uint32_t>& rows = cur->block_rows;
  rows.resize(n);
  const auto base = static_cast<uint32_t>(start);
  // While no predicate has run, the selection is the whole block and the
  // first join filter reads it in place.
  const bool whole = range_column_ == SIZE_MAX && rest_predicate_ == nullptr;
  if (range_column_ == SIZE_MAX) {
    if (!whole) std::iota(rows.begin(), rows.end(), base);
  } else {
    // The leading range reads the block's rows in place. It counts what
    // its comparisons would count one by one: each evaluates, under a
    // selection, the rows the ones before it kept. The rows the first
    // comparison keeps are counted in the same pass.
    const ColumnVector& col = scan_view_.column(range_column_);
    const int64_t* x = col.int64_data() + start;
    const uint8_t* valid = col.validity_data() + start;
    const IntRange& range = range_prefixes_.back();
    const IntRange& first = range_prefixes_.front();
    size_t kept = 0;
    size_t kept_by_first = 0;
    if (range.lo <= range.hi) {
      kept = SelectInRange(x, valid, n, range.lo, range.hi, first.lo,
                           first.hi, base, rows.data(), &kept_by_first);
    } else if (first.lo <= first.hi) {
      kept_by_first = CountInRange(x, valid, n, first.lo, first.hi);
    }
    rows.resize(kept);
    const size_t view_rows = scan_view_.num_rows();
    for (size_t j = 0; j < range_prefixes_.size(); ++j) {
      size_t before = n;
      if (j == 1) {
        before = kept_by_first;
      } else if (j > 1) {
        const IntRange& p = range_prefixes_[j - 1];
        before = p.lo > p.hi ? 0 : CountInRange(x, valid, n, p.lo, p.hi);
      }
      stats->expr_rows_evaluated += static_cast<int64_t>(before);
      stats->sel_vector_hits += before < view_rows ? 1 : 0;
    }
  }
  if (rest_predicate_ != nullptr) {
    Selection sel;
    sel.all = false;
    sel.rows.swap(rows);
    ExprCounters counters;
    Status st = RefineSelection(*rest_predicate_, scan_view_, &sel, &counters);
    rows.swap(sel.rows);
    AGORA_RETURN_IF_ERROR(st);
    stats->expr_rows_evaluated += counters.rows_evaluated;
    stats->sel_vector_hits += counters.sel_hits;
  }
  for (size_t f = 0; f < join_filters_.size() && !rows.empty(); ++f) {
    // NULL keys never match and are not counted as checks (the probe
    // never checked them).
    const size_t m = rows.size();
    int64_t checked = 0;
    const size_t kept = join_filters_[f].filter->Select(
        join_filter_keys_[f], start, whole && f == 0 ? nullptr : rows.data(),
        m, rows.data(), &checked, /*hashes=*/nullptr);
    stats->bloom_checked_rows += checked;
    stats->bloom_filtered_rows += checked - static_cast<int64_t>(kept);
    rows.resize(kept);
  }
  return Status::OK();
}

Status PhysicalScan::NextChunk(ScanCursor* cur, Chunk* out,
                               ExecStats* stats) const {
  const bool filtered = predicate_ != nullptr || !join_filters_.empty();
  auto emit = [&](Chunk chunk) {
    stats->bytes_materialized += static_cast<int64_t>(chunk.MemoryBytes());
    stats->chunks_emitted++;
    *out = std::move(chunk);
  };
  std::vector<uint32_t>& pending = cur->pending;
  while (true) {
    // Pending rows go out when a chunk's worth has gathered, before a
    // waiting slice, and at the end of the range or of a morsel. The
    // morsel bound gives the serial path the morsels' chunks and caps
    // how far a selective scan reads past its first survivor (a LIMIT
    // above stops pulling there).
    if (pending.size() >= kChunkSize ||
        (!pending.empty() &&
         (cur->slice_rows > 0 || cur->next_row >= cur->end ||
          cur->next_row % kMorselRows == 0))) {
      const size_t take = std::min(kChunkSize, pending.size());
      std::vector<uint32_t> rest(pending.begin() + take, pending.end());
      pending.resize(take);
      emit(emit_row_ids_ ? RowIdChunk(pending)
                         : scan_view_.GatherRows(pending));
      pending.swap(rest);
      return Status::OK();
    }
    if (cur->slice_rows > 0) {
      emit(table_->GetChunk(cur->slice_start, cur->slice_rows, projection_));
      cur->slice_rows = 0;
      return Status::OK();
    }
    if (cur->next_row >= cur->end) {
      *out = Chunk();
      return Status::OK();
    }
    const size_t start = cur->next_row;
    const size_t n = std::min(kChunkSize, cur->end - start);
    cur->next_row += n;
    if (BlockPruned(start, stats)) continue;
    stats->blocks_read++;
    stats->rows_scanned += static_cast<int64_t>(n);
    if (filtered) {
      AGORA_RETURN_IF_ERROR(FilterBlock(start, n, cur, stats));
    } else if (emit_row_ids_) {
      cur->block_rows.resize(n);
      std::iota(cur->block_rows.begin(), cur->block_rows.end(),
                static_cast<uint32_t>(start));
    }
    if (!emit_row_ids_ && (!filtered || cur->block_rows.size() == n)) {
      // The whole block passes: a contiguous slice beats a gather.
      if (filtered) stats->filter_gathers_avoided++;
      cur->slice_start = start;
      cur->slice_rows = n;
    } else {
      pending.insert(pending.end(), cur->block_rows.begin(),
                     cur->block_rows.end());
    }
  }
}

Status PhysicalScan::NextImpl(Chunk* chunk, bool* done) {
  AGORA_RETURN_IF_ERROR(NextChunk(&cursor_, chunk, &context_->stats));
  if (chunk->num_rows() == 0) *chunk = Chunk(schema_);
  *done = cursor_.exhausted();
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
  ScanCursor cur;
  cur.next_row = morsel.begin;
  cur.end = morsel.end;
  while (true) {
    Chunk chunk;
    AGORA_RETURN_IF_ERROR(NextChunk(&cur, &chunk, stats));
    if (chunk.num_rows() == 0) return Status::OK();
    AGORA_RETURN_IF_ERROR(sink(std::move(chunk)));
  }
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
    view_ = table_->GetChunk(0, table_->num_rows(), projection_);
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
