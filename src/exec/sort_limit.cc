#include "exec/sort_limit.h"

#include <algorithm>
#include <numeric>

#include "common/hash.h"

namespace agora {

bool SortRowLess(const std::vector<ColumnVector>& key_cols,
                 const std::vector<SortKey>& keys, uint32_t a, uint32_t b) {
  for (size_t k = 0; k < keys.size(); ++k) {
    int cmp = key_cols[k].CompareRows(a, key_cols[k], b);
    if (cmp != 0) return keys[k].descending ? cmp > 0 : cmp < 0;
  }
  return false;
}

PhysicalSort::PhysicalSort(PhysicalOpPtr child, std::vector<SortKey> keys,
                           ExecContext* context)
    : PhysicalOperator(child->schema(), context),
      child_(std::move(child)),
      keys_(std::move(keys)) {}

Status PhysicalSort::OpenImpl() {
  next_row_ = 0;
  // CollectAll checks the budget per input chunk; the extra checks below
  // cover the key columns and permutation this operator adds on top.
  AGORA_ASSIGN_OR_RETURN(data_, CollectAll(child_.get()));
  size_t rows = data_.num_rows();
  context_->stats.rows_sorted += static_cast<int64_t>(rows);
  context_->stats.bytes_materialized += static_cast<int64_t>(data_.MemoryBytes());

  std::vector<ColumnVector> key_cols(keys_.size());
  for (size_t k = 0; k < keys_.size(); ++k) {
    AGORA_RETURN_IF_ERROR(keys_[k].expr->Evaluate(data_, &key_cols[k]));
  }
  AGORA_RETURN_IF_ERROR(context_->CheckMemoryBudget("Sort"));
  perm_.resize(rows);
  std::iota(perm_.begin(), perm_.end(), 0);
  std::stable_sort(perm_.begin(), perm_.end(),
                   [&](uint32_t a, uint32_t b) {
                     return SortRowLess(key_cols, keys_, a, b);
                   });
  return Status::OK();
}

Status PhysicalSort::NextImpl(Chunk* chunk, bool* done) {
  size_t rows = perm_.size();
  size_t count = std::min(kChunkSize, rows - next_row_);
  std::vector<uint32_t> sel(perm_.begin() + static_cast<long>(next_row_),
                            perm_.begin() + static_cast<long>(next_row_ + count));
  next_row_ += count;
  *chunk = data_.GatherRows(sel);
  *done = next_row_ >= rows;
  return Status::OK();
}

PhysicalTopK::PhysicalTopK(PhysicalOpPtr child, std::vector<SortKey> keys,
                           int64_t k, int64_t offset, ExecContext* context)
    : PhysicalOperator(child->schema(), context),
      child_(std::move(child)),
      keys_(std::move(keys)),
      k_(k),
      offset_(offset) {}

Status PhysicalTopK::OpenImpl() {
  next_row_ = 0;
  result_ = Chunk(schema_);
  AGORA_RETURN_IF_ERROR(child_->Open());

  size_t cap = static_cast<size_t>(k_ + offset_);
  Chunk heap_data(schema_);  // candidate rows (bounded at ~2*cap)
  bool done = false;
  while (!done) {
    Chunk input;
    AGORA_RETURN_IF_ERROR(child_->Next(&input, &done));
    // The candidate set is bounded by O(k + offset), but that bound can
    // itself exceed a small budget — check at chunk granularity.
    AGORA_RETURN_IF_ERROR(context_->CheckMemoryBudget("TopK"));
    context_->stats.rows_sorted += static_cast<int64_t>(input.num_rows());
    heap_data.Append(std::move(input));
    // Periodically shrink the candidate set back to the best `cap` rows so
    // memory stays bounded by O(cap).
    if (heap_data.num_rows() > 2 * cap + kChunkSize) {
      std::vector<ColumnVector> key_cols(keys_.size());
      for (size_t k2 = 0; k2 < keys_.size(); ++k2) {
        AGORA_RETURN_IF_ERROR(
            keys_[k2].expr->Evaluate(heap_data, &key_cols[k2]));
      }
      std::vector<uint32_t> perm(heap_data.num_rows());
      std::iota(perm.begin(), perm.end(), 0);
      size_t keep = std::min(cap, perm.size());
      std::partial_sort(perm.begin(), perm.begin() + static_cast<long>(keep),
                        perm.end(), [&](uint32_t a, uint32_t b) {
                          return SortRowLess(key_cols, keys_, a, b);
                        });
      perm.resize(keep);
      heap_data = heap_data.GatherRows(perm);
    }
  }

  // Final sort of the surviving candidates.
  std::vector<ColumnVector> key_cols(keys_.size());
  for (size_t k2 = 0; k2 < keys_.size(); ++k2) {
    AGORA_RETURN_IF_ERROR(keys_[k2].expr->Evaluate(heap_data, &key_cols[k2]));
  }
  std::vector<uint32_t> perm(heap_data.num_rows());
  std::iota(perm.begin(), perm.end(), 0);
  std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return SortRowLess(key_cols, keys_, a, b);
  });
  size_t begin = std::min(static_cast<size_t>(offset_), perm.size());
  size_t end = std::min(begin + static_cast<size_t>(k_), perm.size());
  std::vector<uint32_t> sel(perm.begin() + static_cast<long>(begin),
                            perm.begin() + static_cast<long>(end));
  result_ = heap_data.GatherRows(sel);
  return Status::OK();
}

Status PhysicalTopK::NextImpl(Chunk* chunk, bool* done) {
  size_t rows = result_.num_rows();
  size_t count = std::min(kChunkSize, rows - next_row_);
  std::vector<uint32_t> sel;
  sel.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    sel.push_back(static_cast<uint32_t>(next_row_ + i));
  }
  next_row_ += count;
  *chunk = result_.GatherRows(sel);
  *done = next_row_ >= rows;
  return Status::OK();
}

PhysicalLimit::PhysicalLimit(PhysicalOpPtr child, int64_t limit,
                             int64_t offset, ExecContext* context)
    : PhysicalOperator(child->schema(), context),
      child_(std::move(child)),
      limit_(limit),
      offset_(offset) {}

Status PhysicalLimit::OpenImpl() {
  skipped_ = 0;
  emitted_ = 0;
  return child_->Open();
}

Status PhysicalLimit::NextImpl(Chunk* chunk, bool* done) {
  bool child_done = false;
  while (!child_done) {
    if (limit_ >= 0 && emitted_ >= limit_) break;
    Chunk input;
    AGORA_RETURN_IF_ERROR(child_->Next(&input, &child_done));
    int64_t rows = static_cast<int64_t>(input.num_rows());
    if (rows == 0) continue;

    int64_t begin = 0;
    if (skipped_ < offset_) {
      int64_t skip = std::min(offset_ - skipped_, rows);
      skipped_ += skip;
      begin = skip;
    }
    int64_t avail = rows - begin;
    if (avail <= 0) continue;
    int64_t take = limit_ < 0 ? avail : std::min(avail, limit_ - emitted_);
    if (take <= 0) continue;

    std::vector<uint32_t> sel;
    sel.reserve(static_cast<size_t>(take));
    for (int64_t i = 0; i < take; ++i) {
      sel.push_back(static_cast<uint32_t>(begin + i));
    }
    emitted_ += take;
    *chunk = input.GatherRows(sel);
    *done = child_done || (limit_ >= 0 && emitted_ >= limit_);
    return Status::OK();
  }
  *chunk = Chunk(schema_);
  *done = true;
  return Status::OK();
}

PhysicalDistinct::PhysicalDistinct(PhysicalOpPtr child, ExecContext* context)
    : PhysicalOperator(child->schema(), context), child_(std::move(child)) {}

Status PhysicalDistinct::OpenImpl() {
  seen_ = GroupKeyTable();
  child_done_ = false;
  stats_reported_ = false;
  return child_->Open();
}

void PhysicalDistinct::ReportTableStats() {
  if (stats_reported_) return;
  stats_reported_ = true;
  context_->stats.hash_table_entries +=
      static_cast<int64_t>(seen_.group_count());
  context_->stats.hash_table_slots += static_cast<int64_t>(seen_.slot_count());
}

Status PhysicalDistinct::NextImpl(Chunk* chunk, bool* done) {
  while (!child_done_) {
    Chunk input;
    AGORA_RETURN_IF_ERROR(child_->Next(&input, &child_done_));
    // The dedup table only grows; fail gracefully under a budget.
    AGORA_RETURN_IF_ERROR(context_->CheckMemoryBudget("Distinct"));
    size_t rows = input.num_rows();
    if (rows == 0) continue;

    hash_scratch_.assign(rows, kHashTableSalt);
    for (size_t c = 0; c < input.num_columns(); ++c) {
      input.column(c).HashBatch(hash_scratch_.data(), rows, /*combine=*/true);
    }
    gid_scratch_.resize(rows);
    created_scratch_.resize(rows);
    HashTableStats ht;
    seen_.FindOrCreate(input.columns(), hash_scratch_.data(), rows,
                       gid_scratch_.data(), created_scratch_.data(), &ht);
    context_->stats.hash_table_lookups += ht.lookups;
    context_->stats.hash_table_probe_steps += ht.probe_steps;

    std::vector<uint32_t> sel;
    for (size_t r = 0; r < rows; ++r) {
      if (created_scratch_[r] != 0) sel.push_back(static_cast<uint32_t>(r));
    }
    if (sel.empty()) continue;
    *chunk = input.GatherRows(sel);
    *done = child_done_;
    if (*done) ReportTableStats();
    return Status::OK();
  }
  *chunk = Chunk(schema_);
  *done = true;
  ReportTableStats();
  return Status::OK();
}

}  // namespace agora
