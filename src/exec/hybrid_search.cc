#include "exec/hybrid_search.h"

#include <algorithm>

#include "common/thread_pool.h"

namespace agora {

PhysicalHybridSearch::PhysicalHybridSearch(const LogicalScoreFusion& fusion,
                                           ExecContext* context)
    : PhysicalOperator(fusion.schema(), context),
      table_(fusion.table()),
      k_(fusion.k()),
      params_(fusion.params()),
      exec_(fusion.exec_options()),
      filter_(fusion.filter()) {
  if (const LogicalTextMatch* text = fusion.text_match()) {
    has_text_ = true;
    text_query_ = text->query();
    text_index_ = text->index();
  }
  if (const LogicalVectorTopK* vec = fusion.vector_top_k()) {
    has_vec_ = true;
    vec_query_ = vec->query();
    index_choice_ = vec->index_choice();
    flat_index_ = vec->flat_index();
    ivf_index_ = vec->ivf_index();
    hnsw_index_ = vec->hnsw_index();
    if (flat_index_ != nullptr) metric_ = flat_index_->metric();
  }
}

Result<std::vector<uint8_t>> PhysicalHybridSearch::EvaluateFilterBitmap() {
  size_t n = table_->num_rows();
  std::vector<uint8_t> bitmap(n, 1);
  if (filter_ == nullptr) return bitmap;

  // Morsel-parallel over disjoint chunk ranges: each task only writes its
  // own bitmap slice, so the result is identical at every worker count.
  // Eligibility mirrors the scan pipeline rule (never depends on the
  // worker count).
  bool parallel =
      context_->enable_parallel && n >= context_->parallel_min_rows;
  TaskGroup group(parallel ? context_->pool : nullptr);
  for (size_t start = 0; start < n; start += kChunkSize) {
    group.Spawn([this, &bitmap, start, n]() -> Status {
      size_t count = std::min(kChunkSize, n - start);
      Chunk chunk = table_->GetChunk(start, count);
      ColumnVector mask;
      AGORA_RETURN_IF_ERROR(filter_->Evaluate(chunk, &mask));
      for (size_t i = 0; i < mask.size(); ++i) {
        bitmap[start + i] = (!mask.IsNull(i) && mask.GetBool(i)) ? 1 : 0;
      }
      return Status::OK();
    });
  }
  AGORA_RETURN_IF_ERROR(group.Wait());
  context_->stats.hybrid_filter_rows += static_cast<int64_t>(n);
  return bitmap;
}

Status PhysicalHybridSearch::RunPreFilter() {
  AGORA_ASSIGN_OR_RETURN(std::vector<uint8_t> bitmap,
                         EvaluateFilterBitmap());
  // The bitmap itself is the membership structure: O(1) lookups with no
  // per-survivor set build.
  size_t allowed_count = 0;
  for (uint8_t b : bitmap) allowed_count += b;
  auto allowed = [&bitmap](int64_t id) {
    return id >= 0 && static_cast<size_t>(id) < bitmap.size() &&
           bitmap[static_cast<size_t>(id)] != 0;
  };
  context_->stats.fusion_candidates = static_cast<int64_t>(allowed_count);
  // Rank the full survivor set (all distances are computed anyway);
  // fusing over complete lists makes pre-filtered search exact.
  std::vector<Neighbor> vector_hits;
  if (has_vec_) {
    context_->stats.vector_distances += static_cast<int64_t>(allowed_count);
    AGORA_ASSIGN_OR_RETURN(
        vector_hits,
        flat_index_->SearchFiltered(vec_query_, allowed_count, allowed));
  }
  std::vector<SearchHit> keyword_hits;
  if (has_text_) {
    keyword_hits =
        text_index_->SearchFiltered(text_query_, allowed_count, allowed);
  }
  StoreFinalDistances(vector_hits);
  fused_ = FuseScores(params_, metric_, keyword_hits, vector_hits, k_);
  return Status::OK();
}

void PhysicalHybridSearch::StoreFinalDistances(
    const std::vector<Neighbor>& hits) {
  final_distances_.clear();
  final_distances_.reserve(hits.size());
  for (const Neighbor& hit : hits) {
    final_distances_.emplace_back(hit.id, hit.distance);
  }
  std::sort(final_distances_.begin(), final_distances_.end(),
            [](const std::pair<int64_t, float>& a,
               const std::pair<int64_t, float>& b) {
              return a.first < b.first;
            });
}

Status PhysicalHybridSearch::RunPostFilter() {
  size_t n = table_->num_rows();
  size_t fetch = k_ * std::max<size_t>(exec_.overfetch, 1);
  for (size_t attempt = 0;; ++attempt) {
    std::vector<Neighbor> vector_hits;
    std::vector<SearchHit> keyword_hits;
    // The two index probes are independent reads of immutable indexes;
    // run them as sibling tasks on the shared pool (mirroring the
    // pre-filter bitmap's morsel rule, inline when parallelism is off or
    // only one component exists). Each task writes only its own hit
    // vector plus a task-local distance counter folded in after Wait(),
    // so results and stats are identical at every worker count.
    const bool parallel = context_->enable_parallel && has_vec_ &&
                          has_text_ && n >= context_->parallel_min_rows;
    int64_t vec_distances = 0;
    TaskGroup group(parallel ? context_->pool : nullptr);
    if (has_vec_) {
      group.Spawn([this, fetch, n, &vector_hits, &vec_distances]() -> Status {
        switch (index_choice_) {
          case VectorIndexChoice::kIvf: {
            size_t scanned = 0;
            AGORA_ASSIGN_OR_RETURN(
                vector_hits,
                ivf_index_->SearchWithProbes(vec_query_, fetch,
                                             ivf_index_->options().nprobe,
                                             &scanned));
            vec_distances = static_cast<int64_t>(scanned);
            break;
          }
          case VectorIndexChoice::kHnsw: {
            AGORA_ASSIGN_OR_RETURN(vector_hits,
                                   hnsw_index_->Search(vec_query_, fetch));
            vec_distances = static_cast<int64_t>(vector_hits.size());
            break;
          }
          default: {
            AGORA_ASSIGN_OR_RETURN(vector_hits,
                                   flat_index_->Search(vec_query_, fetch));
            vec_distances = static_cast<int64_t>(n);
            break;
          }
        }
        return Status::OK();
      });
    }
    if (has_text_) {
      group.Spawn([this, fetch, &keyword_hits]() -> Status {
        keyword_hits = text_index_->Search(text_query_, fetch);
        return Status::OK();
      });
    }
    AGORA_RETURN_IF_ERROR(group.Wait());
    context_->stats.vector_distances += vec_distances;

    if (filter_ != nullptr) {
      // Evaluate the predicate only on candidate rows. Candidate ids are
      // deduplicated by sort+unique; the passing set stays a sorted
      // vector (subset of `ordered`), probed by binary search.
      std::vector<int64_t> ordered;
      ordered.reserve(vector_hits.size() + keyword_hits.size());
      for (const Neighbor& hit : vector_hits) ordered.push_back(hit.id);
      for (const SearchHit& hit : keyword_hits) {
        ordered.push_back(hit.doc_id);
      }
      std::sort(ordered.begin(), ordered.end());
      ordered.erase(std::unique(ordered.begin(), ordered.end()),
                    ordered.end());
      // Batch-gather the candidate rows through the columnar path: one
      // zero-copy view plus one gather, instead of boxing each row into
      // Values with per-cell appends.
      std::vector<uint32_t> sel;
      sel.reserve(ordered.size());
      for (int64_t id : ordered) sel.push_back(static_cast<uint32_t>(id));
      Chunk chunk = table_->GetChunk(0, table_->num_rows()).GatherRows(sel);
      ColumnVector mask;
      AGORA_RETURN_IF_ERROR(filter_->Evaluate(chunk, &mask));
      context_->stats.hybrid_filter_rows +=
          static_cast<int64_t>(ordered.size());
      std::vector<int64_t> passing;
      passing.reserve(ordered.size());
      for (size_t i = 0; i < ordered.size(); ++i) {
        if (!mask.IsNull(i) && mask.GetBool(i)) passing.push_back(ordered[i]);
      }
      auto passes = [&passing](int64_t id) {
        return std::binary_search(passing.begin(), passing.end(), id);
      };
      std::vector<Neighbor> fv;
      for (const Neighbor& hit : vector_hits) {
        if (passes(hit.id)) fv.push_back(hit);
      }
      std::vector<SearchHit> fk;
      for (const SearchHit& hit : keyword_hits) {
        if (passes(hit.doc_id)) fk.push_back(hit);
      }
      vector_hits = std::move(fv);
      keyword_hits = std::move(fk);
    }

    fused_ = FuseScores(params_, metric_, keyword_hits, vector_hits, k_);
    context_->stats.fusion_candidates = static_cast<int64_t>(fused_.size());
    bool exhausted = fetch >= n;
    if (fused_.size() >= k_ || exhausted || attempt >= exec_.max_retries) {
      StoreFinalDistances(vector_hits);
      return Status::OK();
    }
    fetch *= 2;
    context_->stats.overfetch_retries++;
  }
}

Status PhysicalHybridSearch::OpenImpl() {
  if (!has_text_ && !has_vec_) {
    return Status::Internal("hybrid search without any ranking component");
  }
  switch (exec_.strategy) {
    case HybridStrategy::kPreFilter:
      return RunPreFilter();
    case HybridStrategy::kPostFilter:
      return RunPostFilter();
    case HybridStrategy::kAuto:
      break;
  }
  return Status::Internal(
      "hybrid strategy unresolved (plan was not optimized)");
}

Status PhysicalHybridSearch::NextImpl(Chunk* chunk, bool* done) {
  *chunk = Chunk(schema_);
  size_t batch = std::min(kChunkSize, fused_.size() - emitted_);
  for (size_t i = 0; i < batch; ++i) {
    const ScoredDoc& doc = fused_[emitted_ + i];
    std::vector<Value> row;
    row.reserve(schema_.num_fields());
    row.push_back(Value::Int64(doc.id));
    std::vector<Value> attrs = table_->GetRow(static_cast<size_t>(doc.id));
    for (Value& v : attrs) row.push_back(std::move(v));
    row.push_back(Value::Double(doc.score));
    row.push_back(Value::Double(doc.keyword_score));
    row.push_back(Value::Double(doc.vector_score));
    if (has_vec_) {
      auto it = std::lower_bound(
          final_distances_.begin(), final_distances_.end(), doc.id,
          [](const std::pair<int64_t, float>& e, int64_t id) {
            return e.first < id;
          });
      bool found = it != final_distances_.end() && it->first == doc.id;
      row.push_back(found ? Value::Double(static_cast<double>(it->second))
                          : Value::Null(TypeId::kDouble));
    }
    chunk->AppendRow(row);
  }
  emitted_ += batch;
  context_->stats.chunks_emitted++;
  *done = emitted_ >= fused_.size();
  return Status::OK();
}

}  // namespace agora
