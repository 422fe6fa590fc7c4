#include "exec/filter_project.h"

#include "exec/scan.h"

namespace agora {

PhysicalFilter::PhysicalFilter(PhysicalOpPtr child, ExprPtr predicate,
                               ExecContext* context)
    : PhysicalOperator(child->schema(), context),
      child_(std::move(child)),
      predicate_(std::move(predicate)) {}

Status PhysicalFilter::OpenImpl() {
  child_done_ = false;
  return child_->Open();
}

Status PhysicalFilter::ProcessChunk(const Chunk& input, Chunk* out,
                                    ExecStats* stats) const {
  AGORA_ASSIGN_OR_RETURN(*out, FilterChunk(input, *predicate_, stats));
  return Status::OK();
}

Status PhysicalFilter::NextImpl(Chunk* chunk, bool* done) {
  while (!child_done_) {
    Chunk input;
    AGORA_RETURN_IF_ERROR(child_->Next(&input, &child_done_));
    if (input.num_rows() == 0) continue;
    Chunk filtered;
    AGORA_RETURN_IF_ERROR(
        ProcessChunk(input, &filtered, &context_->stats));
    if (filtered.num_rows() == 0) continue;
    *chunk = std::move(filtered);
    *done = child_done_;
    return Status::OK();
  }
  *chunk = Chunk(schema_);
  *done = true;
  return Status::OK();
}

PhysicalProject::PhysicalProject(PhysicalOpPtr child,
                                 std::vector<ExprPtr> exprs, Schema schema,
                                 ExecContext* context)
    : PhysicalOperator(std::move(schema), context),
      child_(std::move(child)),
      exprs_(std::move(exprs)) {}

Status PhysicalProject::OpenImpl() { return child_->Open(); }

Status PhysicalProject::ProcessChunk(const Chunk& input, Chunk* out,
                                     ExecStats* stats) const {
  Chunk result;
  EvalContext ctx;
  ctx.chunk = &input;
  ExprCounters counters;
  ctx.counters = &counters;
  for (const ExprPtr& expr : exprs_) {
    ColumnVector col;
    AGORA_RETURN_IF_ERROR(expr->EvalBatch(ctx, &col));
    col.FlattenConstant();
    result.AddColumn(std::move(col));
  }
  result.SetExplicitRowCount(input.num_rows());
  stats->expr_rows_evaluated += counters.rows_evaluated;
  stats->sel_vector_hits += counters.sel_hits;
  stats->bytes_materialized += static_cast<int64_t>(result.MemoryBytes());
  *out = std::move(result);
  return Status::OK();
}

Status PhysicalProject::NextImpl(Chunk* chunk, bool* done) {
  Chunk input;
  AGORA_RETURN_IF_ERROR(child_->Next(&input, done));
  return ProcessChunk(input, chunk, &context_->stats);
}

}  // namespace agora
