#include "exec/physical_op.h"

#include <cstring>

#include "common/string_util.h"
#include "common/verify.h"
#include "storage/chunk_verify.h"

namespace agora {

std::string ExecStats::ToString() const {
  std::string out;
  out += "rows_scanned=" + FormatCount(rows_scanned);
  out += " blocks_read=" + FormatCount(blocks_read);
  out += " blocks_skipped=" + FormatCount(blocks_skipped);
  out += " rows_joined=" + FormatCount(rows_joined);
  out += " probe_calls=" + FormatCount(probe_calls);
  out += " rows_aggregated=" + FormatCount(rows_aggregated);
  out += " rows_sorted=" + FormatCount(rows_sorted);
  out += " bytes_materialized=" + FormatCount(bytes_materialized);
  if (hybrid_filter_rows > 0 || vector_distances > 0 ||
      fusion_candidates > 0) {
    out += " hybrid_filter_rows=" + FormatCount(hybrid_filter_rows);
    out += " vector_distances=" + FormatCount(vector_distances);
    out += " overfetch_retries=" + FormatCount(overfetch_retries);
    out += " fusion_candidates=" + FormatCount(fusion_candidates);
  }
  if (hash_table_entries > 0 || hash_table_lookups > 0 ||
      bloom_checked_rows > 0) {
    out += " hash_table_entries=" + FormatCount(hash_table_entries);
    out += " hash_table_slots=" + FormatCount(hash_table_slots);
    out += " hash_table_lookups=" + FormatCount(hash_table_lookups);
    out += " hash_table_probe_steps=" + FormatCount(hash_table_probe_steps);
    out += " bloom_checked_rows=" + FormatCount(bloom_checked_rows);
    out += " bloom_filtered_rows=" + FormatCount(bloom_filtered_rows);
  }
  if (expr_rows_evaluated > 0 || sel_vector_hits > 0 ||
      filter_gathers_avoided > 0) {
    out += " expr_rows_evaluated=" + FormatCount(expr_rows_evaluated);
    out += " sel_vector_hits=" + FormatCount(sel_vector_hits);
    out += " filter_gathers_avoided=" + FormatCount(filter_gathers_avoided);
  }
  if (mem_bytes_reserved_peak > 0) {
    out += " mem_bytes_reserved_peak=" + FormatCount(mem_bytes_reserved_peak);
  }
  if (mem_budget_rejections > 0) {
    out += " mem_budget_rejections=" + FormatCount(mem_budget_rejections);
  }
  if (spill_partitions > 0 || spill_bytes_written > 0) {
    out += " spill_partitions=" + FormatCount(spill_partitions);
    out += " spill_bytes_written=" + FormatCount(spill_bytes_written);
    out += " spill_bytes_read=" + FormatCount(spill_bytes_read);
  }
  return out;
}

Status PhysicalOperator::Open() {
  MetricSpan span =
      StatsSpan(context_ != nullptr ? &context_->stats : nullptr, op_id_);
  return OpenImpl();
}

Status PhysicalOperator::Next(Chunk* chunk, bool* done) {
  // Deadline/cancel checks live in the same non-virtual wrapper as
  // verification: every serial pull passes here, so a timed-out query
  // unwinds at the next chunk boundary no matter which operator is on
  // top. The happy path is two loads (and a clock read when a deadline
  // is armed); name() is only rendered once the query is already dead.
  if (context_ != nullptr && context_->control != nullptr &&
      (context_->control->cancel_requested() ||
       context_->control->deadline_passed())) {
    return context_->control->Check(name().c_str());
  }
  MetricSpan span =
      StatsSpan(context_ != nullptr ? &context_->stats : nullptr, op_id_);
  Status status = NextImpl(chunk, done);
  if (status.ok()) {
    // AGORA_VERIFY: every chunk crossing an operator boundary is checked
    // against the producer's declared schema here, in the one non-virtual
    // wrapper all pulls go through.
    if (VerificationEnabled()) {
      AGORA_RETURN_IF_ERROR(VerifyChunk(*chunk, schema_, name(), *done));
    }
    span.AddRows(static_cast<int64_t>(chunk->num_rows()));
  }
  return status;
}

namespace {

void WalkProfile(const PhysicalOperator* op, int depth, const ExecStats& stats,
                 std::vector<OperatorProfileNode>* out) {
  OperatorProfileNode node;
  node.name = op->name();
  node.depth = depth;
  const int id = op->op_id();
  if (id >= 0 && static_cast<size_t>(id) < stats.op_timings.size()) {
    const OpTiming& timing = stats.op_timings[id];
    node.busy_ns = timing.busy_ns;
    node.rows_out = timing.rows_out;
    node.invocations = timing.invocations;
  }
  out->push_back(std::move(node));
  // Phases render as pseudo-children ("HashJoin::build") so EXPLAIN
  // ANALYZE attributes their self time separately from the operator's.
  for (const OperatorPhase& phase : op->phases()) {
    OperatorProfileNode pnode;
    pnode.name = op->name() + "::" + phase.name;
    pnode.depth = depth + 1;
    if (phase.op_id >= 0 &&
        static_cast<size_t>(phase.op_id) < stats.op_timings.size()) {
      const OpTiming& timing = stats.op_timings[phase.op_id];
      pnode.busy_ns = timing.busy_ns;
      pnode.rows_out = timing.rows_out;
      pnode.invocations = timing.invocations;
    }
    out->push_back(std::move(pnode));
  }
  for (const PhysicalOperator* child : op->children()) {
    WalkProfile(child, depth + 1, stats, out);
  }
}

}  // namespace

std::vector<OperatorProfileNode> CollectProfile(const PhysicalOperator* root,
                                                const ExecStats& stats) {
  std::vector<OperatorProfileNode> nodes;
  if (root != nullptr) WalkProfile(root, 0, stats, &nodes);
  return nodes;
}

Result<Chunk> CollectAll(PhysicalOperator* op) {
  AGORA_RETURN_IF_ERROR(op->Open());
  Chunk result(op->schema());
  ExecContext* context = op->context();
  bool done = false;
  while (!done) {
    Chunk chunk;
    AGORA_RETURN_IF_ERROR(op->Next(&chunk, &done));
    if (context != nullptr) {
      AGORA_RETURN_IF_ERROR(context->CheckMemoryBudget("CollectAll"));
    }
    result.Append(std::move(chunk));
  }
  return result;
}

void AppendKeyBytes(const ColumnVector& col, size_t row, std::string* out) {
  if (col.IsNull(row)) {
    out->push_back('\x00');
    return;
  }
  switch (col.type()) {
    case TypeId::kString: {
      out->push_back('\x01');
      const std::string& s = col.GetString(row);
      uint32_t len = static_cast<uint32_t>(s.size());
      out->append(reinterpret_cast<const char*>(&len), sizeof(len));
      out->append(s);
      break;
    }
    case TypeId::kDouble: {
      out->push_back('\x02');
      double d = col.GetDouble(row);
      // Normalize -0.0 so it groups with +0.0.
      if (d == 0.0) d = 0.0;
      out->append(reinterpret_cast<const char*>(&d), sizeof(d));
      break;
    }
    default: {
      out->push_back('\x03');
      int64_t v = col.GetInt64(row);
      out->append(reinterpret_cast<const char*>(&v), sizeof(v));
      break;
    }
  }
}

}  // namespace agora
