#include "exec/physical_op.h"

#include <algorithm>
#include <cstring>

#include "common/string_util.h"
#include "common/verify.h"
#include "storage/chunk_verify.h"

namespace agora {

void ExecStats::Merge(const ExecStats& other) {
  for (const ExecCounter& c : kExecCounters) {
    if (c.merge == CounterMerge::kMax) {
      this->*c.member = std::max(this->*c.member, other.*c.member);
    } else {
      this->*c.member += other.*c.member;
    }
  }
  if (op_timings.size() < other.op_timings.size()) {
    op_timings.resize(other.op_timings.size());
  }
  for (size_t i = 0; i < other.op_timings.size(); ++i) {
    op_timings[i].Merge(other.op_timings[i]);
  }
}

std::string ExecStats::ToString() const {
  bool shown[static_cast<int>(CounterGroup::kSpill) + 1] = {};
  shown[static_cast<int>(CounterGroup::kCore)] = true;
  for (const ExecCounter& c : kExecCounters) {
    if (this->*c.member != 0) shown[static_cast<int>(c.group)] = true;
  }
  std::string out;
  for (const ExecCounter& c : kExecCounters) {
    if (!shown[static_cast<int>(c.group)]) continue;
    if (!out.empty()) out += ' ';
    out += c.field;
    out += '=';
    out += FormatCount(this->*c.member);
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
    // After the append: a view chunk charges nothing until the result
    // copies it.
    result.Append(std::move(chunk));
    if (context != nullptr) {
      AGORA_RETURN_IF_ERROR(context->CheckMemoryBudget("CollectAll"));
    }
  }
  return result;
}

}  // namespace agora
