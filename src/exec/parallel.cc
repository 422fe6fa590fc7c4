#include "exec/parallel.h"

#include <atomic>
#include <chrono>
#include <utility>

#include "common/thread_pool.h"
#include "exec/filter_project.h"
#include "exec/join.h"

namespace agora {

bool MorselPipeline::TryBuild(PhysicalOperator* op, MorselPipeline* out) {
  out->source_ = nullptr;
  out->transforms_.clear();

  // Walk down the chain, collecting transforms root-first; reverse at the
  // end so Apply() runs them source-to-root.
  std::vector<Transform> reversed;
  PhysicalOperator* cur = op;
  while (true) {
    if (auto* scan = dynamic_cast<PhysicalScan*>(cur)) {
      out->source_ = scan;
      break;
    }
    // Each transform opens a MetricSpan against the worker's stats slot,
    // so morsel-path work is attributed to the same operator ids as the
    // serial pull path (the spans nest under the per-morsel scan span).
    if (auto* filter = dynamic_cast<PhysicalFilter*>(cur)) {
      const int op_id = filter->op_id();
      reversed.push_back(
          [filter, op_id](const Chunk& in, Chunk* o, ExecStats* s) {
            MetricSpan span = StatsSpan(s, op_id);
            Status st = filter->ProcessChunk(in, o, s);
            if (st.ok()) span.AddRows(static_cast<int64_t>(o->num_rows()));
            return st;
          });
      cur = filter->child();
      continue;
    }
    if (auto* project = dynamic_cast<PhysicalProject*>(cur)) {
      const int op_id = project->op_id();
      reversed.push_back(
          [project, op_id](const Chunk& in, Chunk* o, ExecStats* s) {
            MetricSpan span = StatsSpan(s, op_id);
            Status st = project->ProcessChunk(in, o, s);
            if (st.ok()) span.AddRows(static_cast<int64_t>(o->num_rows()));
            return st;
          });
      cur = project->child();
      continue;
    }
    if (auto* join = dynamic_cast<PhysicalHashJoin*>(cur)) {
      // A budgeted (spill-capable) join drives its own probe loop so it
      // can divert rows of spilled partitions to disk; it cannot act as
      // a stateless morsel transform. Spill mode depends only on the
      // budget configuration, never on the worker count, so pipeline
      // eligibility stays deterministic across thread counts.
      if (join->spill_mode()) return false;
      const int op_id = join->op_id();
      reversed.push_back([join, op_id](const Chunk& in, Chunk* o,
                                       ExecStats* s) {
        MetricSpan span = StatsSpan(s, op_id);
        Status st = join->ProbeChunk(in, o, s);
        if (st.ok()) span.AddRows(static_cast<int64_t>(o->num_rows()));
        return st;
      });
      cur = join->probe_child();
      continue;
    }
    return false;  // breaker or unknown operator: not a morsel pipeline
  }
  out->transforms_.assign(reversed.rbegin(), reversed.rend());
  return true;
}

Status MorselPipeline::Apply(Chunk&& chunk, Chunk* out,
                             ExecStats* stats) const {
  Chunk cur = std::move(chunk);
  for (const Transform& transform : transforms_) {
    if (cur.num_rows() == 0) break;  // fully filtered; skip the rest
    Chunk next;
    AGORA_RETURN_IF_ERROR(transform(cur, &next, stats));
    cur = std::move(next);
  }
  *out = std::move(cur);
  return Status::OK();
}

bool ParallelEligible(PhysicalOperator* op, const ExecContext& context,
                      MorselPipeline* pipeline) {
  if (!context.enable_parallel) return false;
  if (!MorselPipeline::TryBuild(op, pipeline)) return false;
  return pipeline->source()->table()->num_rows() >= context.parallel_min_rows;
}

Status DriveMorselPipeline(
    const MorselPipeline& pipeline, ExecContext* context,
    const std::function<Status(int, const Morsel&, Chunk&&)>& sink,
    bool in_order) {
  PhysicalScan* source = pipeline.source();
  context->PrepareWorkerStats();

  // One task per worker; each loops claim → scan → transform → sink until
  // the shared cursor runs dry. Each chunk first polls the query's
  // deadline and cancel flag, so a pipeline below a breaker (aggregate,
  // Gather) stops there too. An atomic flag makes peers stop early when
  // any worker fails. With no pool (or one worker) TaskGroup runs the
  // single task inline on this thread — same code path, same results.
  std::atomic<bool> failed{false};
  const int scan_op_id = source->op_id();
  auto worker_body = [&, context](int worker) -> Status {
    // Workers run on pool threads that have no tracker installed; adopt
    // the query's tracker so ColumnVectors the morsel pipeline creates
    // charge the right budget (tracker counters are atomics).
    ScopedMemoryTracker tracker_scope(context->memory);
    ExecStats* stats = &context->worker_stats[static_cast<size_t>(worker)];
    Morsel morsel;
    while (!failed.load(std::memory_order_relaxed) &&
           source->ClaimMorsel(&morsel)) {
      Status st;
      {
        // Per-morsel scan span on the worker's slot; the transform spans
        // opened inside Apply() nest under it and subtract themselves,
        // leaving pure scan time here.
        MetricSpan scan_span = StatsSpan(stats, scan_op_id);
        st = source->ScanMorsel(
            morsel,
            [&](Chunk&& chunk) -> Status {
              AGORA_RETURN_IF_ERROR(context->CheckControl("MorselPipeline"));
              scan_span.AddRows(static_cast<int64_t>(chunk.num_rows()));
              Chunk out;
              AGORA_RETURN_IF_ERROR(
                  pipeline.Apply(std::move(chunk), &out, stats));
              if (out.num_rows() == 0) return Status::OK();
              return sink(worker, morsel, std::move(out));
            },
            stats);
      }
      if (!st.ok()) {
        failed.store(true, std::memory_order_relaxed);
        return st;
      }
    }
    return Status::OK();
  };

  int workers = context->num_workers > 0 ? context->num_workers : 1;
  ThreadPool* pool = (workers > 1 && !in_order) ? context->pool : nullptr;
  if (pool == nullptr) workers = 1;
  const auto section_start = std::chrono::steady_clock::now();
  TaskGroup group(pool);
  for (int w = 0; w < workers; ++w) {
    group.Spawn([&worker_body, w]() { return worker_body(w); });
  }
  Status status = group.Wait();
  context->MergeWorkerStats();
  // The workers already booked their busy time into per-worker slots (now
  // merged), so the section's wall time must not also count as self time
  // of whichever serial operator (Gather, HashAggregate, HashJoin build)
  // is driving this pipeline from inside its own span.
  if (context->stats.active_span != nullptr) {
    context->stats.active_span->AddChildTime(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - section_start)
            .count());
  }
  return status;
}

Result<Chunk> ParallelCollectAll(PhysicalOperator* op, ExecContext* context) {
  MorselPipeline pipeline;
  if (!ParallelEligible(op, *context, &pipeline)) {
    return CollectAll(op);
  }
  AGORA_RETURN_IF_ERROR(op->Open());

  // One slot per morsel; a morsel is owned by exactly one worker, so the
  // slots need no locking. Flattening in morsel order afterwards yields
  // exactly the serial pull order.
  std::vector<std::vector<Chunk>> by_morsel(pipeline.source()->MorselCount());
  AGORA_RETURN_IF_ERROR(DriveMorselPipeline(
      pipeline, context,
      [&by_morsel, context](int /*worker*/, const Morsel& morsel,
                            Chunk&& chunk) -> Status {
        AGORA_RETURN_IF_ERROR(
            context->CheckMemoryBudget("ParallelCollectAll"));
        by_morsel[morsel.index].push_back(std::move(chunk));
        return Status::OK();
      }));

  // The buffered chunks may be views that charge nothing; the result's
  // copy of them does, so the budget is checked as it grows.
  Chunk result(op->schema());
  for (std::vector<Chunk>& slot : by_morsel) {
    for (Chunk& chunk : slot) {
      result.Append(std::move(chunk));
      AGORA_RETURN_IF_ERROR(
          context->CheckMemoryBudget("ParallelCollectAll"));
    }
  }
  return result;
}

PhysicalGather::PhysicalGather(PhysicalOpPtr child, ExecContext* context)
    : PhysicalOperator(child->schema(), context), child_(std::move(child)) {}

Status PhysicalGather::OpenImpl() {
  chunks_.clear();
  next_chunk_ = 0;

  MorselPipeline pipeline;
  passthrough_ = !ParallelEligible(child_.get(), *context_, &pipeline);
  if (passthrough_) return child_->Open();

  AGORA_RETURN_IF_ERROR(child_->Open());
  std::vector<std::vector<Chunk>> by_morsel(pipeline.source()->MorselCount());
  AGORA_RETURN_IF_ERROR(DriveMorselPipeline(
      pipeline, context_,
      [&by_morsel](int /*worker*/, const Morsel& morsel,
                   Chunk&& chunk) -> Status {
        by_morsel[morsel.index].push_back(std::move(chunk));
        return Status::OK();
      }));
  for (std::vector<Chunk>& slot : by_morsel) {
    for (Chunk& chunk : slot) {
      chunks_.push_back(std::move(chunk));
    }
  }
  return Status::OK();
}

Status PhysicalGather::NextImpl(Chunk* chunk, bool* done) {
  if (passthrough_) return child_->Next(chunk, done);
  if (next_chunk_ < chunks_.size()) {
    *chunk = std::move(chunks_[next_chunk_]);
    ++next_chunk_;
    *done = next_chunk_ == chunks_.size();
    return Status::OK();
  }
  *chunk = Chunk(schema_);
  *done = true;
  return Status::OK();
}

}  // namespace agora
