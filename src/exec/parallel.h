#ifndef AGORA_EXEC_PARALLEL_H_
#define AGORA_EXEC_PARALLEL_H_

#include <functional>
#include <vector>

#include "exec/physical_op.h"
#include "exec/scan.h"

namespace agora {

/// Morsel-driven parallelism (Leis et al., SIGMOD'14 style, adapted to
/// this engine's pull operators).
///
/// A *morsel pipeline* is the longest chain of thread-safe per-chunk
/// transforms above a PhysicalScan leaf:
///
///     Scan (→ Filter | Project | HashJoin-probe)*
///
/// Workers claim ~64K-row morsels from the scan's atomic cursor and push
/// each morsel through the whole chain, so one cache-resident batch flows
/// scan → filter → probe without synchronization. Pipeline *breakers*
/// (aggregate, sort, distinct, the root collector) sit above and either
/// consume morsel results themselves (PhysicalHashAggregate) or read from
/// a PhysicalGather exchange.
///
/// Determinism contract: whether a plan uses the morsel path depends only
/// on plan shape, the `enable_parallel` switch, and the source table size
/// — never on the worker count. All merges happen in morsel-index order.
/// Together this makes query results (including floating-point aggregate
/// rounding) and ExecStats counters byte-identical at every thread count.
class MorselPipeline {
 public:
  /// Recognizes the pipeline shape rooted at `op` without opening
  /// anything. Returns false when the subtree contains a non-pipeline
  /// operator (index scan, sort, union, nested-loop join, ...).
  static bool TryBuild(PhysicalOperator* op, MorselPipeline* out);

  PhysicalScan* source() const { return source_; }

  /// Applies every transform to one source chunk. `*out` may come back
  /// empty (fully filtered / no join match). Thread-safe after the
  /// member operators were opened.
  Status Apply(Chunk&& chunk, Chunk* out, ExecStats* stats) const;

 private:
  using Transform =
      std::function<Status(const Chunk&, Chunk*, ExecStats*)>;

  PhysicalScan* source_ = nullptr;
  std::vector<Transform> transforms_;  // source-to-root order
};

/// True when `op` roots a morsel pipeline the engine may parallelize:
/// recognizable shape, `context.enable_parallel`, and a source table of
/// at least `context.parallel_min_rows` rows. Deliberately independent of
/// `context.num_workers` (see the determinism contract above). Fills
/// `*pipeline` on success.
bool ParallelEligible(PhysicalOperator* op, const ExecContext& context,
                      MorselPipeline* pipeline);

/// Runs `pipeline` to completion with `context->num_workers` tasks on
/// `context->pool` (inline on the calling thread when the pool is null).
/// Every non-empty chunk is handed to `sink(worker, morsel, chunk)`; a
/// given morsel is processed by exactly one worker, so sinks may write to
/// per-morsel slots without locking. With `in_order`, one task on the
/// calling thread claims every morsel, so the sink sees the chunks in
/// morsel order. Prepares the context's per-worker stat slots before the
/// section and merges them (exactly) at the barrier. Returns the first
/// worker error.
Status DriveMorselPipeline(
    const MorselPipeline& pipeline, ExecContext* context,
    const std::function<Status(int, const Morsel&, Chunk&&)>& sink,
    bool in_order = false);

/// Drains `op` like CollectAll, but through the morsel pipeline when
/// eligible: chunks are concatenated in morsel order, so the result is
/// byte-identical to the serial pull order at any worker count. Falls
/// back to CollectAll otherwise. Calls op->Open() in both paths.
Result<Chunk> ParallelCollectAll(PhysicalOperator* op, ExecContext* context);

/// Exchange operator: Open() drives the child morsel pipeline with the
/// worker pool and buffers the output; Next() then streams the chunks in
/// morsel order. The physical planner inserts it below order-insensitive
/// pipeline breakers (Sort and TopK inputs get re-ordered anyway; a
/// serial exchange-merge above keeps SortLimit order-exact) and at plan
/// roots. Degenerates to a pass-through when the child turns out not to
/// be pipeline-shaped at Open() time.
class PhysicalGather : public PhysicalOperator {
 public:
  PhysicalGather(PhysicalOpPtr child, ExecContext* context);

  Status OpenImpl() override;
  Status NextImpl(Chunk* chunk, bool* done) override;
  std::string name() const override { return "Gather"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 private:
  PhysicalOpPtr child_;
  std::vector<Chunk> chunks_;  // morsel order; only non-empty chunks
  size_t next_chunk_ = 0;
  bool passthrough_ = false;
};

}  // namespace agora

#endif  // AGORA_EXEC_PARALLEL_H_
