#ifndef AGORA_EXEC_PHYSICAL_OP_H_
#define AGORA_EXEC_PHYSICAL_OP_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/deadline.h"
#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "common/result.h"
#include "storage/chunk.h"
#include "types/schema.h"

namespace agora {

class SpillManager;
class ThreadPool;

/// How a counter combines across per-worker blocks: kSum adds them (the
/// registry exports a counter); kMax keeps the high-water mark (the
/// registry exports a gauge of the latest query's value).
enum class CounterMerge { kSum, kMax };

/// ExecStats::ToString prints the kCore counters always and every other
/// group only when at least one of its counters is nonzero.
enum class CounterGroup {
  kCore, kHybrid, kHash, kExpr, kPeak, kReject, kSpill  // kSpill stays last
};

/// kExact counters are equal at every worker count (the determinism
/// contract, pinned by tests/test_parallel_exec.cc); kVaries counters
/// depend on the partition count (= worker count on the join build) or
/// on scheduling, so they are reported but not compared.
enum class CounterThreads { kExact, kVaries };

/// The execution counters, one row each, in ToString order:
///   X(field, "registry name", merge, group, threads)
/// Every other list of counters (ExecStats members, Merge, ToString, the
/// registry export in Database, the determinism test) is generated from
/// or iterates over this table, so adding a counter takes one row plus a
/// docs/METRICS.md entry, which describes every counter (the
/// metrics-doc-drift lint rule reads the registry names here).
///
/// Groups: kCore = relational operators; kHybrid = PhysicalHybridSearch
/// (mirrors the legacy HybridQueryStats fields); kHash = vectorized hash
/// tables (exec/hash_table.h); kExpr = the expression engine's
/// ExprCounters, folded in by filter/project/scan; kPeak/kReject/kSpill =
/// memory governance (common/memory_tracker.h, storage/spill.h), where
/// the spill triple is nonzero only when a budgeted operator actually
/// parked partitions on disk.
// clang-format off
#define AGORA_EXEC_STATS_COUNTERS(X)                                                 \
  X(rows_scanned,            "rows_scanned_total",           kSum, kCore,   kExact)  \
  X(blocks_read,             "blocks_read_total",            kSum, kCore,   kExact)  \
  X(blocks_skipped,          "blocks_skipped_total",         kSum, kCore,   kExact)  \
  X(rows_joined,             "rows_joined_total",            kSum, kCore,   kExact)  \
  X(probe_calls,             "probe_calls_total",            kSum, kCore,   kExact)  \
  X(rows_aggregated,         "rows_aggregated_total",        kSum, kCore,   kExact)  \
  X(rows_sorted,             "rows_sorted_total",            kSum, kCore,   kExact)  \
  X(bytes_materialized,      "bytes_materialized_total",     kSum, kCore,   kExact)  \
  X(chunks_emitted,          "chunks_emitted_total",         kSum, kCore,   kExact)  \
  X(hybrid_filter_rows,      "hybrid_filter_rows_total",     kSum, kHybrid, kExact)  \
  X(vector_distances,        "vector_distances_total",       kSum, kHybrid, kExact)  \
  X(overfetch_retries,       "overfetch_retries_total",      kSum, kHybrid, kExact)  \
  X(fusion_candidates,       "fusion_candidates_total",      kSum, kHybrid, kExact)  \
  X(hash_table_entries,      "hash_table_entries_total",     kSum, kHash,   kExact)  \
  X(hash_table_slots,        "hash_table_slots_total",       kSum, kHash,   kVaries) \
  X(hash_table_lookups,      "hash_table_lookups_total",     kSum, kHash,   kExact)  \
  X(hash_table_probe_steps,  "hash_table_probe_steps_total", kSum, kHash,   kVaries) \
  X(bloom_checked_rows,      "bloom_checked_rows_total",     kSum, kHash,   kExact)  \
  X(bloom_filtered_rows,     "bloom_filtered_rows_total",    kSum, kHash,   kExact)  \
  X(join_filters_exact,      "join_filters_exact_total",     kSum, kHash,   kExact)  \
  X(expr_rows_evaluated,     "expr_rows_evaluated_total",    kSum, kExpr,   kExact)  \
  X(sel_vector_hits,         "sel_vector_hits_total",        kSum, kExpr,   kExact)  \
  X(filter_gathers_avoided,  "filter_gathers_avoided_total", kSum, kExpr,   kExact)  \
  X(mem_bytes_reserved_peak, "mem_bytes_reserved_peak",      kMax, kPeak,   kVaries) \
  X(mem_budget_rejections,   "mem_budget_rejections_total",  kSum, kReject, kExact)  \
  X(spill_partitions,        "spill_partitions_total",       kSum, kSpill,  kExact)  \
  X(spill_bytes_written,     "spill_bytes_written_total",    kSum, kSpill,  kExact)  \
  X(spill_bytes_read,        "spill_bytes_read_total",       kSum, kSpill,  kExact)
// clang-format on

/// Counters collected while a query runs. Also the basis of the
/// sustainability proxy in experiment E7: `JoulesProxy()` weighs data
/// movement and materialization, not just wall-clock time.
struct ExecStats {
#define AGORA_EXEC_STATS_MEMBER(field, metric, merge, group, threads) \
  int64_t field = 0;
  AGORA_EXEC_STATS_COUNTERS(AGORA_EXEC_STATS_MEMBER)
#undef AGORA_EXEC_STATS_MEMBER

  /// Per-operator self-time slots, indexed by PhysicalOperator::op_id().
  /// Additive like every other counter; per-worker copies merge exactly.
  std::vector<OpTiming> op_timings;

  /// Top of this stats block's open-span stack (see common/metrics.h).
  /// Transient: only non-null while an operator call is on the stack of
  /// the thread that owns this block; never set after execution ends.
  MetricSpan* active_span = nullptr;

  void Reset() { *this = ExecStats{}; }

  /// Folds another stats block into this one, counter by counter as the
  /// table's merge column says, so merging per-worker slots reproduces
  /// the serial totals exactly.
  void Merge(const ExecStats& other);

  /// Synthetic energy proxy (arbitrary units): weighted sum of bytes moved
  /// and per-row work. Tracks resource footprint independent of latency.
  double JoulesProxy() const {
    return 1e-9 * static_cast<double>(bytes_materialized) +
           2e-9 * static_cast<double>(rows_scanned + rows_joined +
                                      rows_aggregated + rows_sorted) +
           1e-9 * static_cast<double>(probe_calls);
  }

  /// Space-separated `field=count` pairs in table order, grouped as
  /// CounterGroup describes (the EXPLAIN ANALYZE totals line).
  std::string ToString() const;
};

/// One row of AGORA_EXEC_STATS_COUNTERS as data.
struct ExecCounter {
  const char* field;   // ExecStats member name, as ToString prints it
  const char* metric;  // MetricsRegistry series name
  CounterMerge merge;
  CounterGroup group;
  CounterThreads threads;
  int64_t ExecStats::*member;
};

inline constexpr ExecCounter kExecCounters[] = {
#define AGORA_EXEC_STATS_ROW(field, metric, merge, group, threads)        \
  {#field, metric, CounterMerge::merge, CounterGroup::group,              \
   CounterThreads::threads, &ExecStats::field},
    AGORA_EXEC_STATS_COUNTERS(AGORA_EXEC_STATS_ROW)
#undef AGORA_EXEC_STATS_ROW
};

/// Per-query execution context shared by all operators of one plan.
///
/// The parallel fields configure morsel-driven execution (see
/// exec/parallel.h). Plan eligibility depends only on `enable_parallel`,
/// `parallel_min_rows` and the plan shape — never on `num_workers` — so a
/// query produces byte-identical results at every worker count.
struct ExecContext {
  ExecStats stats;

  /// Worker pool for parallel sections; nullptr runs morsel loops inline
  /// on the calling thread (still through the morsel path when eligible).
  ThreadPool* pool = nullptr;
  /// Worker tasks spawned per parallel pipeline.
  int num_workers = 1;
  /// Gate for the morsel path (ablation switch, mirrors planner options).
  bool enable_parallel = true;
  /// Source tables smaller than this stay on the legacy serial path.
  size_t parallel_min_rows = 8192;

  /// Per-worker counter slots used during a parallel section so the hot
  /// path never touches shared counters or atomics. Merged into `stats`
  /// (exactly — all counters are additive) at the section barrier.
  std::vector<ExecStats> worker_stats;

  /// Per-query memory tracker (child of the engine root). Null when the
  /// plan runs outside Database::ExecutePlan (unit tests build contexts
  /// directly); all budget checks treat null as unlimited.
  std::shared_ptr<MemoryTracker> memory;
  /// Spill-file provider for budgeted joins/aggregates; null disables
  /// spilling (budget violations then fail the query outright).
  SpillManager* spill = nullptr;
  /// Partition count used by budgeted (spill-capable) operators. Results
  /// are byte-identical at every value; it only moves the spill
  /// granularity.
  size_t spill_partitions = 8;

  /// Number of operator ids handed out for this plan; slot count of
  /// `stats.op_timings` once every operator has reported.
  int num_ops = 0;

  /// Cooperative interruption for this query (deadline + cancel flag);
  /// null means uninterruptible. Shared with the issuing side (the HTTP
  /// front end arms timeouts here), polled at chunk boundaries.
  const QueryControl* control = nullptr;

  /// OK while the query is under its memory budget; otherwise the
  /// ResourceExhausted status operators propagate. Called at chunk
  /// boundaries, never per row.
  Status CheckMemoryBudget(const char* who) const {
    if (memory == nullptr) return Status::OK();
    return memory->CheckBudget(who);
  }

  /// True when operators must run in budget-aware (spill-capable) mode.
  bool memory_limited() const {
    return memory != nullptr && memory->budget_limited();
  }

  /// OK while the query is neither cancelled nor past its deadline.
  /// Called at chunk boundaries alongside CheckMemoryBudget; free when no
  /// control is attached.
  Status CheckControl(const char* who) const {
    if (control == nullptr) return Status::OK();
    return control->Check(who);
  }

  /// Hands out the next per-plan operator id (called from the
  /// PhysicalOperator constructor).
  int RegisterOp() { return num_ops++; }

  void PrepareWorkerStats() {
    worker_stats.assign(static_cast<size_t>(num_workers), ExecStats{});
  }
  void MergeWorkerStats() {
    for (const ExecStats& w : worker_stats) stats.Merge(w);
    worker_stats.clear();
  }
};

/// Opens a self-time span writing into `stats` for operator `op_id`
/// (no-op when `stats` is null or `op_id` < 0).
inline MetricSpan StatsSpan(ExecStats* stats, int op_id) {
  return MetricSpan(stats != nullptr ? &stats->op_timings : nullptr,
                    stats != nullptr ? &stats->active_span : nullptr, op_id);
}

/// A named sub-phase of one operator (e.g. HashJoin build vs probe) with
/// its own timing slot. Phase slots are registered like operator ids, so
/// MetricSpans write to them directly; CollectProfile renders each phase
/// as a pseudo-child node "Name::phase" under its operator.
struct OperatorPhase {
  std::string name;
  int op_id = -1;
};

/// Base class for vectorized pull-based operators (Volcano with chunks).
///
/// Protocol: `Open()` once, then `Next(&chunk, &done)` until `done`.
/// A returned chunk may be empty only together with done == true.
///
/// Open()/Next() are non-virtual timing wrappers: they record the call's
/// self time (plus rows and invocations for Next) into the operator's
/// `ExecStats::op_timings` slot and delegate to OpenImpl()/NextImpl().
/// Subclasses override the *Impl hooks and never pay for timing twice;
/// morsel-path entry points (ScanMorsel, the pipeline transforms) open
/// their own spans against per-worker slots instead.
class PhysicalOperator {
 public:
  PhysicalOperator(Schema schema, ExecContext* context)
      : schema_(std::move(schema)),
        context_(context),
        op_id_(context != nullptr ? context->RegisterOp() : -1) {}
  virtual ~PhysicalOperator() = default;

  PhysicalOperator(const PhysicalOperator&) = delete;
  PhysicalOperator& operator=(const PhysicalOperator&) = delete;

  const Schema& schema() const { return schema_; }
  ExecContext* context() const { return context_; }

  /// Per-plan slot index into ExecStats::op_timings (-1 = untimed).
  int op_id() const { return op_id_; }

  /// Prepares the operator (e.g. builds hash tables). Called exactly once
  /// before the first Next(). Times the call; delegates to OpenImpl().
  Status Open();

  /// Produces the next batch. Sets *done = true when the stream ends (the
  /// chunk returned alongside done may still carry rows). Times the call
  /// and counts emitted rows; delegates to NextImpl().
  Status Next(Chunk* chunk, bool* done);

  /// Operator name for EXPLAIN ANALYZE-style output.
  virtual std::string name() const = 0;

  /// Child operators in plan order (for profile tree walks). Base
  /// returns none; operators with inputs override.
  virtual std::vector<const PhysicalOperator*> children() const { return {}; }

  /// Timed sub-phases of this operator, if any (see OperatorPhase).
  virtual std::vector<OperatorPhase> phases() const { return {}; }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Status NextImpl(Chunk* chunk, bool* done) = 0;

  Schema schema_;
  ExecContext* context_;

 private:
  int op_id_;
};

using PhysicalOpPtr = std::unique_ptr<PhysicalOperator>;

/// Drains `op` (Open + Next loop) and concatenates everything into one
/// chunk. The workhorse behind Database::Execute and the tests.
Result<Chunk> CollectAll(PhysicalOperator* op);

/// Pre-order walk of the plan rooted at `root`, pairing each operator
/// with its merged timing slot in `stats`. Input for RenderProfileTree
/// and the per-operator registry counters.
std::vector<OperatorProfileNode> CollectProfile(const PhysicalOperator* root,
                                                const ExecStats& stats);

}  // namespace agora

#endif  // AGORA_EXEC_PHYSICAL_OP_H_
