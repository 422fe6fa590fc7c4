#ifndef AGORA_ENGINE_DATABASE_H_
#define AGORA_ENGINE_DATABASE_H_

#include <atomic>
#include <memory>
#include <string>

#include "common/deadline.h"
#include "common/memory_tracker.h"
#include "common/metrics.h"
#include "common/result.h"
#include "exec/physical_op.h"
#include "exec/physical_planner.h"
#include "optimizer/optimizer.h"
#include "plan/logical_plan.h"
#include "sql/ast.h"
#include "storage/catalog.h"
#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "storage/spill.h"

namespace agora {

/// Tunables for a Database instance. The optimizer/physical switches exist
/// so benchmarks can ablate individual techniques (experiment E4).
struct DatabaseOptions {
  OptimizerOptions optimizer;
  PhysicalPlannerOptions physical;
};

/// A fully materialized query result: schema + rows + the execution
/// statistics and per-operator profile gathered while producing it.
class QueryResult {
 public:
  QueryResult() = default;
  QueryResult(Schema schema, Chunk data, ExecStats stats,
              std::vector<OperatorProfileNode> profile = {})
      : schema_(std::move(schema)),
        data_(std::move(data)),
        stats_(std::move(stats)),
        profile_(std::move(profile)) {}

  const Schema& schema() const { return schema_; }
  const Chunk& data() const { return data_; }
  const ExecStats& stats() const { return stats_; }

  /// Plan-shaped per-operator timing profile (pre-order; empty for DDL/DML
  /// and EXPLAIN-without-ANALYZE results). Render with RenderProfileTree.
  const std::vector<OperatorProfileNode>& profile() const { return profile_; }

  size_t num_rows() const { return data_.num_rows(); }
  size_t num_columns() const { return schema_.num_fields(); }

  /// Value at (row, col); boxes the cell.
  Value Get(size_t row, size_t col) const {
    return data_.column(col).GetValue(row);
  }
  /// Value by column name; aborts if the name is unknown (test helper).
  Value GetByName(size_t row, const std::string& column) const;

  /// ASCII table rendering (header + up to `max_rows` rows).
  std::string ToString(size_t max_rows = 25) const;

 private:
  Schema schema_;
  Chunk data_;
  ExecStats stats_;
  std::vector<OperatorProfileNode> profile_;
};

/// The embedded AgoraDB engine: catalog + SQL front end + optimizer +
/// vectorized executor behind a two-call API:
///
///   agora::Database db;
///   db.Execute("CREATE TABLE t (a BIGINT, b VARCHAR)");
///   auto result = db.Execute("SELECT a, COUNT(*) FROM t GROUP BY a");
///
/// Concurrency model (server view: docs/SERVER.md "Concurrency
/// model"): the public entry points are safe to call from any number of
/// threads with no lock of the caller's own. Each takes the Database's
/// writer-preferring reader/writer engine lock once. Execute() picks the
/// side from the parsed Statement: a SELECT, bare or under EXPLAIN
/// [ANALYZE], shares it; every other statement writes storage or
/// indexes in place and takes it exclusively. Explain(), PlanSelect()
/// and ExecutePlan() share it. A wait ends at the QueryControl deadline
/// with DeadlineExceeded. The lock is not reentrant: code inside an
/// entry point calls the private helpers, never another entry point.
/// Queries resolve tables into shared_ptr snapshots, so a SELECT bound
/// before a DROP TABLE completes against its snapshot. Mutating tables
/// directly through catalog() or a Table handle bypasses the engine
/// lock; callers doing so beside running statements must exclude them
/// themselves.
class Database {
 public:
  explicit Database(DatabaseOptions options = {});

  Catalog& catalog() { return catalog_; }
  const Catalog& catalog() const { return catalog_; }

  /// Parses and runs one statement. DDL/DML return an empty result;
  /// EXPLAIN returns the plan as a one-column result.
  Result<QueryResult> Execute(const std::string& sql)
      AGORA_EXCLUDES(engine_mu_) {
    return Execute(sql, nullptr);
  }

  /// Execute with cooperative interruption: `control` (may be null)
  /// bounds the wait for the engine lock and is polled at chunk
  /// boundaries while a SELECT plan runs; once its deadline passes or
  /// cancellation is requested, execution unwinds with a
  /// DeadlineExceeded Status and the engine stays fully usable.
  Result<QueryResult> Execute(const std::string& sql,
                              const QueryControl* control)
      AGORA_EXCLUDES(engine_mu_);

  /// Returns the optimized logical plan text for a SELECT.
  Result<std::string> Explain(const std::string& sql)
      AGORA_EXCLUDES(engine_mu_);

  /// Binds + optimizes a SELECT into a logical plan (benchmark hook).
  Result<LogicalOpPtr> PlanSelect(const SelectStatement& select)
      AGORA_EXCLUDES(engine_mu_);

  /// Executes a pre-built logical plan (benchmark hook for hand-written
  /// plans and ablations). The two-argument form attaches a cooperative
  /// interruption control (see Execute above).
  Result<QueryResult> ExecutePlan(const LogicalOpPtr& plan)
      AGORA_EXCLUDES(engine_mu_) {
    return ExecutePlan(plan, nullptr);
  }
  Result<QueryResult> ExecutePlan(const LogicalOpPtr& plan,
                                  const QueryControl* control)
      AGORA_EXCLUDES(engine_mu_);

  /// Engine-wide named counters and gauges, updated once per executed
  /// query (never double-counted by EXPLAIN ANALYZE re-renders); the
  /// one process-lifetime home of the ExecStats counters. Reset() clears
  /// them.
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// Serializes the registry: one JSON object or Prometheus text
  /// exposition (metric names prefixed "agora_"). Schema in
  /// docs/METRICS.md.
  std::string MetricsSnapshot(MetricsFormat format = MetricsFormat::kJson) const {
    return metrics_.Snapshot(format);
  }

  Optimizer& optimizer() { return optimizer_; }
  const DatabaseOptions& options() const { return options_; }
  /// Mutable physical-planner knobs (tests lower parallel_min_rows to
  /// exercise the morsel path on small tables; benchmarks toggle operators).
  PhysicalPlannerOptions& physical_options() { return options_.physical; }

  /// Sets the per-query worker-task count for parallel pipelines (0 =
  /// auto). Only scheduling changes — plans and results are identical at
  /// every setting. Benchmarks use this for thread-scaling sweeps.
  void set_execution_threads(int n) { options_.physical.num_threads = n; }

  /// Engine-wide memory budget in bytes (0 = unlimited). Seeded from
  /// AGORA_MEM_BUDGET at construction (plain bytes, optional k/m/g
  /// suffix); this setter overrides it at runtime. Under a budget,
  /// blocking operators run the spill-capable path; queries that cannot
  /// fit even with spilling fail with a ResourceExhausted Status — the
  /// process never aborts on memory pressure.
  void set_memory_budget(int64_t bytes) { memory_root_->set_budget(bytes); }
  int64_t memory_budget() const { return memory_root_->budget(); }

  /// The engine root of the tracker hierarchy. Each query charges a child
  /// of this tracker; root.reserved() returns to zero once all
  /// QueryResults are destroyed.
  const std::shared_ptr<MemoryTracker>& memory_tracker() const {
    return memory_root_;
  }

  /// Partition count for budgeted (spill-capable) joins/aggregates.
  /// Results are byte-identical at every value (tests sweep it); it only
  /// moves the spill granularity.
  void set_spill_partitions(size_t n) {
    spill_partitions_.store(n, std::memory_order_relaxed);
  }

  /// Directory for spill temp files (empty = AGORA_SPILL_DIR, then
  /// TMPDIR, then /tmp). Takes effect on the next budgeted query; tests
  /// point this at a scratch dir to assert temp-file cleanup.
  void set_spill_dir(std::string dir) {
    MutexLock lock(spill_mu_);
    spill_dir_ = std::move(dir);
    spill_.reset();
  }

 private:
  // Unlocked bodies of the entry points: callers hold engine_mu_.
  Result<LogicalOpPtr> PlanSelectLocked(const SelectStatement& select)
      AGORA_REQUIRES_SHARED(engine_mu_);
  Result<QueryResult> ExecutePlanLocked(const LogicalOpPtr& plan,
                                        const QueryControl* control)
      AGORA_REQUIRES_SHARED(engine_mu_);
  Result<QueryResult> ExecuteSelect(const SelectStatement& select,
                                    bool explain, bool analyze,
                                    const QueryControl* control)
      AGORA_REQUIRES_SHARED(engine_mu_);
  Result<QueryResult> ExecuteCreateTable(const CreateTableStatement& stmt)
      AGORA_REQUIRES(engine_mu_);
  Result<QueryResult> ExecuteDropTable(const DropTableStatement& stmt)
      AGORA_REQUIRES(engine_mu_);
  Result<QueryResult> ExecuteInsert(const InsertStatement& stmt)
      AGORA_REQUIRES(engine_mu_);
  Result<QueryResult> ExecuteCreateIndex(const CreateIndexStatement& stmt)
      AGORA_REQUIRES(engine_mu_);
  Result<QueryResult> ExecuteUpdate(const UpdateStatement& stmt)
      AGORA_REQUIRES(engine_mu_);
  Result<QueryResult> ExecuteDelete(const DeleteStatement& stmt)
      AGORA_REQUIRES(engine_mu_);
  Result<QueryResult> ExecuteCopy(const CopyStatement& stmt)
      AGORA_REQUIRES(engine_mu_);

  /// The row-finding half of UPDATE/DELETE: binds `where` (null = every
  /// row) against `table` and runs it as a planned row-id scan (zone
  /// maps, IndexScan). Returns the matching row ids, ascending.
  Result<std::vector<uint32_t>> FindRows(const std::shared_ptr<Table>& table,
                                         const ParsedExprPtr& where)
      AGORA_REQUIRES_SHARED(engine_mu_);

  /// Folds one query's stats + profile into the registry (exactly once
  /// per execution, at the end of ExecutePlan).
  void RecordQueryMetrics(const ExecStats& stats,
                          const std::vector<OperatorProfileNode>& profile,
                          double seconds, size_t result_rows);

  /// Exports every kExecCounters row of `stats` (sum rows as counters,
  /// max rows as gauges). Failed executions record only this part.
  void RecordExecCounters(const ExecStats& stats);

  /// Returns the (lazily created) spill manager under spill_mu_. The
  /// returned SpillManager is internally synchronized, so only the
  /// pointer slot needs the lock.
  SpillManager* EnsureSpillManager() AGORA_EXCLUDES(spill_mu_);

  DeadlineSharedLock engine_mu_;  // reads shared, writes exclusive
  DatabaseOptions options_;
  Catalog catalog_;
  Optimizer optimizer_;
  MetricsRegistry metrics_;
  std::shared_ptr<MemoryTracker> memory_root_;
  Mutex spill_mu_;  // guards lazy spill_ creation + the directory it uses
  // Created on first budgeted query.
  std::unique_ptr<SpillManager> spill_ AGORA_GUARDED_BY(spill_mu_);
  std::string spill_dir_ AGORA_GUARDED_BY(spill_mu_);
  // Read by every budgeted query while set_spill_partitions may race in
  // from a test/operator thread; atomic, not mutex-guarded, because a
  // torn-free stale read is fine (it only moves spill granularity).
  std::atomic<size_t> spill_partitions_{8};
};

}  // namespace agora

#endif  // AGORA_ENGINE_DATABASE_H_
