#ifndef AGORA_EXEC_PHYSICAL_PLANNER_H_
#define AGORA_EXEC_PHYSICAL_PLANNER_H_

#include "common/result.h"
#include "exec/physical_op.h"
#include "plan/logical_plan.h"

namespace agora {

/// Knobs controlling physical plan choice. Exposed so the benchmarks can
/// disable individual decisions (E4 ablations).
struct PhysicalPlannerOptions {
  /// Use hash joins for equi-conditions (otherwise nested loops).
  bool enable_hash_join = true;
  /// The one zone-map switch: a scan skips the blocks whose zone maps
  /// rule out its pushed predicate.
  bool enable_zone_maps = true;
  /// Use hash indexes for `col = constant` scans when one exists.
  bool enable_index_scan = true;
  /// Fuse ORDER BY + LIMIT into a bounded-memory TopK.
  bool enable_topk = true;
  /// Morsel-driven parallel execution (see exec/parallel.h). Whether a
  /// plan takes the parallel path depends on this switch and the plan —
  /// never on `num_threads` — so results match at every thread count.
  bool enable_parallel = true;
  /// Worker tasks per parallel pipeline. 0 = auto: the AGORA_THREADS
  /// environment variable if set, else hardware concurrency.
  int num_threads = 0;
  /// Source tables smaller than this stay on the serial path.
  size_t parallel_min_rows = 8192;
};

/// Lowers an (optionally optimized) logical plan into an executable
/// physical operator tree bound to `context`.
Result<PhysicalOpPtr> CreatePhysicalPlan(
    const LogicalOpPtr& plan, ExecContext* context,
    const PhysicalPlannerOptions& options = {});

/// Lowers the row-finding half of UPDATE/DELETE: a scan of `table` with
/// `predicate` (bound against the table's schema; null = every row)
/// pushed down, planned like a SELECT's scan — zone-map pruning, or an
/// IndexScan when an index applies — that emits the ascending row ids of
/// the matching rows (RowIdSchema).
Result<PhysicalOpPtr> CreateRowIdScan(std::shared_ptr<Table> table,
                                      ExprPtr predicate, ExecContext* context,
                                      const PhysicalPlannerOptions& options);

}  // namespace agora

#endif  // AGORA_EXEC_PHYSICAL_PLANNER_H_
