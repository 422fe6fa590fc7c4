#ifndef AGORA_OPTIMIZER_OPTIMIZER_H_
#define AGORA_OPTIMIZER_OPTIMIZER_H_

#include "common/result.h"
#include "optimizer/cardinality.h"
#include "optimizer/stats.h"
#include "plan/logical_plan.h"

namespace agora {

/// Per-rule switches; benchmarks toggle these for the E4 ablations.
struct OptimizerOptions {
  bool enable_constant_folding = true;
  bool enable_predicate_pushdown = true;
  bool enable_join_reorder = true;
  bool enable_projection_pruning = true;
  /// Resolve HybridStrategy::kAuto by comparing pre- vs post-filter cost
  /// estimates. When off, the legacy fixed selectivity threshold applies
  /// (E4 ablations). kAuto is always resolved either way.
  bool enable_hybrid_cost_strategy = true;
  /// Force every hybrid fusion node onto one strategy regardless of what
  /// the statement requested (kAuto = no forcing). Lets SQL-path tests and
  /// benchmarks sweep strategies without new syntax.
  HybridStrategy hybrid_force_strategy = HybridStrategy::kAuto;

  /// Everything off: the plan executes in syntactic order (the "ORM-grade"
  /// naive plan used as the E4 baseline).
  static OptimizerOptions AllDisabled() {
    OptimizerOptions o;
    o.enable_constant_folding = false;
    o.enable_predicate_pushdown = false;
    o.enable_join_reorder = false;
    o.enable_projection_pruning = false;
    o.enable_hybrid_cost_strategy = false;
    return o;
  }
};

/// Cost-based logical optimizer. Passes run in order:
///   1. constant folding over all predicates/projections
///   2. predicate pushdown (through joins into scans; cross -> inner)
///   3. DP join reordering (DPsub up to 12 relations, greedy beyond)
///   4. projection pruning (column-level, down to scan projections)
/// Whether a scan skips blocks by zone maps is the physical planner's
/// choice (PhysicalPlannerOptions::enable_zone_maps), not a pass here.
class Optimizer {
 public:
  explicit Optimizer(OptimizerOptions options = {})
      : options_(options), estimator_(&stats_cache_) {}

  /// Rewrites `plan`. The input tree is not reused afterwards (nodes may
  /// be shared into the output).
  Result<LogicalOpPtr> Optimize(LogicalOpPtr plan);

  const OptimizerOptions& options() const { return options_; }
  /// Mutable rule switches; tests and the E4 ablation benchmarks flip
  /// hybrid strategy forcing / cost rules between statements.
  OptimizerOptions& mutable_options() { return options_; }
  CardinalityEstimator& estimator() { return estimator_; }

 private:
  OptimizerOptions options_;
  StatsCache stats_cache_;
  CardinalityEstimator estimator_;
};

namespace optimizer_internal {

/// Pass 1: folds constant subtrees in every expression of the plan.
LogicalOpPtr FoldPlanConstants(const LogicalOpPtr& node);

/// Pass 2: pushes filter conjuncts toward the scans. `inherited` are
/// predicates bound against `node`'s output schema.
LogicalOpPtr PushDownPredicates(const LogicalOpPtr& node,
                                std::vector<ExprPtr> inherited);

/// Pass 3: reorders maximal inner/cross join regions by estimated cost.
LogicalOpPtr ReorderJoins(const LogicalOpPtr& node,
                          CardinalityEstimator* estimator);

/// Pass 4: narrows every operator to the columns its ancestors need.
LogicalOpPtr PruneColumns(const LogicalOpPtr& root);

/// Pass 0 (always on): resolves HybridStrategy::kAuto on every
/// LogicalScoreFusion — cost-based when enabled, legacy threshold rule
/// otherwise — and picks the physical vector index for each
/// LogicalVectorTopK (flat for exact pre-filtered plans, IVF/HNSW for
/// post-filtered ANN plans). Records the estimates for EXPLAIN.
void ResolveHybridStrategies(const LogicalOpPtr& node,
                             const OptimizerOptions& options,
                             CardinalityEstimator* estimator);

}  // namespace optimizer_internal

}  // namespace agora

#endif  // AGORA_OPTIMIZER_OPTIMIZER_H_
