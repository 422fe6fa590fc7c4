#include "exec/physical_planner.h"

#include <algorithm>
#include <optional>

#include "common/thread_pool.h"
#include "exec/aggregate.h"
#include "exec/filter_project.h"
#include "exec/hybrid_search.h"
#include "exec/join.h"
#include "exec/parallel.h"
#include "exec/scan.h"
#include "exec/sort_limit.h"
#include "exec/union_op.h"
#include "expr/expr_rewrite.h"

namespace agora {

namespace {

/// Finds a `col = constant` equality conjunct usable by an existing hash
/// index. Returns true and fills outputs when found.
bool FindIndexableEquality(const ExprPtr& predicate, const Table& table,
                           const std::vector<size_t>& projection,
                           size_t* key_column, Value* key) {
  for (const ExprPtr& conjunct : SplitConjuncts(predicate)) {
    std::optional<ColumnLiteral> m = MatchColumnLiteral(*conjunct);
    if (!m.has_value() || m->op != CompareOp::kEq || m->literal->is_null()) {
      continue;
    }
    const size_t ref = m->column->index();
    const size_t base_col = projection.empty() ? ref : projection[ref];
    std::shared_ptr<const HashIndex> index = table.GetHashIndex(base_col);
    if (index == nullptr) continue;
    // The stored hash must match the probe hash: require identical types.
    if (m->literal->type() != table.schema().field(base_col).type) continue;
    *key_column = base_col;
    *key = *m->literal;
    return true;
  }
  return false;
}

/// True when `op`'s subtree can drop rows of the tables under it: it
/// holds a pushed scan predicate, a Filter or an inner join. Only such a
/// build side is worth a join filter; a bare full-table build matches
/// (nearly) every probe key, so the filter would only re-hash rows.
bool CanDropRows(const PhysicalOperator& op) {
  if (const auto* scan = dynamic_cast<const PhysicalScan*>(&op)) {
    return scan->has_predicate();
  }
  if (dynamic_cast<const PhysicalIndexScan*>(&op) != nullptr ||
      dynamic_cast<const PhysicalFilter*>(&op) != nullptr) {
    return true;
  }
  if (const auto* join = dynamic_cast<const PhysicalHashJoin*>(&op)) {
    if (join->kind() == PhysicalJoinKind::kInner) return true;
  }
  if (const auto* nl = dynamic_cast<const PhysicalNestedLoopJoin*>(&op)) {
    if (nl->kind() == PhysicalJoinKind::kInner) return true;
  }
  for (const PhysicalOperator* child : op.children()) {
    if (CanDropRows(*child)) return true;
  }
  return false;
}

/// Follows output column `*column` of `op` down the streaming probe chain
/// — the shape MorselPipeline::TryBuild walks: Project column refs,
/// Filter, and the probe side of a hash join — to the PhysicalScan that
/// produces it, rewriting `*column` to that scan's output column. Returns
/// null when the column is computed, comes from a build side, or the
/// chain ends anywhere but a column-emitting PhysicalScan.
PhysicalScan* TraceToScan(PhysicalOperator* op, size_t* column) {
  for (;;) {
    if (auto* scan = dynamic_cast<PhysicalScan*>(op)) {
      return scan->emit_row_ids() ? nullptr : scan;
    }
    if (auto* filter = dynamic_cast<PhysicalFilter*>(op)) {
      op = filter->child();
      continue;
    }
    if (auto* project = dynamic_cast<PhysicalProject*>(op)) {
      const ExprPtr& e = project->exprs()[*column];
      if (e->kind() != ExprKind::kColumnRef) return nullptr;
      *column = static_cast<const ColumnRefExpr&>(*e).index();
      op = project->child();
      continue;
    }
    if (auto* join = dynamic_cast<PhysicalHashJoin*>(op)) {
      *column = join->output()[*column];
      if (*column >= join->probe_child()->schema().num_fields()) {
        return nullptr;  // a build-side column
      }
      op = join->probe_child();
      continue;
    }
    return nullptr;
  }
}

/// Publishes `join`'s key filter to the scan that produces all of its
/// probe keys, when there is one and the filter can pay (see DESIGN.md,
/// "Join filters"). Left joins never publish: their probe side is the
/// preserved side.
void MaybePushJoinFilter(PhysicalHashJoin* join) {
  if (join->kind() != PhysicalJoinKind::kInner || join->spill_mode() ||
      !CanDropRows(*join->build_child())) {
    return;
  }
  PhysicalScan* target = nullptr;
  std::vector<size_t> columns;
  for (const ExprPtr& key : join->left_keys()) {
    if (key->kind() != ExprKind::kColumnRef) return;  // CAST or computed
    size_t column = static_cast<const ColumnRefExpr&>(*key).index();
    PhysicalScan* scan = TraceToScan(join->probe_child(), &column);
    if (scan == nullptr || (target != nullptr && scan != target)) return;
    target = scan;
    columns.push_back(column);
  }
  target->AddJoinFilter(join->build_filter(), std::move(columns));
  join->set_filter_pushed();
}

class PlannerImpl {
 public:
  PlannerImpl(ExecContext* context, const PhysicalPlannerOptions& options)
      : context_(context), options_(options) {}

  Result<PhysicalOpPtr> Lower(const LogicalOpPtr& node) {
    switch (node->kind()) {
      case LogicalOpKind::kScan:
        return LowerScan(static_cast<const LogicalScan&>(*node));
      case LogicalOpKind::kFilter: {
        const auto& f = static_cast<const LogicalFilter&>(*node);
        AGORA_ASSIGN_OR_RETURN(PhysicalOpPtr child, Lower(f.children()[0]));
        return PhysicalOpPtr(std::make_unique<PhysicalFilter>(
            std::move(child), f.predicate(), context_));
      }
      case LogicalOpKind::kProject: {
        const auto& p = static_cast<const LogicalProject&>(*node);
        AGORA_ASSIGN_OR_RETURN(PhysicalOpPtr child, Lower(p.children()[0]));
        return PhysicalOpPtr(std::make_unique<PhysicalProject>(
            std::move(child), p.exprs(), p.schema(), context_));
      }
      case LogicalOpKind::kJoin:
        return LowerJoin(static_cast<const LogicalJoin&>(*node));
      case LogicalOpKind::kAggregate: {
        const auto& a = static_cast<const LogicalAggregate&>(*node);
        AGORA_ASSIGN_OR_RETURN(PhysicalOpPtr child, Lower(a.children()[0]));
        // The aggregate parallelizes its own accumulation over a pipeline
        // child — except for DISTINCT aggregates, whose dedup sets cannot
        // be merged from partials. Those get a Gather exchange below them
        // so at least the scan/filter work runs on the pool.
        bool has_distinct = false;
        for (const AggregateSpec& spec : a.aggregates()) {
          has_distinct = has_distinct || spec.distinct;
        }
        if (has_distinct) child = MaybeGather(std::move(child));
        return PhysicalOpPtr(std::make_unique<PhysicalHashAggregate>(
            std::move(child), a.group_by(), a.aggregates(), a.schema(),
            context_));
      }
      case LogicalOpKind::kSort: {
        const auto& s = static_cast<const LogicalSort&>(*node);
        AGORA_ASSIGN_OR_RETURN(PhysicalOpPtr child, Lower(s.children()[0]));
        // Sort re-orders its whole input anyway, so the exchange's
        // morsel-ordered merge keeps results exact.
        return PhysicalOpPtr(std::make_unique<PhysicalSort>(
            MaybeGather(std::move(child)), s.keys(), context_));
      }
      case LogicalOpKind::kLimit: {
        const auto& l = static_cast<const LogicalLimit&>(*node);
        // Fuse Limit(Sort(x)) into TopK when enabled. The binder places
        // the sort below the final projection, so also match
        // Limit(Project(Sort(x))) and keep the projection on top.
        if (options_.enable_topk && l.limit() >= 0 &&
            l.children()[0]->kind() == LogicalOpKind::kSort) {
          const auto& s = static_cast<const LogicalSort&>(*l.children()[0]);
          AGORA_ASSIGN_OR_RETURN(PhysicalOpPtr child,
                                 Lower(s.children()[0]));
          return PhysicalOpPtr(std::make_unique<PhysicalTopK>(
              MaybeGather(std::move(child)), s.keys(), l.limit(),
              l.offset(), context_));
        }
        if (options_.enable_topk && l.limit() >= 0 &&
            l.children()[0]->kind() == LogicalOpKind::kProject &&
            l.children()[0]->children()[0]->kind() == LogicalOpKind::kSort) {
          const auto& p =
              static_cast<const LogicalProject&>(*l.children()[0]);
          const auto& s =
              static_cast<const LogicalSort&>(*p.children()[0]);
          AGORA_ASSIGN_OR_RETURN(PhysicalOpPtr child,
                                 Lower(s.children()[0]));
          auto topk = std::make_unique<PhysicalTopK>(
              MaybeGather(std::move(child)), s.keys(), l.limit(),
              l.offset(), context_);
          return PhysicalOpPtr(std::make_unique<PhysicalProject>(
              std::move(topk), p.exprs(), p.schema(), context_));
        }
        AGORA_ASSIGN_OR_RETURN(PhysicalOpPtr child, Lower(l.children()[0]));
        return PhysicalOpPtr(std::make_unique<PhysicalLimit>(
            std::move(child), l.limit(), l.offset(), context_));
      }
      case LogicalOpKind::kDistinct: {
        AGORA_ASSIGN_OR_RETURN(PhysicalOpPtr child,
                               Lower(node->children()[0]));
        // Distinct's dedup keys don't depend on input order, and the
        // exchange replays chunks in morsel order, so the surviving-row
        // order matches the serial path exactly.
        return PhysicalOpPtr(std::make_unique<PhysicalDistinct>(
            MaybeGather(std::move(child)), context_));
      }
      case LogicalOpKind::kUnion: {
        std::vector<PhysicalOpPtr> children;
        for (const auto& child : node->children()) {
          AGORA_ASSIGN_OR_RETURN(PhysicalOpPtr lowered, Lower(child));
          children.push_back(std::move(lowered));
        }
        return PhysicalOpPtr(std::make_unique<PhysicalUnion>(
            std::move(children), context_));
      }
      case LogicalOpKind::kScoreFusion:
        // The fusion root drives its ranking leaves itself; they are never
        // lowered on their own.
        return PhysicalOpPtr(std::make_unique<PhysicalHybridSearch>(
            static_cast<const LogicalScoreFusion&>(*node), context_));
      case LogicalOpKind::kTextMatch:
      case LogicalOpKind::kVectorTopK:
        return Status::Internal(
            "hybrid ranking leaves only execute inside ScoreFusion");
    }
    return Status::Internal("unhandled logical operator");
  }

  /// With `emit_row_ids` the scan yields matching row ids (RowIdSchema)
  /// for UPDATE and DELETE instead of the projected columns.
  Result<PhysicalOpPtr> LowerScan(const LogicalScan& scan,
                                  bool emit_row_ids = false) {
    const ExprPtr& pred = scan.pushed_predicate();
    Schema schema = emit_row_ids ? RowIdSchema() : scan.schema();
    // Index scan for equality predicates with an existing index.
    if (options_.enable_index_scan && pred != nullptr) {
      size_t key_column;
      Value key;
      if (FindIndexableEquality(pred, *scan.table(), scan.projection(),
                                &key_column, &key)) {
        return PhysicalOpPtr(std::make_unique<PhysicalIndexScan>(
            scan.table(), scan.projection(), key_column, std::move(key),
            pred, emit_row_ids, std::move(schema), context_));
      }
    }
    return PhysicalOpPtr(std::make_unique<PhysicalScan>(
        scan.table(), scan.projection(), pred, options_.enable_zone_maps,
        emit_row_ids, std::move(schema), context_));
  }

 private:
  /// Inserts a Gather exchange below order-insensitive pipeline breakers.
  /// Never used under Limit (early exit must stay streaming) or as a join
  /// child (would break the probe pipeline shape). Gather degenerates to
  /// a pass-through when the child is not an eligible pipeline, so
  /// wrapping is always safe.
  PhysicalOpPtr MaybeGather(PhysicalOpPtr op) {
    if (!options_.enable_parallel) return op;
    return std::make_unique<PhysicalGather>(std::move(op), context_);
  }

  Result<PhysicalOpPtr> LowerJoin(const LogicalJoin& join) {
    AGORA_ASSIGN_OR_RETURN(PhysicalOpPtr left, Lower(join.children()[0]));
    AGORA_ASSIGN_OR_RETURN(PhysicalOpPtr right, Lower(join.children()[1]));
    size_t left_arity = join.children()[0]->schema().num_fields();
    size_t total_arity =
        left_arity + join.children()[1]->schema().num_fields();

    PhysicalJoinKind kind = PhysicalJoinKind::kInner;
    switch (join.join_kind()) {
      case LogicalJoin::Kind::kInner:
        kind = PhysicalJoinKind::kInner;
        break;
      case LogicalJoin::Kind::kLeft:
        kind = PhysicalJoinKind::kLeftOuter;
        break;
      case LogicalJoin::Kind::kCross:
        kind = PhysicalJoinKind::kCross;
        break;
    }

    // Split the condition into equi-key pairs and a residual.
    std::vector<ExprPtr> left_keys, right_keys, residual;
    if (options_.enable_hash_join && join.condition() != nullptr) {
      for (const ExprPtr& conjunct : SplitConjuncts(join.condition())) {
        bool is_key = false;
        if (conjunct->kind() == ExprKind::kComparison) {
          const auto* cmp =
              static_cast<const ComparisonExpr*>(conjunct.get());
          if (cmp->op() == CompareOp::kEq) {
            ExprPtr l = cmp->left(), r = cmp->right();
            if (RefsWithin(l, 0, left_arity) &&
                RefsWithin(r, left_arity, total_arity)) {
              // keep orientation
            } else if (RefsWithin(r, 0, left_arity) &&
                       RefsWithin(l, left_arity, total_arity)) {
              std::swap(l, r);
            } else {
              l = nullptr;
            }
            if (l != nullptr) {
              // Rebase the right-side key onto the right child's schema.
              ExprPtr rk = RemapColumns(
                  r, [left_arity](size_t i) { return i - left_arity; });
              // Hash equality requires identical key types: cast both
              // sides to the common numeric type when they differ.
              TypeId lt = l->result_type(), rt = rk->result_type();
              if (lt != rt) {
                TypeId common = CommonNumericType(lt, rt);
                if (common == TypeId::kInvalid) {
                  // Should not happen post-binding; treat as residual.
                  residual.push_back(conjunct);
                  continue;
                }
                if (lt != common) l = std::make_shared<CastExpr>(l, common);
                if (rt != common) {
                  rk = std::make_shared<CastExpr>(rk, common);
                }
              }
              left_keys.push_back(std::move(l));
              right_keys.push_back(std::move(rk));
              is_key = true;
            }
          }
        }
        if (!is_key) residual.push_back(conjunct);
      }
    }

    if (!left_keys.empty()) {
      // Left-outer joins with residual predicates would need deferred
      // NULL padding; fall back to nested loops for those.
      if (kind != PhysicalJoinKind::kLeftOuter || residual.empty()) {
        auto hash_join = std::make_unique<PhysicalHashJoin>(
            std::move(left), std::move(right), std::move(left_keys),
            std::move(right_keys), CombineConjuncts(std::move(residual)),
            kind, join.projection(), context_);
        MaybePushJoinFilter(hash_join.get());
        return PhysicalOpPtr(std::move(hash_join));
      }
    }
    return PhysicalOpPtr(std::make_unique<PhysicalNestedLoopJoin>(
        std::move(left), std::move(right), join.condition(), kind,
        join.projection(), context_));
  }

  ExecContext* context_;
  PhysicalPlannerOptions options_;
};

}  // namespace

namespace {

/// Points `context`'s parallel section at `options` before lowering.
void ConfigureContext(ExecContext* context,
                      const PhysicalPlannerOptions& options) {
  // Configure the context's parallel section before lowering: eligibility
  // reads enable_parallel/parallel_min_rows only, so the thread count can
  // vary per query without changing plans or results.
  context->enable_parallel = options.enable_parallel;
  context->parallel_min_rows = options.parallel_min_rows;
  int workers = options.num_threads > 0
                    ? options.num_threads
                    : static_cast<int>(ThreadPool::DefaultThreadCount());
  if (workers < 1) workers = 1;
  context->num_workers = workers;
  context->pool =
      (options.enable_parallel && workers > 1) ? ThreadPool::Global()
                                               : nullptr;
}

}  // namespace

Result<PhysicalOpPtr> CreatePhysicalPlan(
    const LogicalOpPtr& plan, ExecContext* context,
    const PhysicalPlannerOptions& options) {
  ConfigureContext(context, options);
  PlannerImpl planner(context, options);
  return planner.Lower(plan);
}

Result<PhysicalOpPtr> CreateRowIdScan(std::shared_ptr<Table> table,
                                      ExprPtr predicate, ExecContext* context,
                                      const PhysicalPlannerOptions& options) {
  ConfigureContext(context, options);
  LogicalScan scan(std::move(table), "");
  scan.set_pushed_predicate(std::move(predicate));
  PlannerImpl planner(context, options);
  return planner.LowerScan(scan, /*emit_row_ids=*/true);
}

}  // namespace agora
