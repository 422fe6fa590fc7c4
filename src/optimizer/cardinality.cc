#include "optimizer/cardinality.h"

#include <algorithm>
#include <cmath>

#include "expr/expr_rewrite.h"

namespace agora {

namespace {

constexpr double kDefaultEq = 0.1;      // equality, no stats
constexpr double kDefaultRange = 1.0 / 3.0;
constexpr double kDefaultLike = 0.1;
constexpr double kDefaultOther = 0.25;

}  // namespace

double CardinalityEstimator::ConjunctSelectivity(
    const ExprPtr& conjunct, const ColumnStatsFn& stats_for_column) const {
  switch (conjunct->kind()) {
    case ExprKind::kComparison: {
      std::optional<ColumnLiteral> m = MatchColumnLiteral(*conjunct);
      if (!m.has_value()) return kDefaultOther;
      const ColumnStats* cs =
          stats_for_column ? stats_for_column(m->column->index()) : nullptr;
      const Value& literal = *m->literal;
      switch (m->op) {
        case CompareOp::kEq:
          if (cs != nullptr && cs->ndv > 0) {
            return 1.0 / static_cast<double>(cs->ndv);
          }
          return kDefaultEq;
        case CompareOp::kNe:
          if (cs != nullptr && cs->ndv > 0) {
            return 1.0 - 1.0 / static_cast<double>(cs->ndv);
          }
          return 1.0 - kDefaultEq;
        default: {
          // Range: interpolate within [min, max] when stats exist.
          if (cs != nullptr && cs->has_minmax && cs->max > cs->min &&
              !literal.is_null() && literal.type() != TypeId::kString) {
            double v = literal.AsDouble();
            double width = cs->max - cs->min;
            double frac_below =
                std::clamp((v - cs->min) / width, 0.0, 1.0);
            if (m->op == CompareOp::kLt || m->op == CompareOp::kLe) {
              return std::max(frac_below, 1e-4);
            }
            return std::max(1.0 - frac_below, 1e-4);
          }
          return kDefaultRange;
        }
      }
    }
    case ExprKind::kLogical: {
      const auto* n = static_cast<const LogicalExpr*>(conjunct.get());
      if (n->op() == LogicalOp::kOr) {
        // Union bound with independence assumption.
        double pass = 1.0;
        for (const auto& c : n->children()) {
          pass *= 1.0 - EstimateSelectivity(c, stats_for_column);
        }
        return 1.0 - pass;
      }
      // Nested AND (shouldn't appear post-split, but handle it).
      double sel = 1.0;
      for (const auto& c : n->children()) {
        sel *= EstimateSelectivity(c, stats_for_column);
      }
      return sel;
    }
    case ExprKind::kNot: {
      const auto* n = static_cast<const NotExpr*>(conjunct.get());
      return 1.0 - EstimateSelectivity(n->child(), stats_for_column);
    }
    case ExprKind::kLike:
      return kDefaultLike;
    case ExprKind::kInList: {
      const auto* n = static_cast<const InListExpr*>(conjunct.get());
      const Expr* child = n->child().get();
      if (child->kind() == ExprKind::kColumnRef && stats_for_column) {
        const ColumnStats* cs = stats_for_column(
            static_cast<const ColumnRefExpr*>(child)->index());
        if (cs != nullptr && cs->ndv > 0) {
          double sel = static_cast<double>(n->values().size()) /
                       static_cast<double>(cs->ndv);
          return std::min(sel, 1.0);
        }
      }
      return std::min(kDefaultEq * static_cast<double>(n->values().size()),
                      1.0);
    }
    case ExprKind::kIsNull: {
      const auto* n = static_cast<const IsNullExpr*>(conjunct.get());
      double null_frac = 0.05;
      const Expr* child = n->child().get();
      if (child->kind() == ExprKind::kColumnRef && stats_for_column) {
        const ColumnStats* cs = stats_for_column(
            static_cast<const ColumnRefExpr*>(child)->index());
        if (cs != nullptr) {
          int64_t total = cs->ndv + cs->null_count;  // rough
          if (total > 0) {
            null_frac = static_cast<double>(cs->null_count) /
                        static_cast<double>(std::max<int64_t>(total, 1));
          }
        }
      }
      return n->negated() ? 1.0 - null_frac : null_frac;
    }
    case ExprKind::kLiteral: {
      const auto* n = static_cast<const LiteralExpr*>(conjunct.get());
      if (n->value().type() == TypeId::kBool && !n->value().is_null()) {
        return n->value().bool_value() ? 1.0 : 0.0;
      }
      return kDefaultOther;
    }
    default:
      return kDefaultOther;
  }
}

double CardinalityEstimator::EstimateSelectivity(
    const ExprPtr& predicate, const ColumnStatsFn& stats_for_column) const {
  if (predicate == nullptr) return 1.0;
  double sel = 1.0;
  for (const ExprPtr& conjunct : SplitConjuncts(predicate)) {
    sel *= ConjunctSelectivity(conjunct, stats_for_column);
  }
  return std::clamp(sel, 1e-8, 1.0);
}

double CardinalityEstimator::EstimateScanRows(const LogicalScan& scan) const {
  std::shared_ptr<const TableStats> stats_snapshot = cache_->Get(*scan.table());
  const TableStats& stats = *stats_snapshot;
  double rows = static_cast<double>(stats.row_count);
  if (scan.pushed_predicate() != nullptr) {
    const std::vector<size_t>& projection = scan.projection();
    auto column_stats = [&](size_t index) -> const ColumnStats* {
      size_t base = projection.empty() ? index : projection[index];
      return base < stats.columns.size() ? &stats.columns[base] : nullptr;
    };
    rows *= EstimateSelectivity(scan.pushed_predicate(), column_stats);
  }
  return std::max(rows, 1.0);
}

double CardinalityEstimator::EstimateRows(const LogicalOperator& node) const {
  switch (node.kind()) {
    case LogicalOpKind::kScan:
      return EstimateScanRows(static_cast<const LogicalScan&>(node));
    case LogicalOpKind::kFilter: {
      const auto& f = static_cast<const LogicalFilter&>(node);
      double child = EstimateRows(*f.children()[0]);
      return std::max(child * EstimateSelectivity(f.predicate(), nullptr),
                      1.0);
    }
    case LogicalOpKind::kProject:
      return EstimateRows(*node.children()[0]);
    case LogicalOpKind::kJoin: {
      const auto& j = static_cast<const LogicalJoin&>(node);
      double left = EstimateRows(*j.children()[0]);
      double right = EstimateRows(*j.children()[1]);
      double sel = j.condition() == nullptr
                       ? 1.0
                       : EstimateSelectivity(j.condition(), nullptr);
      // Equi-joins without stats here default to 1/max-side heuristic.
      if (j.condition() != nullptr && j.join_kind() != LogicalJoin::Kind::kCross) {
        sel = std::min(sel, 1.0 / std::max(std::max(left, right), 1.0));
      }
      return std::max(left * right * sel, 1.0);
    }
    case LogicalOpKind::kAggregate: {
      const auto& a = static_cast<const LogicalAggregate&>(node);
      double child = EstimateRows(*a.children()[0]);
      if (a.group_by().empty()) return 1.0;
      // Heuristic: sqrt shrinkage per grouping level.
      return std::max(std::sqrt(child), 1.0);
    }
    case LogicalOpKind::kSort:
    case LogicalOpKind::kDistinct:
      return EstimateRows(*node.children()[0]);
    case LogicalOpKind::kUnion: {
      double total = 0;
      for (const auto& child : node.children()) {
        total += EstimateRows(*child);
      }
      return total;
    }
    case LogicalOpKind::kLimit: {
      const auto& l = static_cast<const LogicalLimit&>(node);
      double child = EstimateRows(*l.children()[0]);
      if (l.limit() < 0) return child;
      return std::min(child, static_cast<double>(l.limit()));
    }
    case LogicalOpKind::kTextMatch:
    case LogicalOpKind::kVectorTopK:
      // Ranking leaves execute inside their ScoreFusion parent; their
      // contribution is bounded by its k.
      return 1.0;
    case LogicalOpKind::kScoreFusion: {
      const auto& f = static_cast<const LogicalScoreFusion&>(node);
      return static_cast<double>(std::max<size_t>(f.k(), 1));
    }
  }
  return 1.0;
}

}  // namespace agora
