#include <algorithm>
#include <set>

#include "expr/expr_rewrite.h"
#include "optimizer/optimizer.h"

namespace agora {
namespace optimizer_internal {

namespace {

/// Rebuilds `node` with new children, preserving its own payload.
LogicalOpPtr WithChildren(const LogicalOpPtr& node,
                          std::vector<LogicalOpPtr> children) {
  switch (node->kind()) {
    case LogicalOpKind::kScan:
      return node;
    case LogicalOpKind::kFilter: {
      const auto& f = static_cast<const LogicalFilter&>(*node);
      return std::make_shared<LogicalFilter>(children[0], f.predicate());
    }
    case LogicalOpKind::kProject: {
      const auto& p = static_cast<const LogicalProject&>(*node);
      std::vector<std::string> names;
      for (const Field& field : p.schema().fields()) names.push_back(field.name);
      return std::make_shared<LogicalProject>(children[0], p.exprs(),
                                              std::move(names));
    }
    case LogicalOpKind::kJoin: {
      const auto& j = static_cast<const LogicalJoin&>(*node);
      return std::make_shared<LogicalJoin>(j.join_kind(), children[0],
                                           children[1], j.condition());
    }
    case LogicalOpKind::kAggregate: {
      const auto& a = static_cast<const LogicalAggregate&>(*node);
      std::vector<std::string> group_names;
      for (size_t i = 0; i < a.group_by().size(); ++i) {
        group_names.push_back(a.schema().field(i).name);
      }
      return std::make_shared<LogicalAggregate>(children[0], a.group_by(),
                                                a.aggregates(),
                                                std::move(group_names));
    }
    case LogicalOpKind::kSort: {
      const auto& s = static_cast<const LogicalSort&>(*node);
      return std::make_shared<LogicalSort>(children[0], s.keys());
    }
    case LogicalOpKind::kLimit: {
      const auto& l = static_cast<const LogicalLimit&>(*node);
      return std::make_shared<LogicalLimit>(children[0], l.limit(),
                                            l.offset());
    }
    case LogicalOpKind::kDistinct:
      return std::make_shared<LogicalDistinct>(children[0]);
    case LogicalOpKind::kUnion:
      return std::make_shared<LogicalUnion>(std::move(children));
    case LogicalOpKind::kTextMatch:
    case LogicalOpKind::kVectorTopK:
    case LogicalOpKind::kScoreFusion:
      // Hybrid-search subtrees are opaque to the rewriting rules; the
      // dedicated strategy pass mutates them in place.
      return node;
  }
  return node;
}

}  // namespace

LogicalOpPtr FoldPlanConstants(const LogicalOpPtr& node) {
  std::vector<LogicalOpPtr> children;
  for (const auto& child : node->children()) {
    children.push_back(FoldPlanConstants(child));
  }
  switch (node->kind()) {
    case LogicalOpKind::kFilter: {
      const auto& f = static_cast<const LogicalFilter&>(*node);
      auto rebuilt = std::make_shared<LogicalFilter>(
          children[0], FoldConstants(f.predicate()));
      return rebuilt;
    }
    case LogicalOpKind::kProject: {
      const auto& p = static_cast<const LogicalProject&>(*node);
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      for (size_t i = 0; i < p.exprs().size(); ++i) {
        exprs.push_back(FoldConstants(p.exprs()[i]));
        names.push_back(p.schema().field(i).name);
      }
      return std::make_shared<LogicalProject>(children[0], std::move(exprs),
                                              std::move(names));
    }
    case LogicalOpKind::kJoin: {
      const auto& j = static_cast<const LogicalJoin&>(*node);
      ExprPtr cond = j.condition() == nullptr ? nullptr
                                              : FoldConstants(j.condition());
      return std::make_shared<LogicalJoin>(j.join_kind(), children[0],
                                           children[1], std::move(cond));
    }
    default:
      return children.empty() ? node : WithChildren(node, std::move(children));
  }
}

LogicalOpPtr PushDownPredicates(const LogicalOpPtr& node,
                                std::vector<ExprPtr> inherited) {
  switch (node->kind()) {
    case LogicalOpKind::kFilter: {
      const auto& f = static_cast<const LogicalFilter&>(*node);
      for (ExprPtr& conjunct : SplitConjuncts(f.predicate())) {
        inherited.push_back(std::move(conjunct));
      }
      // The filter node dissolves; its conjuncts continue downward.
      return PushDownPredicates(f.children()[0], std::move(inherited));
    }
    case LogicalOpKind::kJoin: {
      const auto& j = static_cast<const LogicalJoin&>(*node);
      size_t left_arity = j.children()[0]->schema().num_fields();
      size_t total = j.schema().num_fields();
      bool inner_like = j.join_kind() == LogicalJoin::Kind::kInner ||
                        j.join_kind() == LogicalJoin::Kind::kCross;

      std::vector<ExprPtr> pool = std::move(inherited);
      if (inner_like && j.condition() != nullptr) {
        for (ExprPtr& conjunct : SplitConjuncts(j.condition())) {
          pool.push_back(std::move(conjunct));
        }
      }

      std::vector<ExprPtr> left_preds, right_preds, stay;
      for (ExprPtr& p : pool) {
        if (RefsWithin(p, 0, left_arity)) {
          left_preds.push_back(std::move(p));
        } else if (RefsWithin(p, left_arity, total) && inner_like) {
          right_preds.push_back(RemapColumns(
              p, [left_arity](size_t i) { return i - left_arity; }));
        } else if (RefsWithin(p, left_arity, total) &&
                   j.join_kind() == LogicalJoin::Kind::kLeft) {
          // Right-side predicates cannot move below a left join (they
          // would drop NULL-padded rows differently); keep above.
          stay.push_back(std::move(p));
        } else {
          stay.push_back(std::move(p));
        }
      }

      LogicalOpPtr new_left =
          PushDownPredicates(j.children()[0], std::move(left_preds));
      LogicalOpPtr new_right =
          PushDownPredicates(j.children()[1], std::move(right_preds));

      if (inner_like) {
        // Conjuncts spanning both sides become the join condition; a cross
        // join acquiring a condition becomes an inner join.
        ExprPtr cond = CombineConjuncts(std::move(stay));
        LogicalJoin::Kind kind = cond == nullptr
                                     ? LogicalJoin::Kind::kCross
                                     : LogicalJoin::Kind::kInner;
        return std::make_shared<LogicalJoin>(kind, std::move(new_left),
                                             std::move(new_right),
                                             std::move(cond));
      }
      // Left join: condition stays; undistributed predicates re-filter
      // above the join.
      LogicalOpPtr rebuilt = std::make_shared<LogicalJoin>(
          j.join_kind(), std::move(new_left), std::move(new_right),
          j.condition());
      if (!stay.empty()) {
        rebuilt = std::make_shared<LogicalFilter>(
            std::move(rebuilt), CombineConjuncts(std::move(stay)));
      }
      return rebuilt;
    }
    case LogicalOpKind::kScan: {
      const auto& s = static_cast<const LogicalScan&>(*node);
      auto scan = std::make_shared<LogicalScan>(s.table(), s.alias());
      if (!s.projection().empty()) scan->SetProjection(s.projection());
      std::vector<ExprPtr> all = std::move(inherited);
      if (s.pushed_predicate() != nullptr) {
        for (ExprPtr& conjunct : SplitConjuncts(s.pushed_predicate())) {
          all.push_back(std::move(conjunct));
        }
      }
      scan->set_pushed_predicate(CombineConjuncts(std::move(all)));
      return scan;
    }
    default: {
      // Opaque boundary (project/aggregate/sort/limit/distinct): recurse
      // with nothing, then re-apply the inherited predicates here.
      std::vector<LogicalOpPtr> children;
      for (const auto& child : node->children()) {
        children.push_back(PushDownPredicates(child, {}));
      }
      LogicalOpPtr rebuilt = WithChildren(node, std::move(children));
      if (!inherited.empty()) {
        rebuilt = std::make_shared<LogicalFilter>(
            std::move(rebuilt), CombineConjuncts(std::move(inherited)));
      }
      return rebuilt;
    }
  }
}

namespace {

/// Result of pruning one subtree: the rebuilt node plus a mapping from old
/// output positions to new ones (-1 = dropped).
struct PruneResult {
  LogicalOpPtr node;
  std::vector<int> mapping;
};

using Required = std::set<size_t>;

void AddRefs(const ExprPtr& e, Required* req) {
  std::vector<size_t> refs;
  e->CollectColumnRefs(&refs);
  req->insert(refs.begin(), refs.end());
}

ExprPtr RemapByMapping(const ExprPtr& e, const std::vector<int>& mapping) {
  return RemapColumns(e, [&mapping](size_t i) {
    AGORA_CHECK(i < mapping.size() && mapping[i] >= 0)
        << "pruned column still referenced";
    return static_cast<size_t>(mapping[i]);
  });
}

PruneResult Prune(const LogicalOpPtr& node, const Required& required);

PruneResult PruneScan(const LogicalScan& scan, const Required& required) {
  Required needed = required;
  if (scan.pushed_predicate() != nullptr) {
    AddRefs(scan.pushed_predicate(), &needed);
  }
  size_t old_arity = scan.schema().num_fields();
  std::vector<int> mapping(old_arity, -1);
  std::vector<size_t> base_cols;
  for (size_t old_pos : needed) {
    if (old_pos >= old_arity) continue;
    mapping[old_pos] = static_cast<int>(base_cols.size());
    base_cols.push_back(scan.projection().empty()
                            ? old_pos
                            : scan.projection()[old_pos]);
  }
  if (base_cols.empty()) {
    // Keep at least one column so the row count survives.
    mapping[0] = 0;
    base_cols.push_back(scan.projection().empty() ? 0 : scan.projection()[0]);
  }
  auto rebuilt = std::make_shared<LogicalScan>(scan.table(), scan.alias());
  rebuilt->SetProjection(std::move(base_cols));
  if (scan.pushed_predicate() != nullptr) {
    rebuilt->set_pushed_predicate(
        RemapByMapping(scan.pushed_predicate(), mapping));
  }
  return {std::move(rebuilt), std::move(mapping)};
}

PruneResult Prune(const LogicalOpPtr& node, const Required& required) {
  switch (node->kind()) {
    case LogicalOpKind::kScan:
      return PruneScan(static_cast<const LogicalScan&>(*node), required);
    case LogicalOpKind::kFilter: {
      const auto& f = static_cast<const LogicalFilter&>(*node);
      Required child_req = required;
      AddRefs(f.predicate(), &child_req);
      PruneResult child = Prune(f.children()[0], child_req);
      ExprPtr pred = RemapByMapping(f.predicate(), child.mapping);
      return {std::make_shared<LogicalFilter>(child.node, std::move(pred)),
              child.mapping};
    }
    case LogicalOpKind::kProject: {
      const auto& p = static_cast<const LogicalProject&>(*node);
      Required child_req;
      std::vector<int> mapping(p.exprs().size(), -1);
      std::vector<size_t> kept;
      for (size_t i = 0; i < p.exprs().size(); ++i) {
        if (required.count(i) > 0) {
          mapping[i] = static_cast<int>(kept.size());
          kept.push_back(i);
          AddRefs(p.exprs()[i], &child_req);
        }
      }
      if (kept.empty() && !p.exprs().empty()) {
        mapping[0] = 0;
        kept.push_back(0);
        AddRefs(p.exprs()[0], &child_req);
      }
      PruneResult child = Prune(p.children()[0], child_req);
      std::vector<ExprPtr> exprs;
      std::vector<std::string> names;
      for (size_t i : kept) {
        exprs.push_back(RemapByMapping(p.exprs()[i], child.mapping));
        names.push_back(p.schema().field(i).name);
      }
      return {std::make_shared<LogicalProject>(child.node, std::move(exprs),
                                               std::move(names)),
              std::move(mapping)};
    }
    case LogicalOpKind::kJoin: {
      // The children keep what the parents and the condition read; the
      // join itself emits only what the parents read, so key-only and
      // condition-only columns are never gathered into its output.
      const auto& j = static_cast<const LogicalJoin&>(*node);
      AGORA_DCHECK(j.projection().empty());  // pruning runs once
      size_t left_arity = j.children()[0]->schema().num_fields();
      size_t total = j.schema().num_fields();
      Required all = required;
      if (j.condition() != nullptr) AddRefs(j.condition(), &all);
      Required left_req, right_req;
      for (size_t i : all) {
        if (i < left_arity) {
          left_req.insert(i);
        } else if (i < total) {
          right_req.insert(i - left_arity);
        }
      }
      PruneResult left = Prune(j.children()[0], left_req);
      PruneResult right = Prune(j.children()[1], right_req);
      size_t new_left_arity = left.node->schema().num_fields();
      std::vector<int> inner(total, -1);
      for (size_t i = 0; i < left_arity; ++i) inner[i] = left.mapping[i];
      for (size_t i = left_arity; i < total; ++i) {
        int m = right.mapping[i - left_arity];
        inner[i] = m < 0 ? -1 : m + static_cast<int>(new_left_arity);
      }
      ExprPtr cond = j.condition() == nullptr
                         ? nullptr
                         : RemapByMapping(j.condition(), inner);
      std::vector<int> mapping(total, -1);
      std::vector<size_t> projection;
      for (size_t i : required) {
        if (i >= total) continue;
        mapping[i] = static_cast<int>(projection.size());
        projection.push_back(static_cast<size_t>(inner[i]));
      }
      // Keep at least one column so the row count survives.
      if (projection.empty()) projection.push_back(0);
      auto rebuilt = std::make_shared<LogicalJoin>(
          j.join_kind(), left.node, right.node, std::move(cond));
      rebuilt->SetProjection(std::move(projection));
      return {std::move(rebuilt), std::move(mapping)};
    }
    case LogicalOpKind::kAggregate: {
      const auto& a = static_cast<const LogicalAggregate&>(*node);
      size_t ngroups = a.group_by().size();
      Required child_req;
      for (const ExprPtr& g : a.group_by()) AddRefs(g, &child_req);
      std::vector<int> mapping(ngroups + a.aggregates().size(), -1);
      // Group keys are always kept (they define the grouping).
      for (size_t i = 0; i < ngroups; ++i) mapping[i] = static_cast<int>(i);
      std::vector<size_t> kept_aggs;
      for (size_t i = 0; i < a.aggregates().size(); ++i) {
        if (required.count(ngroups + i) > 0) {
          mapping[ngroups + i] =
              static_cast<int>(ngroups + kept_aggs.size());
          kept_aggs.push_back(i);
          if (a.aggregates()[i].arg != nullptr) {
            AddRefs(a.aggregates()[i].arg, &child_req);
          }
        }
      }
      PruneResult child = Prune(a.children()[0], child_req);
      std::vector<ExprPtr> group_by;
      std::vector<std::string> group_names;
      for (size_t i = 0; i < ngroups; ++i) {
        group_by.push_back(RemapByMapping(a.group_by()[i], child.mapping));
        group_names.push_back(a.schema().field(i).name);
      }
      std::vector<AggregateSpec> aggs;
      for (size_t i : kept_aggs) {
        AggregateSpec spec = a.aggregates()[i];
        if (spec.arg != nullptr) {
          spec.arg = RemapByMapping(spec.arg, child.mapping);
        }
        aggs.push_back(std::move(spec));
      }
      return {std::make_shared<LogicalAggregate>(child.node,
                                                 std::move(group_by),
                                                 std::move(aggs),
                                                 std::move(group_names)),
              std::move(mapping)};
    }
    case LogicalOpKind::kSort: {
      const auto& s = static_cast<const LogicalSort&>(*node);
      Required child_req = required;
      for (const SortKey& k : s.keys()) AddRefs(k.expr, &child_req);
      PruneResult child = Prune(s.children()[0], child_req);
      std::vector<SortKey> keys;
      for (const SortKey& k : s.keys()) {
        keys.push_back(SortKey{RemapByMapping(k.expr, child.mapping),
                               k.descending});
      }
      return {std::make_shared<LogicalSort>(child.node, std::move(keys)),
              child.mapping};
    }
    case LogicalOpKind::kLimit: {
      const auto& l = static_cast<const LogicalLimit&>(*node);
      PruneResult child = Prune(l.children()[0], required);
      return {std::make_shared<LogicalLimit>(child.node, l.limit(),
                                             l.offset()),
              child.mapping};
    }
    case LogicalOpKind::kDistinct: {
      // DISTINCT deduplicates over all columns; dropping any would change
      // results, so require everything below.
      Required all;
      for (size_t i = 0; i < node->children()[0]->schema().num_fields();
           ++i) {
        all.insert(i);
      }
      PruneResult child = Prune(node->children()[0], all);
      return {std::make_shared<LogicalDistinct>(child.node), child.mapping};
    }
    case LogicalOpKind::kUnion: {
      // Children must keep identical schemas; prune nothing here.
      Required all;
      for (size_t i = 0; i < node->schema().num_fields(); ++i) {
        all.insert(i);
      }
      std::vector<LogicalOpPtr> children;
      std::vector<int> mapping;
      for (const auto& c : node->children()) {
        PruneResult pruned = Prune(c, all);
        children.push_back(pruned.node);
        mapping = pruned.mapping;
      }
      return {std::make_shared<LogicalUnion>(std::move(children)), mapping};
    }
    case LogicalOpKind::kTextMatch:
    case LogicalOpKind::kVectorTopK:
    case LogicalOpKind::kScoreFusion: {
      // Hybrid operators produce a fixed schema (rowid + attrs + scores);
      // keep every column and prune nothing inside.
      std::vector<int> mapping(node->schema().num_fields());
      for (size_t i = 0; i < mapping.size(); ++i) {
        mapping[i] = static_cast<int>(i);
      }
      return {node, std::move(mapping)};
    }
  }
  AGORA_CHECK(false) << "unhandled node in Prune";
  return {node, {}};
}

}  // namespace

LogicalOpPtr PruneColumns(const LogicalOpPtr& root) {
  Required all;
  for (size_t i = 0; i < root->schema().num_fields(); ++i) all.insert(i);
  PruneResult result = Prune(root, all);
  // The root keeps all columns by construction, so the plan's output
  // schema is unchanged.
  return result.node;
}

}  // namespace optimizer_internal
}  // namespace agora
