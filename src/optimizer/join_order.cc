#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "common/verify.h"
#include "expr/expr_rewrite.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_verify.h"

namespace agora {
namespace optimizer_internal {

namespace {

/// A maximal region of inner/cross joins. Leaves keep their original
/// left-to-right order; `offsets[i]` is leaf i's first column in the
/// region's (original) output schema. Conjuncts are bound against that
/// global schema.
struct JoinRegion {
  std::vector<LogicalOpPtr> leaves;
  std::vector<size_t> offsets;
  std::vector<ExprPtr> conjuncts;
  size_t total_arity = 0;
};

/// DP table entry for a leaf subset.
struct DpEntry {
  double cost = 0;
  double rows = 0;
  uint32_t left_mask = 0;   // 0 => leaf
  uint32_t right_mask = 0;
  int leaf = -1;
};

class JoinOrderer {
 public:
  JoinOrderer(CardinalityEstimator* estimator) : estimator_(estimator) {}

  LogicalOpPtr Run(const LogicalOpPtr& node) {
    if (node->kind() != LogicalOpKind::kJoin) {
      return RecurseChildren(node);
    }
    const auto& join = static_cast<const LogicalJoin&>(*node);
    if (join.join_kind() == LogicalJoin::Kind::kLeft) {
      return RecurseChildren(node);
    }

    JoinRegion region;
    CollectRegion(node, &region);
    if (region.leaves.size() > 20) {
      return RecurseChildren(node);  // out of DP range; leave as-is
    }
    if (region.leaves.size() < 3) {
      // Nothing to reorder; still rebuild (children were recursed).
      return RebuildOriginal(region);
    }
    return Order(region, node->schema());
  }

 private:
  LogicalOpPtr RecurseChildren(const LogicalOpPtr& node) {
    if (node->children().empty()) return node;
    // Rebuild via the generic child-replacement used by the other passes:
    // recreate the node with recursed children.
    std::vector<LogicalOpPtr> children;
    for (const auto& child : node->children()) children.push_back(Run(child));
    switch (node->kind()) {
      case LogicalOpKind::kFilter: {
        const auto& f = static_cast<const LogicalFilter&>(*node);
        return std::make_shared<LogicalFilter>(children[0], f.predicate());
      }
      case LogicalOpKind::kProject: {
        const auto& p = static_cast<const LogicalProject&>(*node);
        std::vector<std::string> names;
        for (const Field& field : p.schema().fields()) {
          names.push_back(field.name);
        }
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
      case LogicalOpKind::kScan:
        return node;
      case LogicalOpKind::kTextMatch:
      case LogicalOpKind::kVectorTopK:
      case LogicalOpKind::kScoreFusion:
        // Hybrid subtrees contain no joins; keep them intact.
        return node;
    }
    return node;
  }

  /// DFS that flattens inner/cross joins; other nodes become leaves
  /// (recursively optimized). Join conditions are rebased onto the global
  /// region schema by adding the subtree's start offset.
  size_t CollectRegion(const LogicalOpPtr& node, JoinRegion* region) {
    if (node->kind() == LogicalOpKind::kJoin) {
      const auto& j = static_cast<const LogicalJoin&>(*node);
      if (j.join_kind() != LogicalJoin::Kind::kLeft) {
        size_t start = region->total_arity;
        CollectRegion(j.children()[0], region);
        CollectRegion(j.children()[1], region);
        if (j.condition() != nullptr) {
          for (ExprPtr& conjunct : SplitConjuncts(j.condition())) {
            region->conjuncts.push_back(RemapColumns(
                conjunct, [start](size_t i) { return i + start; }));
          }
        }
        return region->total_arity - start;
      }
    }
    LogicalOpPtr leaf = Run(node);  // optimize nested regions
    size_t arity = leaf->schema().num_fields();
    region->offsets.push_back(region->total_arity);
    region->leaves.push_back(std::move(leaf));
    region->total_arity += arity;
    return arity;
  }

  /// Rebuilds the original shape (used when < 3 leaves): left-deep over
  /// leaves in order with all conjuncts at the top join.
  LogicalOpPtr RebuildOriginal(const JoinRegion& region) {
    if (region.leaves.size() == 1) {
      ExprPtr cond = CombineConjuncts(region.conjuncts);
      LogicalOpPtr out = region.leaves[0];
      if (cond != nullptr) {
        out = std::make_shared<LogicalFilter>(std::move(out), cond);
      }
      return out;
    }
    ExprPtr cond = CombineConjuncts(region.conjuncts);
    LogicalJoin::Kind kind = cond == nullptr ? LogicalJoin::Kind::kCross
                                             : LogicalJoin::Kind::kInner;
    return std::make_shared<LogicalJoin>(kind, region.leaves[0],
                                         region.leaves[1], std::move(cond));
  }

  /// Which leaves a global column belongs to.
  int LeafOfColumn(const JoinRegion& region, size_t column) const {
    for (size_t i = region.leaves.size(); i-- > 0;) {
      if (column >= region.offsets[i]) return static_cast<int>(i);
    }
    return 0;
  }

  uint32_t ConjunctLeafMask(const JoinRegion& region,
                            const ExprPtr& conjunct) const {
    std::vector<size_t> refs;
    conjunct->CollectColumnRefs(&refs);
    uint32_t mask = 0;
    for (size_t r : refs) {
      mask |= 1u << LeafOfColumn(region, r);
    }
    return mask;
  }

  /// NDV of a global column, using base-table stats for scan leaves and
  /// the leaf cardinality otherwise.
  double ColumnNdv(const JoinRegion& region, size_t column,
                   const std::vector<double>& leaf_rows) const {
    int leaf_idx = LeafOfColumn(region, column);
    const LogicalOpPtr& leaf = region.leaves[static_cast<size_t>(leaf_idx)];
    double fallback = leaf_rows[static_cast<size_t>(leaf_idx)];
    if (leaf->kind() != LogicalOpKind::kScan) return fallback;
    const auto& scan = static_cast<const LogicalScan&>(*leaf);
    size_t local = column - region.offsets[static_cast<size_t>(leaf_idx)];
    size_t base = scan.projection().empty() ? local
                                            : scan.projection()[local];
    std::shared_ptr<const TableStats> stats =
        estimator_->stats_cache()->Get(*scan.table());
    if (base >= stats->columns.size()) return fallback;
    double ndv = static_cast<double>(stats->columns[base].ndv);
    return std::max(1.0, std::min(ndv, fallback));
  }

  /// Selectivity of one join conjunct: 1/max(ndv) for equi predicates over
  /// column pairs, coarse defaults otherwise.
  double ConjunctSelectivity(const JoinRegion& region, const ExprPtr& c,
                             const std::vector<double>& leaf_rows) const {
    if (c->kind() == ExprKind::kComparison) {
      const auto* cmp = static_cast<const ComparisonExpr*>(c.get());
      if (cmp->op() == CompareOp::kEq &&
          cmp->left()->kind() == ExprKind::kColumnRef &&
          cmp->right()->kind() == ExprKind::kColumnRef) {
        size_t lc = static_cast<const ColumnRefExpr*>(cmp->left().get())
                        ->index();
        size_t rc = static_cast<const ColumnRefExpr*>(cmp->right().get())
                        ->index();
        double ndv = std::max(ColumnNdv(region, lc, leaf_rows),
                              ColumnNdv(region, rc, leaf_rows));
        return 1.0 / std::max(ndv, 1.0);
      }
      return 1.0 / 3.0;
    }
    return 0.25;
  }

  LogicalOpPtr Order(const JoinRegion& region, const Schema& original_schema) {
    size_t n = region.leaves.size();
    std::vector<double> leaf_rows(n);
    for (size_t i = 0; i < n; ++i) {
      leaf_rows[i] = estimator_->EstimateRows(*region.leaves[i]);
    }
    std::vector<uint32_t> conj_masks;
    std::vector<double> conj_sel;
    for (const ExprPtr& c : region.conjuncts) {
      conj_masks.push_back(ConjunctLeafMask(region, c));
      conj_sel.push_back(ConjunctSelectivity(region, c, leaf_rows));
    }

    if (n <= 12) {
      return DpOrder(region, leaf_rows, conj_masks, conj_sel,
                     original_schema);
    }
    return GreedyOrder(region, leaf_rows, conj_masks, conj_sel,
                       original_schema);
  }

  double JoinSelectivity(uint32_t left, uint32_t right,
                         const std::vector<uint32_t>& conj_masks,
                         const std::vector<double>& conj_sel) const {
    uint32_t mask = left | right;
    double sel = 1.0;
    for (size_t c = 0; c < conj_masks.size(); ++c) {
      uint32_t m = conj_masks[c];
      // Applied at this join: covered now, not by either side alone.
      if ((m & ~mask) == 0 && (m & ~left) != 0 && (m & ~right) != 0) {
        sel *= conj_sel[c];
      }
    }
    return sel;
  }

  LogicalOpPtr DpOrder(const JoinRegion& region,
                       const std::vector<double>& leaf_rows,
                       const std::vector<uint32_t>& conj_masks,
                       const std::vector<double>& conj_sel,
                       const Schema& original_schema) {
    size_t n = region.leaves.size();
    uint32_t full = (1u << n) - 1;
    std::vector<DpEntry> dp(full + 1);
    std::vector<bool> present(full + 1, false);
    for (size_t i = 0; i < n; ++i) {
      uint32_t m = 1u << i;
      dp[m] = DpEntry{0.0, leaf_rows[i], 0, 0, static_cast<int>(i)};
      present[m] = true;
    }

    for (uint32_t mask = 1; mask <= full; ++mask) {
      if (__builtin_popcount(mask) < 2) continue;
      bool found_connected = false;
      DpEntry best;
      best.cost = std::numeric_limits<double>::infinity();
      // Two passes: connected splits first; cross products only if no
      // connected split exists.
      for (int pass = 0; pass < 2 && !found_connected; ++pass) {
        for (uint32_t sub = (mask - 1) & mask; sub != 0;
             sub = (sub - 1) & mask) {
          uint32_t other = mask ^ sub;
          if (sub > other) continue;  // symmetric halves
          if (!present[sub] || !present[other]) continue;
          double sel = JoinSelectivity(sub, other, conj_masks, conj_sel);
          bool connected = sel < 1.0;
          if (pass == 0 && !connected) continue;
          double rows = dp[sub].rows * dp[other].rows * sel;
          double cost = dp[sub].cost + dp[other].cost + rows +
                        dp[sub].rows + dp[other].rows;
          if (cost < best.cost) {
            best = DpEntry{cost, rows, sub, other, -1};
          }
          if (pass == 0) found_connected = connected || found_connected;
        }
        if (pass == 0 && best.cost <
                             std::numeric_limits<double>::infinity()) {
          break;  // found at least one connected split
        }
      }
      if (best.cost < std::numeric_limits<double>::infinity()) {
        dp[mask] = best;
        present[mask] = true;
      }
    }
    AGORA_CHECK(present[full]) << "join DP failed to cover all relations";
    std::vector<size_t> mapping;
    LogicalOpPtr plan =
        BuildFromDp(region, dp, full, conj_masks, &mapping);
    return RestoreOrder(std::move(plan), mapping, original_schema);
  }

  /// Rebuilds the plan for `mask` and appends the global column ids of its
  /// output to `mapping`.
  LogicalOpPtr BuildFromDp(const JoinRegion& region,
                           const std::vector<DpEntry>& dp, uint32_t mask,
                           const std::vector<uint32_t>& conj_masks,
                           std::vector<size_t>* mapping) {
    const DpEntry& e = dp[mask];
    if (e.leaf >= 0) {
      size_t i = static_cast<size_t>(e.leaf);
      size_t arity = region.leaves[i]->schema().num_fields();
      for (size_t c = 0; c < arity; ++c) {
        mapping->push_back(region.offsets[i] + c);
      }
      return region.leaves[i];
    }
    // Put the smaller side on the right: the hash join builds on the
    // right child.
    uint32_t lm = e.left_mask, rm = e.right_mask;
    if (dp[lm].rows < dp[rm].rows) std::swap(lm, rm);

    std::vector<size_t> left_map, right_map;
    LogicalOpPtr left = BuildFromDp(region, dp, lm, conj_masks, &left_map);
    LogicalOpPtr right = BuildFromDp(region, dp, rm, conj_masks, &right_map);

    std::vector<size_t> combined = left_map;
    combined.insert(combined.end(), right_map.begin(), right_map.end());
    std::unordered_map<size_t, size_t> global_to_local;
    for (size_t i = 0; i < combined.size(); ++i) {
      global_to_local[combined[i]] = i;
    }

    std::vector<ExprPtr> conds;
    for (size_t c = 0; c < region.conjuncts.size(); ++c) {
      uint32_t m = conj_masks[c];
      if ((m & ~mask) == 0 && (m & ~lm) != 0 && (m & ~rm) != 0) {
        conds.push_back(RemapColumns(
            region.conjuncts[c], [&global_to_local](size_t g) {
              auto it = global_to_local.find(g);
              AGORA_CHECK(it != global_to_local.end());
              return it->second;
            }));
      }
    }
    ExprPtr cond = CombineConjuncts(std::move(conds));
    LogicalJoin::Kind kind = cond == nullptr ? LogicalJoin::Kind::kCross
                                             : LogicalJoin::Kind::kInner;
    mapping->insert(mapping->end(), combined.begin(), combined.end());
    return std::make_shared<LogicalJoin>(kind, std::move(left),
                                         std::move(right), std::move(cond));
  }

  /// Greedy fallback for very wide regions: repeatedly joins the pair with
  /// the smallest estimated output.
  LogicalOpPtr GreedyOrder(const JoinRegion& region,
                           const std::vector<double>& leaf_rows,
                           const std::vector<uint32_t>& conj_masks,
                           const std::vector<double>& conj_sel,
                           const Schema& original_schema) {
    struct Part {
      LogicalOpPtr node;
      uint32_t mask;
      double rows;
      std::vector<size_t> mapping;
    };
    std::vector<Part> parts;
    for (size_t i = 0; i < region.leaves.size(); ++i) {
      std::vector<size_t> map;
      size_t arity = region.leaves[i]->schema().num_fields();
      for (size_t c = 0; c < arity; ++c) map.push_back(region.offsets[i] + c);
      parts.push_back(
          Part{region.leaves[i], 1u << i, leaf_rows[i], std::move(map)});
    }
    std::vector<bool> applied(region.conjuncts.size(), false);
    while (parts.size() > 1) {
      double best_rows = std::numeric_limits<double>::infinity();
      size_t bi = 0, bj = 1;
      for (size_t i = 0; i < parts.size(); ++i) {
        for (size_t j = i + 1; j < parts.size(); ++j) {
          double sel = JoinSelectivity(parts[i].mask, parts[j].mask,
                                       conj_masks, conj_sel);
          double rows = parts[i].rows * parts[j].rows * sel;
          // Prefer connected pairs strongly.
          if (sel >= 1.0) rows *= 1e6;
          if (rows < best_rows) {
            best_rows = rows;
            bi = i;
            bj = j;
          }
        }
      }
      Part left = std::move(parts[bi]);
      Part right = std::move(parts[bj]);
      parts.erase(parts.begin() + static_cast<long>(bj));
      parts.erase(parts.begin() + static_cast<long>(bi));
      if (left.rows < right.rows) std::swap(left, right);

      uint32_t mask = left.mask | right.mask;
      std::vector<size_t> combined = left.mapping;
      combined.insert(combined.end(), right.mapping.begin(),
                      right.mapping.end());
      std::unordered_map<size_t, size_t> global_to_local;
      for (size_t i = 0; i < combined.size(); ++i) {
        global_to_local[combined[i]] = i;
      }
      std::vector<ExprPtr> conds;
      for (size_t c = 0; c < region.conjuncts.size(); ++c) {
        if (applied[c]) continue;
        if ((conj_masks[c] & ~mask) == 0) {
          applied[c] = true;
          conds.push_back(RemapColumns(
              region.conjuncts[c], [&global_to_local](size_t g) {
                auto it = global_to_local.find(g);
                AGORA_CHECK(it != global_to_local.end());
                return it->second;
              }));
        }
      }
      ExprPtr cond = CombineConjuncts(std::move(conds));
      LogicalJoin::Kind kind = cond == nullptr ? LogicalJoin::Kind::kCross
                                               : LogicalJoin::Kind::kInner;
      double sel = JoinSelectivity(left.mask, right.mask, conj_masks,
                                   conj_sel);
      auto joined = std::make_shared<LogicalJoin>(kind, left.node, right.node,
                                                  std::move(cond));
      parts.push_back(Part{std::move(joined), mask,
                           left.rows * right.rows * sel,
                           std::move(combined)});
    }
    return RestoreOrder(std::move(parts[0].node), parts[0].mapping,
                        original_schema);
  }

  /// Wraps `plan` in a Project restoring the region's original column
  /// order (no-op when already in order).
  LogicalOpPtr RestoreOrder(LogicalOpPtr plan,
                            const std::vector<size_t>& mapping,
                            const Schema& original_schema) {
    bool identity = true;
    for (size_t i = 0; i < mapping.size(); ++i) {
      if (mapping[i] != i) {
        identity = false;
        break;
      }
    }
    if (identity) return plan;
    std::vector<size_t> global_to_local(mapping.size());
    for (size_t local = 0; local < mapping.size(); ++local) {
      global_to_local[mapping[local]] = local;
    }
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (size_t g = 0; g < mapping.size(); ++g) {
      const Field& f = original_schema.field(g);
      exprs.push_back(MakeColumnRef(global_to_local[g], f.type, f.name));
      names.push_back(f.name);
    }
    return std::make_shared<LogicalProject>(std::move(plan),
                                            std::move(exprs),
                                            std::move(names));
  }

  CardinalityEstimator* estimator_;
};

}  // namespace

LogicalOpPtr ReorderJoins(const LogicalOpPtr& node,
                          CardinalityEstimator* estimator) {
  JoinOrderer orderer(estimator);
  return orderer.Run(node);
}

}  // namespace optimizer_internal

Result<LogicalOpPtr> Optimizer::Optimize(LogicalOpPtr plan) {
  using namespace optimizer_internal;
  // AGORA_VERIFY: check plan invariants before the pipeline and after
  // every pass, so a pass that breaks the plan is named in the error
  // instead of surfacing as a downstream crash.
  const bool verify = VerificationEnabled();
  if (verify) {
    AGORA_RETURN_IF_ERROR(VerifyPlan(plan.get(), "before optimization"));
  }
  // Not optional: the executor requires every fusion node to carry a
  // concrete strategy. Only the *rule* (cost vs threshold) is switchable.
  ResolveHybridStrategies(plan, options_, &estimator_);
  if (verify) {
    AGORA_RETURN_IF_ERROR(
        VerifyPlan(plan.get(), "after ResolveHybridStrategies"));
  }
  if (options_.enable_constant_folding) {
    plan = FoldPlanConstants(plan);
    if (verify) {
      AGORA_RETURN_IF_ERROR(VerifyPlan(plan.get(), "after FoldPlanConstants"));
    }
  }
  if (options_.enable_predicate_pushdown) {
    plan = PushDownPredicates(plan, {});
    if (verify) {
      AGORA_RETURN_IF_ERROR(VerifyPlan(plan.get(), "after PushDownPredicates"));
    }
  }
  if (options_.enable_join_reorder) {
    plan = ReorderJoins(plan, &estimator_);
    if (verify) {
      AGORA_RETURN_IF_ERROR(VerifyPlan(plan.get(), "after ReorderJoins"));
    }
  }
  if (options_.enable_projection_pruning) {
    plan = PruneColumns(plan);
    if (verify) {
      AGORA_RETURN_IF_ERROR(VerifyPlan(plan.get(), "after PruneColumns"));
    }
  }
  return plan;
}

}  // namespace agora
