#ifndef AGORA_PLAN_LOGICAL_PLAN_H_
#define AGORA_PLAN_LOGICAL_PLAN_H_

#include <memory>
#include <string>
#include <vector>

#include "expr/expr.h"
#include "search/search_types.h"
#include "storage/table.h"
#include "types/schema.h"
#include "vec/distance.h"

namespace agora {

enum class LogicalOpKind {
  kScan,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
  kDistinct,
  kUnion,
  kTextMatch,    // BM25 keyword ranking leaf (MATCH(col, 'query'))
  kVectorTopK,   // vector k-NN ranking leaf (KNN(col, [...], k))
  kScoreFusion,  // combines ranking leaves + attribute filter into top-k
};

class LogicalOperator;
using LogicalOpPtr = std::shared_ptr<LogicalOperator>;

/// Base class for logical plan nodes. The binder produces a canonical
/// left-deep tree; the optimizer rewrites it in place (nodes are treated as
/// mutable during optimization, immutable afterwards).
class LogicalOperator {
 public:
  LogicalOperator(LogicalOpKind kind, Schema schema)
      : kind_(kind), schema_(std::move(schema)) {}
  virtual ~LogicalOperator() = default;

  LogicalOpKind kind() const { return kind_; }
  const Schema& schema() const { return schema_; }

  const std::vector<LogicalOpPtr>& children() const { return children_; }
  std::vector<LogicalOpPtr>& mutable_children() { return children_; }

  /// One-line description of this node (without children).
  virtual std::string ToString() const = 0;

  /// Indented multi-line rendering of the subtree (EXPLAIN output).
  std::string TreeString(int indent = 0) const;

 protected:
  LogicalOpKind kind_;
  Schema schema_;
  std::vector<LogicalOpPtr> children_;
};

/// Leaf scan over a base table. The optimizer may attach a pushed-down
/// predicate (evaluated during the scan, enabling zone-map block skipping)
/// and/or restrict the emitted columns.
class LogicalScan : public LogicalOperator {
 public:
  LogicalScan(std::shared_ptr<Table> table, std::string alias);

  const std::shared_ptr<Table>& table() const { return table_; }
  const std::string& alias() const { return alias_; }

  /// Predicate over the scan's output schema; null if none. Set by the
  /// predicate-pushdown rule.
  const ExprPtr& pushed_predicate() const { return pushed_predicate_; }
  void set_pushed_predicate(ExprPtr p) { pushed_predicate_ = std::move(p); }

  /// Column indexes of the base table to emit (empty = all). When set, the
  /// scan's schema is the projected subset.
  const std::vector<size_t>& projection() const { return projection_; }
  void SetProjection(std::vector<size_t> columns);

  std::string ToString() const override;

 private:
  std::shared_ptr<Table> table_;
  std::string alias_;
  ExprPtr pushed_predicate_;
  std::vector<size_t> projection_;
};

/// Row filter: keeps rows where `predicate` evaluates to TRUE.
class LogicalFilter : public LogicalOperator {
 public:
  LogicalFilter(LogicalOpPtr child, ExprPtr predicate)
      : LogicalOperator(LogicalOpKind::kFilter, child->schema()),
        predicate_(std::move(predicate)) {
    children_ = {std::move(child)};
  }

  const ExprPtr& predicate() const { return predicate_; }
  void set_predicate(ExprPtr p) { predicate_ = std::move(p); }

  std::string ToString() const override;

 private:
  ExprPtr predicate_;
};

/// Computes one output column per expression.
class LogicalProject : public LogicalOperator {
 public:
  LogicalProject(LogicalOpPtr child, std::vector<ExprPtr> exprs,
                 std::vector<std::string> names);

  const std::vector<ExprPtr>& exprs() const { return exprs_; }

  std::string ToString() const override;

 private:
  std::vector<ExprPtr> exprs_;
};

/// Join of two subtrees. `condition` is bound over left.schema ⊕
/// right.schema (right column indexes offset by left arity). Null
/// condition = cross product.
class LogicalJoin : public LogicalOperator {
 public:
  enum class Kind { kInner, kLeft, kCross };

  LogicalJoin(Kind kind, LogicalOpPtr left, LogicalOpPtr right,
              ExprPtr condition);

  Kind join_kind() const { return join_kind_; }
  const ExprPtr& condition() const { return condition_; }
  void set_condition(ExprPtr c) { condition_ = std::move(c); }

  /// Positions of left ⊕ right the join emits, in order (empty = all).
  /// Set by projection pruning to the columns the parents read, the way
  /// LogicalScan carries one; the join's schema is then that subset,
  /// while `condition` stays bound over the whole left ⊕ right.
  const std::vector<size_t>& projection() const { return projection_; }
  void SetProjection(std::vector<size_t> columns);

  std::string ToString() const override;

 private:
  Kind join_kind_;
  ExprPtr condition_;
  std::vector<size_t> projection_;
};

enum class AggFunc {
  kCountStar,
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  kStddev,    // sample standard deviation (NULL for < 2 values)
  kVariance,  // sample variance (NULL for < 2 values)
};

std::string_view AggFuncToString(AggFunc f);

/// One aggregate computation: func(arg) with optional DISTINCT.
struct AggregateSpec {
  AggFunc func;
  ExprPtr arg;  // null for COUNT(*)
  bool distinct = false;
  TypeId result_type = TypeId::kInvalid;
  std::string name;  // output column name

  std::string ToString() const;
};

/// Hash aggregation: output schema is [group keys..., aggregates...].
/// With no group keys, produces exactly one row.
class LogicalAggregate : public LogicalOperator {
 public:
  LogicalAggregate(LogicalOpPtr child, std::vector<ExprPtr> group_by,
                   std::vector<AggregateSpec> aggregates,
                   std::vector<std::string> group_names);

  const std::vector<ExprPtr>& group_by() const { return group_by_; }
  const std::vector<AggregateSpec>& aggregates() const { return aggregates_; }

  std::string ToString() const override;

 private:
  std::vector<ExprPtr> group_by_;
  std::vector<AggregateSpec> aggregates_;
};

struct SortKey {
  ExprPtr expr;
  bool descending = false;
};

/// Full sort of the input by one or more keys (NULLs first).
class LogicalSort : public LogicalOperator {
 public:
  LogicalSort(LogicalOpPtr child, std::vector<SortKey> keys)
      : LogicalOperator(LogicalOpKind::kSort, child->schema()),
        keys_(std::move(keys)) {
    children_ = {std::move(child)};
  }

  const std::vector<SortKey>& keys() const { return keys_; }

  std::string ToString() const override;

 private:
  std::vector<SortKey> keys_;
};

/// LIMIT/OFFSET.
class LogicalLimit : public LogicalOperator {
 public:
  LogicalLimit(LogicalOpPtr child, int64_t limit, int64_t offset)
      : LogicalOperator(LogicalOpKind::kLimit, child->schema()),
        limit_(limit),
        offset_(offset) {
    children_ = {std::move(child)};
  }

  int64_t limit() const { return limit_; }
  int64_t offset() const { return offset_; }

  std::string ToString() const override;

 private:
  int64_t limit_;
  int64_t offset_;
};

/// Bag union (UNION ALL) of two or more children with identical schemas
/// (the binder inserts casts to align types). Plain UNION = this node
/// under a LogicalDistinct.
class LogicalUnion : public LogicalOperator {
 public:
  explicit LogicalUnion(std::vector<LogicalOpPtr> children)
      : LogicalOperator(LogicalOpKind::kUnion, children[0]->schema()) {
    children_ = std::move(children);
  }

  std::string ToString() const override;
};

/// SELECT DISTINCT de-duplication over all output columns.
class LogicalDistinct : public LogicalOperator {
 public:
  explicit LogicalDistinct(LogicalOpPtr child)
      : LogicalOperator(LogicalOpKind::kDistinct, child->schema()) {
    children_ = {std::move(child)};
  }

  std::string ToString() const override;
};

/// Keyword-ranking leaf: BM25 search of `query` over the inverted index
/// attached to `alias.column`. Always appears as a child of
/// LogicalScoreFusion, which drives the actual index probes (the fetch
/// depth depends on the fusion strategy); its schema documents the ranking
/// it contributes.
class LogicalTextMatch : public LogicalOperator {
 public:
  LogicalTextMatch(std::string alias, std::string column, std::string query,
                   const InvertedIndex* index);

  const std::string& alias() const { return alias_; }
  const std::string& column() const { return column_; }
  const std::string& query() const { return query_; }
  const InvertedIndex* index() const { return index_; }

  std::string ToString() const override;

 private:
  std::string alias_;
  std::string column_;
  std::string query_;
  const InvertedIndex* index_;
};

/// Vector-ranking leaf: k-NN search of `query` over the vector indexes
/// attached to `alias.column`. The optimizer picks the physical index
/// (flat for exact pre-filtered plans, IVF/HNSW for post-filtered ANN
/// plans). Like LogicalTextMatch, it executes inside its parent
/// LogicalScoreFusion.
class LogicalVectorTopK : public LogicalOperator {
 public:
  LogicalVectorTopK(std::string alias, std::string column, Vecf query,
                    size_t k, const FlatIndex* flat, const IvfFlatIndex* ivf,
                    const HnswIndex* hnsw);

  const std::string& alias() const { return alias_; }
  const std::string& column() const { return column_; }
  const Vecf& query() const { return query_; }
  size_t k() const { return k_; }
  const FlatIndex* flat_index() const { return flat_; }
  const IvfFlatIndex* ivf_index() const { return ivf_; }
  const HnswIndex* hnsw_index() const { return hnsw_; }

  VectorIndexChoice index_choice() const { return index_choice_; }
  void set_index_choice(VectorIndexChoice c) { index_choice_ = c; }

  std::string ToString() const override;

 private:
  std::string alias_;
  std::string column_;
  Vecf query_;
  size_t k_;
  const FlatIndex* flat_;
  const IvfFlatIndex* ivf_;
  const HnswIndex* hnsw_;
  VectorIndexChoice index_choice_ = VectorIndexChoice::kUnchosen;
};

/// Hybrid-search root: fuses the rankings of its leaf children (text
/// match and/or vector top-k) with an optional attribute filter over
/// `table`, emitting fused top-k rows sorted by (score desc, id asc):
///
///   [alias.rowid, alias.<attrs>..., alias.score, alias.keyword_score,
///    alias.vector_score, alias.distance (vector plans only)]
///
/// `filter` is bound against the table's column order and evaluated by
/// the chosen strategy: pre-filter materializes the survivor bitmap first
/// (exact), post-filter probes ANN indexes with an over-fetch loop. The
/// optimizer resolves HybridStrategy::kAuto cost-based and records the
/// estimate for EXPLAIN.
class LogicalScoreFusion : public LogicalOperator {
 public:
  LogicalScoreFusion(std::shared_ptr<Table> table, std::string alias,
                     size_t k, FusionParams params, HybridExecOptions exec,
                     ExprPtr filter, LogicalOpPtr text_child,
                     LogicalOpPtr vector_child);

  const std::shared_ptr<Table>& table() const { return table_; }
  const std::string& alias() const { return alias_; }
  size_t k() const { return k_; }
  const FusionParams& params() const { return params_; }
  const HybridExecOptions& exec_options() const { return exec_; }
  const ExprPtr& filter() const { return filter_; }

  /// The ranking leaves; null when that modality is absent.
  const LogicalTextMatch* text_match() const;
  LogicalVectorTopK* vector_top_k() const;

  HybridStrategy strategy() const { return exec_.strategy; }
  void set_strategy(HybridStrategy s) { exec_.strategy = s; }

  /// Cost annotations recorded by the optimizer for EXPLAIN.
  double estimated_selectivity() const { return estimated_selectivity_; }
  double cost_prefilter() const { return cost_prefilter_; }
  double cost_postfilter() const { return cost_postfilter_; }
  bool costed() const { return costed_; }
  void SetCostEstimates(double selectivity, double cost_pre,
                        double cost_post) {
    estimated_selectivity_ = selectivity;
    cost_prefilter_ = cost_pre;
    cost_postfilter_ = cost_post;
    costed_ = true;
  }

  std::string ToString() const override;

 private:
  std::shared_ptr<Table> table_;
  std::string alias_;
  size_t k_;
  FusionParams params_;
  HybridExecOptions exec_;
  ExprPtr filter_;
  double estimated_selectivity_ = 1.0;
  double cost_prefilter_ = 0;
  double cost_postfilter_ = 0;
  bool costed_ = false;
};

}  // namespace agora

#endif  // AGORA_PLAN_LOGICAL_PLAN_H_
