#include "plan/logical_plan.h"

#include <cstdio>

namespace agora {

std::string LogicalOperator::TreeString(int indent) const {
  std::string out(static_cast<size_t>(indent) * 2, ' ');
  out += ToString();
  out += '\n';
  for (const auto& child : children_) {
    out += child->TreeString(indent + 1);
  }
  return out;
}

namespace {
Schema ScanSchema(const Table& table, const std::string& alias,
                  const std::vector<size_t>& projection) {
  // Scan output columns are qualified with the alias so multi-table binds
  // stay unambiguous: "alias.column".
  std::vector<Field> fields;
  auto add = [&](size_t c) {
    Field f = table.schema().field(c);
    f.name = alias + "." + f.name;
    fields.push_back(std::move(f));
  };
  if (projection.empty()) {
    for (size_t c = 0; c < table.schema().num_fields(); ++c) add(c);
  } else {
    for (size_t c : projection) add(c);
  }
  return Schema(std::move(fields));
}
}  // namespace

LogicalScan::LogicalScan(std::shared_ptr<Table> table, std::string alias)
    : LogicalOperator(LogicalOpKind::kScan,
                      ScanSchema(*table, alias, {})),
      table_(std::move(table)),
      alias_(std::move(alias)) {}

void LogicalScan::SetProjection(std::vector<size_t> columns) {
  projection_ = std::move(columns);
  schema_ = ScanSchema(*table_, alias_, projection_);
}

std::string LogicalScan::ToString() const {
  std::string out = "Scan(" + table_->name();
  if (alias_ != table_->name()) out += " AS " + alias_;
  if (!projection_.empty()) {
    out += ", cols=[";
    for (size_t i = 0; i < projection_.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(projection_[i]);
    }
    out += "]";
  }
  if (pushed_predicate_ != nullptr) {
    out += ", filter=" + pushed_predicate_->ToString();
    if (use_zone_maps_) out += " [zonemap]";
  }
  return out + ")";
}

std::string LogicalFilter::ToString() const {
  return "Filter(" + predicate_->ToString() + ")";
}

namespace {

/// The type of the column `e` evaluates to: an untyped NULL literal
/// evaluates as BOOLEAN NULLs (LiteralExpr::EvalBatch).
TypeId ColumnType(const Expr& e) {
  return e.result_type() == TypeId::kInvalid ? TypeId::kBool
                                             : e.result_type();
}

}  // namespace

LogicalProject::LogicalProject(LogicalOpPtr child, std::vector<ExprPtr> exprs,
                               std::vector<std::string> names)
    : LogicalOperator(LogicalOpKind::kProject, Schema()),
      exprs_(std::move(exprs)) {
  std::vector<Field> fields;
  fields.reserve(exprs_.size());
  for (size_t i = 0; i < exprs_.size(); ++i) {
    fields.push_back(Field{names[i], ColumnType(*exprs_[i]), true});
  }
  schema_ = Schema(std::move(fields));
  children_ = {std::move(child)};
}

std::string LogicalProject::ToString() const {
  std::string out = "Project(";
  for (size_t i = 0; i < exprs_.size(); ++i) {
    if (i > 0) out += ", ";
    out += exprs_[i]->ToString();
    out += " AS " + schema_.field(i).name;
  }
  return out + ")";
}

LogicalJoin::LogicalJoin(Kind kind, LogicalOpPtr left, LogicalOpPtr right,
                         ExprPtr condition)
    : LogicalOperator(LogicalOpKind::kJoin,
                      left->schema().Concat(right->schema())),
      join_kind_(kind),
      condition_(std::move(condition)) {
  children_ = {std::move(left), std::move(right)};
}

void LogicalJoin::SetProjection(std::vector<size_t> columns) {
  const Schema all = children_[0]->schema().Concat(children_[1]->schema());
  bool identity = columns.size() == all.num_fields();
  std::vector<Field> fields;
  for (size_t i = 0; i < columns.size(); ++i) {
    identity &= columns[i] == i;
    fields.push_back(all.field(columns[i]));
  }
  projection_ = identity ? std::vector<size_t>{} : std::move(columns);
  schema_ = identity ? all : Schema(std::move(fields));
}

std::string LogicalJoin::ToString() const {
  std::string kind;
  switch (join_kind_) {
    case Kind::kInner:
      kind = "Inner";
      break;
    case Kind::kLeft:
      kind = "Left";
      break;
    case Kind::kCross:
      kind = "Cross";
      break;
  }
  std::string out = kind + "Join(";
  if (condition_ != nullptr) out += condition_->ToString();
  if (!projection_.empty()) {
    out += condition_ != nullptr ? ", cols=[" : "cols=[";
    for (size_t i = 0; i < projection_.size(); ++i) {
      if (i > 0) out += ",";
      out += std::to_string(projection_[i]);
    }
    out += "]";
  }
  return out + ")";
}

std::string_view AggFuncToString(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar:
      return "COUNT(*)";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kStddev:
      return "STDDEV";
    case AggFunc::kVariance:
      return "VARIANCE";
  }
  return "?";
}

std::string AggregateSpec::ToString() const {
  if (func == AggFunc::kCountStar) return "COUNT(*)";
  std::string out(AggFuncToString(func));
  out += "(";
  if (distinct) out += "DISTINCT ";
  out += arg->ToString();
  return out + ")";
}

LogicalAggregate::LogicalAggregate(LogicalOpPtr child,
                                   std::vector<ExprPtr> group_by,
                                   std::vector<AggregateSpec> aggregates,
                                   std::vector<std::string> group_names)
    : LogicalOperator(LogicalOpKind::kAggregate, Schema()),
      group_by_(std::move(group_by)),
      aggregates_(std::move(aggregates)) {
  std::vector<Field> fields;
  for (size_t i = 0; i < group_by_.size(); ++i) {
    fields.push_back(
        Field{group_names[i], ColumnType(*group_by_[i]), true});
  }
  for (const AggregateSpec& agg : aggregates_) {
    fields.push_back(Field{agg.name, agg.result_type, true});
  }
  schema_ = Schema(std::move(fields));
  children_ = {std::move(child)};
}

std::string LogicalAggregate::ToString() const {
  std::string out = "Aggregate(groups=[";
  for (size_t i = 0; i < group_by_.size(); ++i) {
    if (i > 0) out += ", ";
    out += group_by_[i]->ToString();
  }
  out += "], aggs=[";
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    if (i > 0) out += ", ";
    out += aggregates_[i].ToString();
  }
  return out + "])";
}

std::string LogicalSort::ToString() const {
  std::string out = "Sort(";
  for (size_t i = 0; i < keys_.size(); ++i) {
    if (i > 0) out += ", ";
    out += keys_[i].expr->ToString();
    out += keys_[i].descending ? " DESC" : " ASC";
  }
  return out + ")";
}

std::string LogicalLimit::ToString() const {
  std::string out = "Limit(" + std::to_string(limit_);
  if (offset_ > 0) out += " OFFSET " + std::to_string(offset_);
  return out + ")";
}

std::string LogicalUnion::ToString() const {
  return "UnionAll(" + std::to_string(children_.size()) + " inputs)";
}

std::string LogicalDistinct::ToString() const { return "Distinct()"; }

namespace {

std::string FormatCost(double v) {
  // Costs are unitless row-touch estimates; one decimal is plenty.
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.1f", v);
  return buf;
}

std::string FormatSelectivity(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4f", v);
  return buf;
}

}  // namespace

LogicalTextMatch::LogicalTextMatch(std::string alias, std::string column,
                                   std::string query,
                                   const InvertedIndex* index)
    : LogicalOperator(
          LogicalOpKind::kTextMatch,
          Schema({{alias + ".rowid", TypeId::kInt64, false},
                  {alias + ".keyword_score", TypeId::kDouble, false}})),
      alias_(std::move(alias)),
      column_(std::move(column)),
      query_(std::move(query)),
      index_(index) {}

std::string LogicalTextMatch::ToString() const {
  return "TextMatch(" + alias_ + "." + column_ + " MATCH '" + query_ +
         "', index=inverted[bm25])";
}

LogicalVectorTopK::LogicalVectorTopK(std::string alias, std::string column,
                                     Vecf query, size_t k,
                                     const FlatIndex* flat,
                                     const IvfFlatIndex* ivf,
                                     const HnswIndex* hnsw)
    : LogicalOperator(
          LogicalOpKind::kVectorTopK,
          Schema({{alias + ".rowid", TypeId::kInt64, false},
                  {alias + ".distance", TypeId::kDouble, true}})),
      alias_(std::move(alias)),
      column_(std::move(column)),
      query_(std::move(query)),
      k_(k),
      flat_(flat),
      ivf_(ivf),
      hnsw_(hnsw) {}

std::string LogicalVectorTopK::ToString() const {
  std::string out = "VectorTopK(" + alias_ + "." + column_ +
                    ", k=" + std::to_string(k_) + ", dim=" +
                    std::to_string(query_.size()) + ", index=";
  out += VectorIndexChoiceToString(index_choice_);
  if (index_choice_ == VectorIndexChoice::kIvf && ivf_ != nullptr) {
    out += "[nprobe=" + std::to_string(ivf_->options().nprobe) + "/" +
           std::to_string(ivf_->options().nlist) + "]";
  }
  return out + ")";
}

namespace {

Schema FusionSchema(const Table& table, const std::string& alias,
                    bool has_vector) {
  std::vector<Field> fields;
  fields.push_back(Field{alias + ".rowid", TypeId::kInt64, false});
  for (size_t c = 0; c < table.schema().num_fields(); ++c) {
    Field f = table.schema().field(c);
    f.name = alias + "." + f.name;
    fields.push_back(std::move(f));
  }
  fields.push_back(Field{alias + ".score", TypeId::kDouble, false});
  fields.push_back(Field{alias + ".keyword_score", TypeId::kDouble, false});
  fields.push_back(Field{alias + ".vector_score", TypeId::kDouble, false});
  if (has_vector) {
    // Raw metric distance; NULL for docs ranked by keywords only.
    fields.push_back(Field{alias + ".distance", TypeId::kDouble, true});
  }
  return Schema(std::move(fields));
}

}  // namespace

LogicalScoreFusion::LogicalScoreFusion(std::shared_ptr<Table> table,
                                       std::string alias, size_t k,
                                       FusionParams params,
                                       HybridExecOptions exec, ExprPtr filter,
                                       LogicalOpPtr text_child,
                                       LogicalOpPtr vector_child)
    : LogicalOperator(LogicalOpKind::kScoreFusion,
                      FusionSchema(*table, alias, vector_child != nullptr)),
      table_(std::move(table)),
      alias_(std::move(alias)),
      k_(k),
      params_(params),
      exec_(exec),
      filter_(std::move(filter)) {
  if (text_child != nullptr) children_.push_back(std::move(text_child));
  if (vector_child != nullptr) children_.push_back(std::move(vector_child));
}

const LogicalTextMatch* LogicalScoreFusion::text_match() const {
  for (const LogicalOpPtr& c : children_) {
    if (c->kind() == LogicalOpKind::kTextMatch) {
      return static_cast<const LogicalTextMatch*>(c.get());
    }
  }
  return nullptr;
}

LogicalVectorTopK* LogicalScoreFusion::vector_top_k() const {
  for (const LogicalOpPtr& c : children_) {
    if (c->kind() == LogicalOpKind::kVectorTopK) {
      return static_cast<LogicalVectorTopK*>(c.get());
    }
  }
  return nullptr;
}

std::string LogicalScoreFusion::ToString() const {
  std::string out = "ScoreFusion(" + table_->name();
  if (alias_ != table_->name()) out += " AS " + alias_;
  out += ", k=" + std::to_string(k_);
  out += params_.fusion == ScoreFusion::kRrf
             ? ", fusion=rrf[k=" + std::to_string(params_.rrf_k) + "]"
             : std::string(", fusion=wsum");
  out += "[kw=" + FormatCost(params_.keyword_weight) +
         ",vec=" + FormatCost(params_.vector_weight) + "]";
  out += ", strategy=";
  out += HybridStrategyToString(exec_.strategy);
  if (costed_) {
    out += ", sel=" + FormatSelectivity(estimated_selectivity_) +
           ", cost[pre=" + FormatCost(cost_prefilter_) +
           ", post=" + FormatCost(cost_postfilter_) + "]";
  }
  if (filter_ != nullptr) out += ", filter=" + filter_->ToString();
  return out + ")";
}

}  // namespace agora
