#include "optimizer/plan_verify.h"

#include <string>
#include <vector>

namespace agora {
namespace {

std::string Prefix(std::string_view phase) {
  return "plan verification failed (" + std::string(phase) + "): ";
}

/// Checks every column reference of `expr` against `input_arity`.
Status CheckBindings(const ExprPtr& expr, size_t input_arity,
                     std::string_view phase, const std::string& where) {
  if (expr == nullptr) return Status::OK();
  std::vector<size_t> refs;
  expr->CollectColumnRefs(&refs);
  for (size_t r : refs) {
    if (r >= input_arity) {
      return Status::Internal(Prefix(phase) + where + " references column " +
                              std::to_string(r) + " but its input has only " +
                              std::to_string(input_arity) + " columns");
    }
  }
  return Status::OK();
}

Status CheckChildCount(const LogicalOperator* node, size_t expected,
                       std::string_view phase) {
  if (node->children().size() != expected) {
    return Status::Internal(Prefix(phase) + node->ToString() + " has " +
                            std::to_string(node->children().size()) +
                            " children, expected " + std::to_string(expected));
  }
  return Status::OK();
}

Status VerifyNode(const LogicalOperator* node, std::string_view phase) {
  if (node == nullptr) {
    return Status::Internal(Prefix(phase) + "null plan node");
  }
  for (const LogicalOpPtr& child : node->children()) {
    if (child == nullptr) {
      return Status::Internal(Prefix(phase) + node->ToString() +
                              " has a null child");
    }
  }
  size_t arity = node->schema().num_fields();
  switch (node->kind()) {
    case LogicalOpKind::kScan: {
      AGORA_RETURN_IF_ERROR(CheckChildCount(node, 0, phase));
      const auto* scan = static_cast<const LogicalScan*>(node);
      size_t table_arity = scan->table()->schema().num_fields();
      for (size_t col : scan->projection()) {
        if (col >= table_arity) {
          return Status::Internal(
              Prefix(phase) + "scan projection names column " +
              std::to_string(col) + " of a " + std::to_string(table_arity) +
              "-column table");
        }
      }
      size_t expected =
          scan->projection().empty() ? table_arity : scan->projection().size();
      if (arity != expected) {
        return Status::Internal(Prefix(phase) + "scan schema has " +
                                std::to_string(arity) +
                                " columns, expected " +
                                std::to_string(expected));
      }
      // The pushed predicate binds over the scan's own output.
      AGORA_RETURN_IF_ERROR(CheckBindings(scan->pushed_predicate(), arity,
                                          phase, "scan pushed predicate"));
      break;
    }
    case LogicalOpKind::kFilter: {
      AGORA_RETURN_IF_ERROR(CheckChildCount(node, 1, phase));
      const auto* filter = static_cast<const LogicalFilter*>(node);
      size_t child_arity = node->children()[0]->schema().num_fields();
      AGORA_RETURN_IF_ERROR(CheckBindings(filter->predicate(), child_arity,
                                          phase, "filter predicate"));
      if (arity != child_arity) {
        return Status::Internal(Prefix(phase) +
                                "filter schema diverges from its child");
      }
      break;
    }
    case LogicalOpKind::kProject: {
      AGORA_RETURN_IF_ERROR(CheckChildCount(node, 1, phase));
      const auto* project = static_cast<const LogicalProject*>(node);
      size_t child_arity = node->children()[0]->schema().num_fields();
      for (const ExprPtr& e : project->exprs()) {
        AGORA_RETURN_IF_ERROR(
            CheckBindings(e, child_arity, phase, "projection expression"));
      }
      if (arity != project->exprs().size()) {
        return Status::Internal(
            Prefix(phase) + "projection emits " +
            std::to_string(project->exprs().size()) +
            " expressions but its schema has " + std::to_string(arity) +
            " columns");
      }
      break;
    }
    case LogicalOpKind::kJoin: {
      AGORA_RETURN_IF_ERROR(CheckChildCount(node, 2, phase));
      const auto* join = static_cast<const LogicalJoin*>(node);
      size_t left = node->children()[0]->schema().num_fields();
      size_t right = node->children()[1]->schema().num_fields();
      AGORA_RETURN_IF_ERROR(CheckBindings(join->condition(), left + right,
                                          phase, "join condition"));
      const std::vector<size_t>& projection = join->projection();
      if (projection.empty() && arity != left + right) {
        return Status::Internal(
            Prefix(phase) + "join schema has " + std::to_string(arity) +
            " columns, expected " + std::to_string(left + right) +
            " (left + right)");
      }
      if (!projection.empty() && arity != projection.size()) {
        return Status::Internal(
            Prefix(phase) + "join schema has " + std::to_string(arity) +
            " columns but its projection lists " +
            std::to_string(projection.size()));
      }
      for (size_t c : projection) {
        if (c >= left + right) {
          return Status::Internal(Prefix(phase) + "join projection column " +
                                  std::to_string(c) + " is out of range (" +
                                  std::to_string(left + right) +
                                  " input columns)");
        }
      }
      break;
    }
    case LogicalOpKind::kAggregate: {
      AGORA_RETURN_IF_ERROR(CheckChildCount(node, 1, phase));
      const auto* agg = static_cast<const LogicalAggregate*>(node);
      size_t child_arity = node->children()[0]->schema().num_fields();
      for (const ExprPtr& e : agg->group_by()) {
        AGORA_RETURN_IF_ERROR(
            CheckBindings(e, child_arity, phase, "group-by expression"));
      }
      for (const AggregateSpec& spec : agg->aggregates()) {
        AGORA_RETURN_IF_ERROR(
            CheckBindings(spec.arg, child_arity, phase, "aggregate argument"));
      }
      size_t expected = agg->group_by().size() + agg->aggregates().size();
      if (arity != expected) {
        return Status::Internal(Prefix(phase) + "aggregate schema has " +
                                std::to_string(arity) +
                                " columns, expected " +
                                std::to_string(expected) +
                                " (groups + aggregates)");
      }
      break;
    }
    case LogicalOpKind::kSort: {
      AGORA_RETURN_IF_ERROR(CheckChildCount(node, 1, phase));
      const auto* sort = static_cast<const LogicalSort*>(node);
      for (const SortKey& key : sort->keys()) {
        AGORA_RETURN_IF_ERROR(
            CheckBindings(key.expr, arity, phase, "sort key"));
      }
      if (arity != node->children()[0]->schema().num_fields()) {
        return Status::Internal(Prefix(phase) +
                                "sort schema diverges from its child");
      }
      break;
    }
    case LogicalOpKind::kLimit:
    case LogicalOpKind::kDistinct: {
      AGORA_RETURN_IF_ERROR(CheckChildCount(node, 1, phase));
      if (arity != node->children()[0]->schema().num_fields()) {
        return Status::Internal(Prefix(phase) + node->ToString() +
                                " schema diverges from its child");
      }
      break;
    }
    case LogicalOpKind::kUnion: {
      if (node->children().empty()) {
        return Status::Internal(Prefix(phase) + "union with no inputs");
      }
      for (const LogicalOpPtr& child : node->children()) {
        if (child->schema().num_fields() != arity) {
          return Status::Internal(Prefix(phase) +
                                  "union inputs disagree on arity");
        }
      }
      break;
    }
    case LogicalOpKind::kTextMatch: {
      AGORA_RETURN_IF_ERROR(CheckChildCount(node, 0, phase));
      const auto* text = static_cast<const LogicalTextMatch*>(node);
      if (text->index() == nullptr) {
        return Status::Internal(Prefix(phase) +
                                "text-match leaf without an inverted index");
      }
      break;
    }
    case LogicalOpKind::kVectorTopK: {
      AGORA_RETURN_IF_ERROR(CheckChildCount(node, 0, phase));
      const auto* vec = static_cast<const LogicalVectorTopK*>(node);
      if (vec->k() == 0) {
        return Status::Internal(Prefix(phase) + "vector top-k with k = 0");
      }
      break;
    }
    case LogicalOpKind::kScoreFusion: {
      const auto* fusion = static_cast<const LogicalScoreFusion*>(node);
      if (node->children().empty() || node->children().size() > 2) {
        return Status::Internal(
            Prefix(phase) + "score fusion must have 1 or 2 ranking leaves");
      }
      if (fusion->text_match() == nullptr &&
          fusion->vector_top_k() == nullptr) {
        return Status::Internal(Prefix(phase) +
                                "score fusion without a ranking leaf");
      }
      // [rowid, attrs..., score, keyword_score, vector_score,
      //  distance (vector plans only)].
      size_t expected = 1 + fusion->table()->schema().num_fields() + 3 +
                        (fusion->vector_top_k() != nullptr ? 1 : 0);
      if (arity != expected) {
        return Status::Internal(
            Prefix(phase) + "score fusion schema has " +
            std::to_string(arity) + " columns, expected " +
            std::to_string(expected));
      }
      AGORA_RETURN_IF_ERROR(
          CheckBindings(fusion->filter(), fusion->table()->schema().num_fields(),
                        phase, "fusion filter"));
      if (fusion->costed()) {
        if (fusion->estimated_selectivity() < 0.0 ||
            fusion->estimated_selectivity() > 1.0) {
          return Status::Internal(Prefix(phase) +
                                  "fusion selectivity outside [0, 1]");
        }
        if (fusion->cost_prefilter() < 0.0 ||
            fusion->cost_postfilter() < 0.0) {
          return Status::Internal(Prefix(phase) +
                                  "negative fusion cost annotation");
        }
      }
      break;
    }
  }
  for (const LogicalOpPtr& child : node->children()) {
    AGORA_RETURN_IF_ERROR(VerifyNode(child.get(), phase));
  }
  return Status::OK();
}

}  // namespace

Status VerifyPlan(const LogicalOperator* root, std::string_view phase) {
  return VerifyNode(root, phase);
}

}  // namespace agora
