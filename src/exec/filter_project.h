#ifndef AGORA_EXEC_FILTER_PROJECT_H_
#define AGORA_EXEC_FILTER_PROJECT_H_

#include <vector>

#include "exec/physical_op.h"
#include "expr/expr.h"

namespace agora {

/// Keeps input rows where `predicate` evaluates to TRUE.
class PhysicalFilter : public PhysicalOperator {
 public:
  PhysicalFilter(PhysicalOpPtr child, ExprPtr predicate,
                 ExecContext* context);

  Status OpenImpl() override;
  Status NextImpl(Chunk* chunk, bool* done) override;
  std::string name() const override { return "Filter"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

  /// Stateless per-chunk transform used by the morsel pipeline; safe to
  /// call from multiple workers concurrently.
  Status ProcessChunk(const Chunk& input, Chunk* out,
                      ExecStats* stats) const;

  PhysicalOperator* child() const { return child_.get(); }

 private:
  PhysicalOpPtr child_;
  ExprPtr predicate_;
  bool child_done_ = false;
};

/// Evaluates one expression per output column.
class PhysicalProject : public PhysicalOperator {
 public:
  PhysicalProject(PhysicalOpPtr child, std::vector<ExprPtr> exprs,
                  Schema schema, ExecContext* context);

  Status OpenImpl() override;
  Status NextImpl(Chunk* chunk, bool* done) override;
  std::string name() const override { return "Project"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

  /// Stateless per-chunk transform used by the morsel pipeline; safe to
  /// call from multiple workers concurrently.
  Status ProcessChunk(const Chunk& input, Chunk* out,
                      ExecStats* stats) const;

  PhysicalOperator* child() const { return child_.get(); }
  const std::vector<ExprPtr>& exprs() const { return exprs_; }

 private:
  PhysicalOpPtr child_;
  std::vector<ExprPtr> exprs_;
};

}  // namespace agora

#endif  // AGORA_EXEC_FILTER_PROJECT_H_
