#ifndef AGORA_LINEAGE_LINEAGE_H_
#define AGORA_LINEAGE_LINEAGE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "expr/expr.h"
#include "plan/logical_plan.h"
#include "storage/table.h"

namespace agora {

/// A pointer to one base-table row: the atom of provenance.
struct LineageRef {
  std::string table;
  int64_t row;

  bool operator==(const LineageRef& other) const {
    return row == other.row && table == other.table;
  }
  bool operator<(const LineageRef& other) const {
    if (table != other.table) return table < other.table;
    return row < other.row;
  }
};

/// The rows of base table `table` behind each row i of a relation:
/// rows[offsets[i] .. offsets[i + 1]), sorted and unique.
struct TableLineage {
  std::string table;
  std::vector<size_t> offsets;
  std::vector<int64_t> rows;
};

/// A relation annotated with why-provenance: for every data row, the set
/// of base-table rows that contributed to it. Produced and consumed by
/// the lineage-aware operators below; backward tracing an output row is
/// just reading its annotation.
///
/// This mirrors the classic eager "perm/GProM-style" lineage capture the
/// panel gestures at ("challenges like data provenance" as a database
/// strength) in Smoke's form: the data runs through the engine's own
/// operators and the lineage rides beside it as index arrays. Capture can
/// be disabled (`capture=false` in the operators), which produces
/// identical data with empty annotations — the E8 benchmark measures
/// exactly that delta.
struct AnnotatedRelation {
  Schema schema;
  Chunk data;
  /// One entry per contributing base table, ordered by table name. Empty
  /// when capture was disabled.
  std::vector<TableLineage> lineage;

  size_t num_rows() const { return data.num_rows(); }
};

/// Scans `table`, optionally filtering by `predicate` (bound against the
/// table schema). Each surviving row's lineage is the single base row it
/// came from.
Result<AnnotatedRelation> LineageScan(const Table& table,
                                      const ExprPtr& predicate,
                                      bool capture);

/// Hash equi-join on `left_col` = `right_col` (column indexes into the
/// respective schemas, of the same type); NULL keys never match. Output
/// rows come in left-row order, each left row's matches in right-row
/// order. Output lineage is the union of the two input rows' lineage.
Result<AnnotatedRelation> LineageJoin(const AnnotatedRelation& left,
                                      const AnnotatedRelation& right,
                                      size_t left_col, size_t right_col,
                                      bool capture);

/// Hash aggregation: group by `group_cols`, computing `aggregates` (bound
/// against the input schema), groups in first-appearance order. Output
/// lineage of a group is the union of all member rows' lineage — the
/// full why-provenance of the aggregate.
Result<AnnotatedRelation> LineageAggregate(
    const AnnotatedRelation& input, const std::vector<size_t>& group_cols,
    const std::vector<AggregateSpec>& aggregates, bool capture);

/// Backward trace: the provenance of output row `row`, restricted to
/// `table` (empty string = all tables), sorted and unique.
Result<std::vector<LineageRef>> TraceRow(const AnnotatedRelation& relation,
                                         size_t row,
                                         const std::string& table = "");

}  // namespace agora

#endif  // AGORA_LINEAGE_LINEAGE_H_
