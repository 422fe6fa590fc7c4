#include "lineage/lineage.h"

#include <algorithm>
#include <memory>
#include <numeric>

#include "common/hash.h"
#include "exec/aggregate.h"
#include "exec/join.h"
#include "exec/scan.h"

namespace agora {

namespace {

/// A scan over a private copy of `data`, with a trailing BIGINT column
/// of row positions when `positions` is set: how a materialized relation
/// feeds an operator of the engine.
Result<PhysicalOpPtr> ScanOf(Schema schema, Chunk data, bool positions,
                             ExecContext* context) {
  if (positions) {
    const size_t n = data.num_rows();
    schema = schema.Concat(Schema({{"lineage_row", TypeId::kInt64, false}}));
    ColumnVector pos(TypeId::kInt64);
    for (size_t i = 0; i < n; ++i) pos.AppendInt64(static_cast<int64_t>(i));
    data.AddColumn(std::move(pos));
  }
  auto table = std::make_shared<Table>("lineage_input", schema);
  AGORA_RETURN_IF_ERROR(table->AppendChunk(data));
  return PhysicalOpPtr(std::make_unique<PhysicalScan>(
      std::move(table), std::vector<size_t>{}, nullptr,
      std::vector<ColumnRangeConstraint>{}, /*use_zone_maps=*/false,
      /*emit_row_ids=*/false, std::move(schema), context));
}

/// Output row `dst` inherits the base rows behind row `row` of `from`.
struct Piece {
  size_t dst;
  const TableLineage* from;
  size_t row;
};

/// The lineage of `table` for `n` output rows: each row's pieces,
/// placed by a counting sort, then sorted and made unique.
TableLineage Assemble(const std::string& table, size_t n,
                      const std::vector<Piece>& pieces) {
  TableLineage out{table, std::vector<size_t>(n + 1, 0), {}};
  for (const Piece& p : pieces) {
    out.offsets[p.dst + 1] +=
        p.from->offsets[p.row + 1] - p.from->offsets[p.row];
  }
  std::partial_sum(out.offsets.begin(), out.offsets.end(),
                   out.offsets.begin());
  out.rows.resize(out.offsets[n]);
  std::vector<size_t> cursor(out.offsets.begin(), out.offsets.end() - 1);
  for (const Piece& p : pieces) {
    const int64_t* rows = p.from->rows.data();
    const size_t begin = p.from->offsets[p.row];
    const size_t end = p.from->offsets[p.row + 1];
    std::copy(rows + begin, rows + end, out.rows.data() + cursor[p.dst]);
    cursor[p.dst] += end - begin;
  }
  size_t write = 0;  // compacts the rows down as duplicates drop out
  for (size_t i = 0; i < n; ++i) {
    int64_t* first = out.rows.data() + out.offsets[i];
    int64_t* last = out.rows.data() + out.offsets[i + 1];
    std::sort(first, last);
    out.offsets[i] = write;
    write = static_cast<size_t>(std::copy(first, std::unique(first, last),
                                          out.rows.data() + write) -
                                out.rows.data());
  }
  out.offsets[n] = write;
  out.rows.resize(write);
  return out;
}

/// Sets gids[i] to the group of row i of `keys`, numbering groups in
/// first appearance through a GroupKeyTable, which groups as the
/// aggregate does (NULL = NULL, -0.0 = +0.0). Row g of `output_keys`, the
/// aggregate's output, must be group g; Internal when it is not.
Status GroupIds(const std::vector<ColumnVector>& keys,
                const std::vector<ColumnVector>& output_keys,
                std::vector<uint32_t>* gids) {
  GroupKeyTable table;
  HashTableStats stats;
  std::vector<uint8_t> created;
  auto find = [&](const std::vector<ColumnVector>& cols,
                  std::vector<uint32_t>* ids) {
    const size_t n = cols[0].size();
    std::vector<uint64_t> hashes(n, kHashTableSalt);
    for (const ColumnVector& col : cols) {
      col.HashBatch(hashes.data(), n, /*combine=*/true);
    }
    ids->resize(n);
    created.resize(n);
    table.FindOrCreate(cols, hashes.data(), n, ids->data(), created.data(),
                       &stats);
  };
  find(keys, gids);
  const size_t groups = table.group_count();
  std::vector<uint32_t> paired;
  find(output_keys, &paired);
  bool ok = paired.size() == groups;
  for (size_t g = 0; g < paired.size(); ++g) {
    ok = ok && paired[g] == g && created[g] == 0;
  }
  return ok ? Status::OK()
            : Status::Internal(
                  "aggregate output rows are not the lineage groups");
}

}  // namespace

Result<AnnotatedRelation> LineageScan(const Table& table,
                                      const ExprPtr& predicate,
                                      bool capture) {
  AnnotatedRelation out;
  out.schema = table.schema();
  out.data = table.GetChunk(0, table.num_rows());
  Selection sel;
  if (predicate != nullptr) {
    AGORA_RETURN_IF_ERROR(SelectRows(*predicate, out.data, &sel, nullptr));
  }
  if (!sel.all) out.data = out.data.GatherRows(sel.rows);
  if (capture) {
    const size_t n = out.num_rows();
    if (sel.all) {
      sel.rows.resize(n);
      std::iota(sel.rows.begin(), sel.rows.end(), uint32_t{0});
    }
    TableLineage lineage{table.name(), std::vector<size_t>(n + 1),
                         {sel.rows.begin(), sel.rows.end()}};
    std::iota(lineage.offsets.begin(), lineage.offsets.end(), size_t{0});
    out.lineage.push_back(std::move(lineage));
  }
  return out;
}

Result<AnnotatedRelation> LineageJoin(const AnnotatedRelation& left,
                                      const AnnotatedRelation& right,
                                      size_t left_col, size_t right_col,
                                      bool capture) {
  const size_t lcols = left.schema.num_fields();
  const size_t rcols = right.schema.num_fields();
  if (left_col >= lcols || right_col >= rcols) {
    return Status::InvalidArgument("join column out of range");
  }
  const TypeId type = left.schema.field(left_col).type;
  if (type != right.schema.field(right_col).type) {
    return Status::InvalidArgument(
        "join keys have different types: " +
        std::string(TypeIdToString(type)) + " and " +
        std::string(TypeIdToString(right.schema.field(right_col).type)));
  }
  // With capture, each side carries its row positions through the join
  // as a trailing BIGINT column.
  ExecContext context;
  AGORA_ASSIGN_OR_RETURN(PhysicalOpPtr probe,
                         ScanOf(left.schema, left.data, capture, &context));
  AGORA_ASSIGN_OR_RETURN(PhysicalOpPtr build,
                         ScanOf(right.schema, right.data, capture, &context));
  PhysicalHashJoin join(std::move(probe), std::move(build),
                        {MakeColumnRef(left_col, type)},
                        {MakeColumnRef(right_col, type)}, nullptr,
                        PhysicalJoinKind::kInner, {}, &context);
  AGORA_ASSIGN_OR_RETURN(Chunk joined, CollectAll(&join));

  AnnotatedRelation out;
  out.schema = left.schema.Concat(right.schema);
  if (!capture) {
    out.data = std::move(joined);
    return out;
  }
  // joined: [left columns, left position, right columns, right position]
  const size_t n = joined.num_rows();
  const int64_t* left_rows = joined.column(lcols).int64_data();
  const int64_t* right_rows = joined.column(lcols + 1 + rcols).int64_data();
  for (size_t c = 0; c < lcols + 1 + rcols; ++c) {
    if (c != lcols) out.data.AddColumn(std::move(joined.column(c)));
  }
  std::vector<std::pair<const TableLineage*, const int64_t*>> sides;
  for (const TableLineage& t : left.lineage) sides.push_back({&t, left_rows});
  for (const TableLineage& t : right.lineage) {
    sides.push_back({&t, right_rows});
  }
  // One lineage per table, by name: a self-join's two sides share one.
  std::stable_sort(sides.begin(), sides.end(), [](auto a, auto b) {
    return a.first->table < b.first->table;
  });
  for (size_t i = 0, j = 0; i < sides.size(); i = j) {
    std::vector<Piece> pieces;
    for (; j < sides.size() && sides[j].first->table == sides[i].first->table;
         ++j) {
      for (size_t r = 0; r < n; ++r) {
        pieces.push_back(
            {r, sides[j].first, static_cast<size_t>(sides[j].second[r])});
      }
    }
    out.lineage.push_back(Assemble(sides[i].first->table, n, pieces));
  }
  return out;
}

Result<AnnotatedRelation> LineageAggregate(
    const AnnotatedRelation& input, const std::vector<size_t>& group_cols,
    const std::vector<AggregateSpec>& aggregates, bool capture) {
  const Schema& in = input.schema;
  std::vector<ExprPtr> keys;
  std::vector<Field> fields;
  for (size_t c : group_cols) {
    if (c >= in.num_fields()) {
      return Status::InvalidArgument("group column out of range");
    }
    keys.push_back(MakeColumnRef(c, in.field(c).type, in.field(c).name));
    fields.push_back(in.field(c));
  }
  for (const AggregateSpec& spec : aggregates) {
    fields.push_back(Field{spec.name, spec.result_type, true});
  }
  ExecContext context;
  AGORA_ASSIGN_OR_RETURN(PhysicalOpPtr scan,
                         ScanOf(in, input.data, /*positions=*/false, &context));
  AnnotatedRelation out;
  out.schema = Schema(std::move(fields));
  PhysicalHashAggregate aggregate(std::move(scan), std::move(keys),
                                  aggregates, out.schema, &context);
  AGORA_ASSIGN_OR_RETURN(out.data, CollectAll(&aggregate));
  if (!capture) return out;

  std::vector<uint32_t> gids(input.num_rows(), 0);
  if (!group_cols.empty()) {
    std::vector<ColumnVector> input_keys, output_keys;
    for (size_t k = 0; k < group_cols.size(); ++k) {
      input_keys.push_back(input.data.column(group_cols[k]));
      output_keys.push_back(out.data.column(k));
    }
    AGORA_RETURN_IF_ERROR(GroupIds(input_keys, output_keys, &gids));
  }
  for (const TableLineage& t : input.lineage) {
    std::vector<Piece> pieces;
    for (size_t i = 0; i < gids.size(); ++i) pieces.push_back({gids[i], &t, i});
    out.lineage.push_back(Assemble(t.table, out.num_rows(), pieces));
  }
  return out;
}

Result<std::vector<LineageRef>> TraceRow(const AnnotatedRelation& relation,
                                         size_t row,
                                         const std::string& table) {
  if (row >= relation.num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " out of range");
  }
  if (relation.lineage.empty()) {
    return Status::InvalidArgument(
        "relation has no lineage (capture was disabled)");
  }
  std::vector<LineageRef> out;
  for (const TableLineage& t : relation.lineage) {
    if (!table.empty() && t.table != table) continue;
    for (size_t k = t.offsets[row]; k < t.offsets[row + 1]; ++k) {
      out.push_back(LineageRef{t.table, t.rows[k]});
    }
  }
  return out;
}

}  // namespace agora
