#include "engine/database.h"

#include <algorithm>
#include <cerrno>
#include <cstdlib>
#include <limits>

#include "common/timer.h"
#include "common/verify.h"
#include "exec/parallel.h"
#include "expr/expr_rewrite.h"
#include "plan/binder.h"
#include "sql/parser.h"
#include "storage/csv.h"

namespace agora {

Value QueryResult::GetByName(size_t row, const std::string& column) const {
  auto idx = schema_.FindField(column);
  AGORA_CHECK(idx.has_value()) << "no column named '" << column << "'";
  return Get(row, *idx);
}

std::string QueryResult::ToString(size_t max_rows) const {
  // Compute column widths over header + visible rows.
  size_t cols = schema_.num_fields();
  size_t rows = std::min(num_rows(), max_rows);
  std::vector<size_t> width(cols);
  std::vector<std::vector<std::string>> cells(rows);
  for (size_t c = 0; c < cols; ++c) {
    width[c] = schema_.field(c).name.size();
  }
  for (size_t r = 0; r < rows; ++r) {
    cells[r].resize(cols);
    for (size_t c = 0; c < cols; ++c) {
      cells[r][c] = data_.column(c).GetValue(r).ToString();
      width[c] = std::max(width[c], cells[r][c].size());
    }
  }
  auto pad = [](const std::string& s, size_t w) {
    return s + std::string(w - s.size(), ' ');
  };
  std::string out;
  for (size_t c = 0; c < cols; ++c) {
    if (c > 0) out += " | ";
    out += pad(schema_.field(c).name, width[c]);
  }
  out += '\n';
  for (size_t c = 0; c < cols; ++c) {
    if (c > 0) out += "-+-";
    out += std::string(width[c], '-');
  }
  out += '\n';
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      if (c > 0) out += " | ";
      out += pad(cells[r][c], width[c]);
    }
    out += '\n';
  }
  if (num_rows() > max_rows) {
    out += "... (" + std::to_string(num_rows() - max_rows) + " more rows)\n";
  }
  out += "(" + std::to_string(num_rows()) + " rows)\n";
  return out;
}

namespace {

/// Parses a byte-size string: plain bytes with an optional k/m/g suffix
/// (case-insensitive, powers of 1024). Returns 0 (= unlimited) on empty
/// or malformed input, including sizes that overflow int64_t — a bad
/// knob must never make the engine reject every query.
int64_t ParseByteSize(const char* text) {
  if (text == nullptr || *text == '\0') return 0;
  char* end = nullptr;
  errno = 0;
  long long value = std::strtoll(text, &end, 10);
  if (end == text || value < 0 || errno == ERANGE) return 0;
  int64_t scale = 1;
  if (*end == 'k' || *end == 'K') scale = int64_t{1} << 10;
  if (*end == 'm' || *end == 'M') scale = int64_t{1} << 20;
  if (*end == 'g' || *end == 'G') scale = int64_t{1} << 30;
  if (value > std::numeric_limits<int64_t>::max() / scale) return 0;
  return static_cast<int64_t>(value) * scale;
}

}  // namespace

Database::Database(DatabaseOptions options)
    : options_(options),
      optimizer_(options.optimizer),
      memory_root_(std::make_shared<MemoryTracker>("engine")) {
  memory_root_->set_budget(ParseByteSize(std::getenv("AGORA_MEM_BUDGET")));
}

namespace {

Status EngineWaitExpired() {
  return Status::DeadlineExceeded(
      "query deadline expired while waiting for the engine");
}

}  // namespace

Result<QueryResult> Database::Execute(const std::string& sql,
                                      const QueryControl* control) {
  AGORA_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  metrics_.Add("statements_total", 1.0);
  // The parsed statement alone picks the side of the engine lock: a
  // SELECT, bare or explained, only reads and shares it.
  if (auto* select = std::get_if<SelectStatement>(&stmt.node)) {
    DeadlineReadGuard engine(engine_mu_, control);
    if (!engine.held()) return EngineWaitExpired();
    return ExecuteSelect(*select, stmt.explain, stmt.analyze, control);
  }
  if (stmt.explain) {
    // The parser accepts EXPLAIN before every statement kind but only the
    // SELECT path implements it. Reject the rest instead of silently
    // executing the wrapped statement.
    return Status::InvalidArgument("EXPLAIN supports SELECT only");
  }
  DeadlineWriteGuard engine(engine_mu_, control);
  if (!engine.held()) return EngineWaitExpired();
  if (auto* create = std::get_if<CreateTableStatement>(&stmt.node)) {
    return ExecuteCreateTable(*create);
  }
  if (auto* drop = std::get_if<DropTableStatement>(&stmt.node)) {
    return ExecuteDropTable(*drop);
  }
  if (auto* insert = std::get_if<InsertStatement>(&stmt.node)) {
    return ExecuteInsert(*insert);
  }
  if (auto* index = std::get_if<CreateIndexStatement>(&stmt.node)) {
    return ExecuteCreateIndex(*index);
  }
  if (auto* update = std::get_if<UpdateStatement>(&stmt.node)) {
    return ExecuteUpdate(*update);
  }
  if (auto* del = std::get_if<DeleteStatement>(&stmt.node)) {
    return ExecuteDelete(*del);
  }
  if (auto* copy = std::get_if<CopyStatement>(&stmt.node)) {
    return ExecuteCopy(*copy);
  }
  return Status::Internal("unhandled statement kind");
}

Result<std::string> Database::Explain(const std::string& sql) {
  AGORA_ASSIGN_OR_RETURN(Statement stmt, ParseStatement(sql));
  auto* select = std::get_if<SelectStatement>(&stmt.node);
  if (select == nullptr) {
    return Status::InvalidArgument("EXPLAIN supports SELECT only");
  }
  DeadlineReadGuard engine(engine_mu_, nullptr);
  AGORA_ASSIGN_OR_RETURN(LogicalOpPtr plan, PlanSelectLocked(*select));
  return plan->TreeString();
}

Result<LogicalOpPtr> Database::PlanSelect(const SelectStatement& select) {
  DeadlineReadGuard engine(engine_mu_, nullptr);
  return PlanSelectLocked(select);
}

Result<QueryResult> Database::ExecutePlan(const LogicalOpPtr& plan,
                                          const QueryControl* control) {
  DeadlineReadGuard engine(engine_mu_, control);
  if (!engine.held()) return EngineWaitExpired();
  return ExecutePlanLocked(plan, control);
}

Result<LogicalOpPtr> Database::PlanSelectLocked(
    const SelectStatement& select) {
  Binder binder(catalog_);
  AGORA_ASSIGN_OR_RETURN(LogicalOpPtr plan, binder.BindSelect(select));
  return optimizer_.Optimize(std::move(plan));
}

Result<QueryResult> Database::ExecutePlanLocked(const LogicalOpPtr& plan,
                                                const QueryControl* control) {
  // Admission: with the engine already over its budget (previous results
  // still pinned), reject up front with the same Status operators return
  // mid-query — a cheap check that keeps an overcommitted engine from
  // digging deeper before the first chunk.
  Status admit = memory_root_->CheckBudget("admission");
  if (!admit.ok()) {
    // Nothing ran, so there are no per-query counters to fold in.
    metrics_.Add("mem_budget_rejections_total", 1.0);
    return admit;
  }
  // A control that is already expired fails here instead of paying for
  // plan creation (the server's timed-out-in-queue path).
  if (control != nullptr) {
    Status alive = control->Check("admission");
    if (!alive.ok()) {
      metrics_.Add("queries_cancelled_total", 1.0);
      return alive;
    }
  }
  // Every execution gets a fresh context, so per-query stats (and the
  // EXPLAIN ANALYZE profile derived from them) start from zero — running
  // the same analysis back to back reports identical counters. Exactly
  // one Record* call below folds them into the engine-wide registry.
  ExecContext context;
  context.control = control;
  // Per-query tracker: a child of the engine root, installed as the
  // thread's current tracker so every allocation owner built during plan
  // creation and execution charges this query. Result chunks keep the
  // tracker alive (their charges reference it); the root reservation
  // drops back once the QueryResult is destroyed.
  auto query_tracker =
      std::make_shared<MemoryTracker>("query", memory_root_);
  context.memory = query_tracker;
  if (query_tracker->budget_limited()) {
    context.spill = EnsureSpillManager();
  }
  context.spill_partitions =
      spill_partitions_.load(std::memory_order_relaxed);
  ScopedMemoryTracker tracker_scope(query_tracker);
  AGORA_ASSIGN_OR_RETURN(
      PhysicalOpPtr root,
      CreatePhysicalPlan(plan, &context, options_.physical));
  Timer timer;
  // The root collector itself runs through the morsel pipeline when the
  // whole plan is pipeline-shaped (e.g. scan-filter queries).
  Result<Chunk> collected = ParallelCollectAll(root.get(), &context);
  const double seconds = timer.ElapsedSeconds();
  context.stats.mem_bytes_reserved_peak =
      std::max(context.stats.mem_bytes_reserved_peak, query_tracker->peak());
  if (!collected.ok()) {
    // Budget exhaustion is a per-query failure, never a process failure:
    // count it, fold the partial counters in, and hand the Status back
    // with the engine fully usable for the next statement.
    if (collected.status().code() == StatusCode::kResourceExhausted) {
      context.stats.mem_budget_rejections += 1;
    }
    if (collected.status().code() == StatusCode::kDeadlineExceeded) {
      metrics_.Add("queries_cancelled_total", 1.0);
    }
    RecordExecCounters(context.stats);
    return collected.status();
  }
  Chunk data = std::move(collected).value();
  std::vector<OperatorProfileNode> profile =
      CollectProfile(root.get(), context.stats);
  RecordQueryMetrics(context.stats, profile, seconds, data.num_rows());
  return QueryResult(plan->schema(), std::move(data), context.stats,
                     std::move(profile));
}

SpillManager* Database::EnsureSpillManager() {
  MutexLock lock(spill_mu_);
  if (spill_ == nullptr) {
    spill_ = std::make_unique<SpillManager>(spill_dir_);
  }
  return spill_.get();
}

void Database::RecordQueryMetrics(
    const ExecStats& stats, const std::vector<OperatorProfileNode>& profile,
    double seconds, size_t result_rows) {
  RecordExecCounters(stats);
  metrics_.Add("queries_total", 1.0);
  metrics_.Add("query_seconds_total", seconds);
  metrics_.Add("joules_proxy_total", stats.JoulesProxy());
  // Per-operator-class series (label "op"), fed by the timing spans.
  for (const OperatorProfileNode& node : profile) {
    metrics_.Add("operator_busy_seconds_total", node.name,
                 static_cast<double>(node.busy_ns) / 1e9);
    metrics_.Add("operator_rows_total", node.name,
                 static_cast<double>(node.rows_out));
    metrics_.Add("operator_invocations_total", node.name,
                 static_cast<double>(node.invocations));
  }
  metrics_.SetGauge("last_query_seconds", seconds);
  metrics_.SetGauge("last_query_rows", static_cast<double>(result_rows));
  metrics_.SetGauge("execution_threads",
                    static_cast<double>(options_.physical.num_threads));
}

void Database::RecordExecCounters(const ExecStats& stats) {
  for (const ExecCounter& c : kExecCounters) {
    const double value = static_cast<double>(stats.*c.member);
    if (c.merge == CounterMerge::kMax) {
      metrics_.SetGauge(c.metric, value);
    } else {
      metrics_.Add(c.metric, value);
    }
  }
}

Result<QueryResult> Database::ExecuteSelect(const SelectStatement& select,
                                            bool explain, bool analyze,
                                            const QueryControl* control) {
  AGORA_ASSIGN_OR_RETURN(LogicalOpPtr plan, PlanSelectLocked(select));
  if (explain) {
    std::string text = plan->TreeString();
    ExecStats stats;
    if (analyze) {
      // EXPLAIN ANALYZE: run the plan for real (in its own fresh context,
      // so repeated analyses report identical counters), then report the
      // per-operator profile and counter totals under the plan text. The
      // result rows themselves are discarded.
      AGORA_ASSIGN_OR_RETURN(QueryResult executed,
                             ExecutePlanLocked(plan, control));
      stats = executed.stats();
      text += "\n[analyze] rows=" + std::to_string(executed.num_rows());
      text += "\n" + RenderProfileTree(executed.profile());
      text += "\n[analyze] totals: " + stats.ToString();
    }
    Schema schema({Field{"plan", TypeId::kString, false}});
    Chunk data(schema);
    data.AppendRow({Value::String(std::move(text))});
    return QueryResult(std::move(schema), std::move(data), stats);
  }
  return ExecutePlanLocked(plan, control);
}

Result<QueryResult> Database::ExecuteCreateTable(
    const CreateTableStatement& stmt) {
  if (stmt.if_not_exists && catalog_.HasTable(stmt.table)) {
    return QueryResult();
  }
  std::vector<Field> fields;
  for (const ColumnDef& def : stmt.columns) {
    fields.push_back(Field{def.name, def.type, true});
  }
  AGORA_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                         catalog_.CreateTable(stmt.table,
                                              Schema(std::move(fields))));
  (void)table;
  return QueryResult();
}

Result<QueryResult> Database::ExecuteDropTable(
    const DropTableStatement& stmt) {
  // Capture the id before the catalog releases its reference so the
  // planner's stats cache can drop the dead entry. Housekeeping only:
  // ids are never reused, so a stale entry could not be served to a
  // successor table either way.
  Result<std::shared_ptr<Table>> table = catalog_.GetTable(stmt.table);
  Status status = catalog_.DropTable(stmt.table);
  if (!status.ok() && !(stmt.if_exists &&
                        status.code() == StatusCode::kNotFound)) {
    return status;
  }
  if (table.ok()) {
    optimizer_.estimator().stats_cache()->Evict(table.value()->id());
  }
  return QueryResult();
}

namespace {

/// AGORA_VERIFY: the zone maps and indexes a write maintained must equal
/// a rebuild. Runs after the write, so a mismatch fails the statement
/// with the data already changed.
Status VerifyWrite(const Table& table) {
  return VerificationEnabled() ? table.VerifyDerived() : Status::OK();
}

}  // namespace

Result<QueryResult> Database::ExecuteInsert(const InsertStatement& stmt) {
  AGORA_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                         catalog_.GetTable(stmt.table));
  const Schema& schema = table->schema();

  // Resolve the target column order.
  std::vector<size_t> target_cols;
  if (stmt.columns.empty()) {
    for (size_t i = 0; i < schema.num_fields(); ++i) target_cols.push_back(i);
  } else {
    for (const std::string& name : stmt.columns) {
      AGORA_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(name));
      target_cols.push_back(idx);
    }
  }

  // All rows go into one chunk and the table in one append, so a bad
  // row leaves the table untouched.
  Binder binder(catalog_);
  Schema empty;
  Chunk rows(schema);
  for (const auto& row_exprs : stmt.rows) {
    if (row_exprs.size() != target_cols.size()) {
      return Status::InvalidArgument(
          "INSERT row has " + std::to_string(row_exprs.size()) +
          " values, expected " + std::to_string(target_cols.size()));
    }
    std::vector<Value> row(schema.num_fields());  // default NULL
    for (size_t i = 0; i < row_exprs.size(); ++i) {
      AGORA_ASSIGN_OR_RETURN(ExprPtr bound,
                             binder.BindScalarExpr(row_exprs[i], empty));
      if (!bound->IsConstant()) {
        return Status::InvalidArgument(
            "INSERT values must be constant expressions");
      }
      AGORA_ASSIGN_OR_RETURN(Value v, bound->EvaluateScalar());
      TypeId want = schema.field(target_cols[i]).type;
      if (!v.is_null() && v.type() != want) {
        AGORA_ASSIGN_OR_RETURN(v, v.CastTo(want));
      }
      row[target_cols[i]] = std::move(v);
    }
    rows.AppendRow(row);
  }
  AGORA_RETURN_IF_ERROR(table->AppendChunk(rows));
  AGORA_RETURN_IF_ERROR(VerifyWrite(*table));
  return QueryResult();
}

namespace {

/// One-row result reporting how many rows a DML statement touched.
QueryResult RowsAffected(int64_t n) {
  Schema schema({Field{"rows_affected", TypeId::kInt64, false}});
  Chunk data(schema);
  data.AppendRow({Value::Int64(n)});
  return QueryResult(std::move(schema), std::move(data), ExecStats{});
}

}  // namespace

Result<std::vector<uint32_t>> Database::FindRows(
    const std::shared_ptr<Table>& table, const ParsedExprPtr& where) {
  ExprPtr pred;
  if (where != nullptr) {
    Binder binder(catalog_);
    AGORA_ASSIGN_OR_RETURN(pred, binder.BindScalarExpr(where, table->schema()));
    if (pred->result_type() != TypeId::kBool) {
      return Status::TypeError("WHERE clause must be BOOLEAN");
    }
    pred = FoldConstants(pred);
  }
  ExecContext context;
  AGORA_ASSIGN_OR_RETURN(
      PhysicalOpPtr scan,
      CreateRowIdScan(table, std::move(pred), &context, options_.physical));
  AGORA_ASSIGN_OR_RETURN(Chunk ids, ParallelCollectAll(scan.get(), &context));
  std::vector<uint32_t> rows(ids.num_rows());
  for (size_t i = 0; i < rows.size(); ++i) {
    rows[i] = static_cast<uint32_t>(ids.column(0).GetInt64(i));
  }
  return rows;
}

Result<QueryResult> Database::ExecuteUpdate(const UpdateStatement& stmt) {
  AGORA_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                         catalog_.GetTable(stmt.table));
  const Schema& schema = table->schema();
  Binder binder(catalog_);
  // Resolve assignment targets and bind their value expressions against
  // the (pre-update) row, cast to the column type. A column assigned
  // twice takes its last assignment.
  std::vector<size_t> target_cols;
  std::vector<ExprPtr> value_exprs;
  for (const auto& [column, parsed] : stmt.assignments) {
    AGORA_ASSIGN_OR_RETURN(size_t idx, schema.FieldIndex(column));
    AGORA_ASSIGN_OR_RETURN(ExprPtr bound,
                           binder.BindScalarExpr(parsed, schema));
    if (bound->result_type() != schema.field(idx).type) {
      bound = std::make_shared<CastExpr>(std::move(bound),
                                         schema.field(idx).type);
    }
    auto it = std::find(target_cols.begin(), target_cols.end(), idx);
    if (it != target_cols.end()) {
      value_exprs[it - target_cols.begin()] = std::move(bound);
      continue;
    }
    target_cols.push_back(idx);
    value_exprs.push_back(std::move(bound));
  }
  AGORA_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                         FindRows(table, stmt.where));
  if (rows.empty()) return RowsAffected(0);
  // Every SET expression reads the pre-update values of the matched rows
  // (standard SQL semantics): all are evaluated before any is written.
  Chunk matched = table->GetChunk(0, table->num_rows()).GatherRows(rows);
  std::vector<ColumnVector> new_values(value_exprs.size());
  for (size_t a = 0; a < value_exprs.size(); ++a) {
    AGORA_RETURN_IF_ERROR(value_exprs[a]->Evaluate(matched, &new_values[a]));
  }
  AGORA_RETURN_IF_ERROR(table->UpdateRows(rows, target_cols, new_values));
  AGORA_RETURN_IF_ERROR(VerifyWrite(*table));
  return RowsAffected(static_cast<int64_t>(rows.size()));
}

Result<QueryResult> Database::ExecuteDelete(const DeleteStatement& stmt) {
  AGORA_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                         catalog_.GetTable(stmt.table));
  AGORA_ASSIGN_OR_RETURN(std::vector<uint32_t> rows,
                         FindRows(table, stmt.where));
  std::vector<uint32_t> keep;
  keep.reserve(table->num_rows() - rows.size());
  size_t next = 0;
  for (uint32_t r = 0; r < table->num_rows(); ++r) {
    if (next < rows.size() && rows[next] == r) {
      ++next;
    } else {
      keep.push_back(r);
    }
  }
  AGORA_RETURN_IF_ERROR(table->RetainRows(keep));
  AGORA_RETURN_IF_ERROR(VerifyWrite(*table));
  return RowsAffected(static_cast<int64_t>(rows.size()));
}

Result<QueryResult> Database::ExecuteCopy(const CopyStatement& stmt) {
  if (stmt.is_from) {
    AGORA_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                           catalog_.GetTable(stmt.table));
    AGORA_ASSIGN_OR_RETURN(
        std::shared_ptr<Table> imported,
        ReadCsvFile(stmt.path, stmt.table, table->schema()));
    AGORA_RETURN_IF_ERROR(table->AppendChunk(
        imported->GetChunk(0, imported->num_rows())));
    AGORA_RETURN_IF_ERROR(VerifyWrite(*table));
    return RowsAffected(static_cast<int64_t>(imported->num_rows()));
  }
  AGORA_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                         catalog_.GetTable(stmt.table));
  AGORA_RETURN_IF_ERROR(WriteCsvFile(*table, stmt.path));
  return RowsAffected(static_cast<int64_t>(table->num_rows()));
}

Result<QueryResult> Database::ExecuteCreateIndex(
    const CreateIndexStatement& stmt) {
  AGORA_ASSIGN_OR_RETURN(std::shared_ptr<Table> table,
                         catalog_.GetTable(stmt.table));
  AGORA_ASSIGN_OR_RETURN(size_t column,
                         table->schema().FieldIndex(stmt.column));
  AGORA_RETURN_IF_ERROR(table->BuildHashIndex(stmt.index, column));
  return QueryResult();
}

}  // namespace agora
