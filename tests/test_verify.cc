// Tests for the AGORA_VERIFY debug verification layer: chunk checks at
// operator boundaries, selection-vector bounds, and optimizer plan
// invariants. Each verifier is fed deliberately corrupted input and must
// fire with a descriptive Internal status — and stay silent on valid
// input and when verification is disabled.

#include <gtest/gtest.h>

#include "common/verify.h"
#include "engine/database.h"
#include "exec/physical_op.h"
#include "expr/expr.h"
#include "fts/inverted_index.h"
#include "optimizer/optimizer.h"
#include "optimizer/plan_verify.h"
#include "plan/logical_plan.h"
#include "storage/chunk_verify.h"
#include "storage/table.h"

namespace agora {
namespace {

/// Scopes the process-wide verification flag so a failing assertion never
/// leaks an enabled verifier into unrelated tests.
class ScopedVerification {
 public:
  explicit ScopedVerification(bool enabled) {
    SetVerificationEnabled(enabled);
  }
  ~ScopedVerification() { SetVerificationEnabled(false); }
};

Schema TwoColumnSchema() {
  Schema s;
  s.AddField({"id", TypeId::kInt64, true});
  s.AddField({"name", TypeId::kString, true});
  return s;
}

Chunk ValidChunk() {
  Chunk chunk(TwoColumnSchema());
  chunk.AppendRow({Value::Int64(1), Value::String("a")});
  chunk.AppendRow({Value::Int64(2), Value::String("b")});
  return chunk;
}

// -- ChunkVerifier -------------------------------------------------------

TEST(ChunkVerifyTest, ValidChunkPasses) {
  EXPECT_TRUE(VerifyChunk(ValidChunk(), TwoColumnSchema(), "op", false).ok());
  EXPECT_TRUE(VerifyChunk(ValidChunk(), TwoColumnSchema(), "op", true).ok());
}

TEST(ChunkVerifyTest, ColumnCountMismatchFires) {
  Chunk chunk;
  ColumnVector col(TypeId::kInt64);
  col.AppendInt64(1);
  chunk.AddColumn(std::move(col));
  Status s = VerifyChunk(chunk, TwoColumnSchema(), "Project", true);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("Project"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("1 columns"), std::string::npos) << s.message();
}

TEST(ChunkVerifyTest, ColumnTypeMismatchFires) {
  Chunk chunk;
  ColumnVector id(TypeId::kInt64);
  id.AppendInt64(1);
  ColumnVector name(TypeId::kInt64);  // schema says kString
  name.AppendInt64(2);
  chunk.AddColumn(std::move(id));
  chunk.AddColumn(std::move(name));
  Status s = VerifyChunk(chunk, TwoColumnSchema(), "Scan", false);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("name"), std::string::npos) << s.message();
}

TEST(ChunkVerifyTest, ColumnlessChunkOnlyLegalAtEndOfStream) {
  Chunk sentinel;
  EXPECT_TRUE(VerifyChunk(sentinel, TwoColumnSchema(), "op", true).ok());
  Status s = VerifyChunk(sentinel, TwoColumnSchema(), "op", false);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("end of stream"), std::string::npos)
      << s.message();
}

TEST(ChunkVerifyTest, EmptyChunkWithoutDoneViolatesProtocol) {
  Chunk empty(TwoColumnSchema());
  EXPECT_TRUE(VerifyChunk(empty, TwoColumnSchema(), "op", true).ok());
  Status s = VerifyChunk(empty, TwoColumnSchema(), "op", false);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("producer protocol"), std::string::npos)
      << s.message();
}

TEST(ChunkVerifyTest, RowCountDisagreementFires) {
  Chunk chunk;
  ColumnVector id(TypeId::kInt64);
  id.AppendInt64(1);
  id.AppendInt64(2);
  ColumnVector name(TypeId::kString);
  name.AppendString("only one row");
  chunk.AddColumn(std::move(id));
  chunk.AddColumn(std::move(name));
  Status s = VerifyChunk(chunk, TwoColumnSchema(), "Join", false);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("rows"), std::string::npos) << s.message();
}

TEST(ChunkVerifyTest, ZeroFieldSchemaAllowsColumnlessChunks) {
  Chunk counts;
  counts.SetExplicitRowCount(42);
  EXPECT_TRUE(VerifyChunk(counts, Schema(), "Aggregate", false).ok());
}

TEST(ColumnConsistencyTest, TypelessColumnWithRowsFires) {
  ColumnVector untyped;
  untyped.AppendNull();  // validity grows, no payload array exists
  Status s = untyped.CheckConsistency();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("invalid type"), std::string::npos)
      << s.message();
}

TEST(ColumnConsistencyTest, TypedColumnsPass) {
  ColumnVector col(TypeId::kString);
  col.AppendString("x");
  col.AppendNull();
  EXPECT_TRUE(col.CheckConsistency().ok());
}

/// An id column plus a dictionary-encoded name column ("a", "b", NULL,
/// "a"): the encoded form Table hands to scans.
Chunk DictionaryChunk() {
  Chunk chunk;
  ColumnVector id(TypeId::kInt64);
  ColumnVector name = ColumnVector::MakeDictionary();
  for (int64_t i = 0; i < 4; ++i) id.AppendInt64(i);
  name.AppendString("a");
  name.AppendString("b");
  name.AppendNull();
  name.AppendString("a");
  chunk.AddColumn(std::move(id));
  chunk.AddColumn(std::move(name));
  return chunk;
}

TEST(ChunkVerifyTest, DictionaryColumnPasses) {
  Chunk chunk = DictionaryChunk();
  ASSERT_TRUE(chunk.column(1).is_dictionary());
  EXPECT_TRUE(VerifyChunk(chunk, TwoColumnSchema(), "Scan", false).ok());
}

TEST(ColumnConsistencyTest, OutOfRangeDictionaryCodeFires) {
  Chunk chunk = DictionaryChunk();
  // Two entries ("a", "b"): code 7 names nothing.
  chunk.column(1).mutable_codes_data()[3] = 7;
  Status s = VerifyChunk(chunk, TwoColumnSchema(), "Scan", false);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("Scan"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("dictionary code 7 at row 3 is out of range"),
            std::string::npos)
      << s.message();
}

TEST(ColumnConsistencyTest, CodeOfNullRowIsNotChecked) {
  Chunk chunk = DictionaryChunk();
  chunk.column(1).mutable_codes_data()[2] = 7;  // row 2 is NULL
  EXPECT_TRUE(chunk.column(1).CheckConsistency().ok());
}

// -- Selection verification ---------------------------------------------

TEST(SelectionVerifyTest, InRangeSelectionPasses) {
  EXPECT_TRUE(VerifySelection({0, 2, 1}, 3, "Filter").ok());
  EXPECT_TRUE(VerifySelection({}, 0, "Filter").ok());
}

TEST(SelectionVerifyTest, OutOfRangeIndexFires) {
  Status s = VerifySelection({0, 1, 5}, 3, "Filter");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("index 5"), std::string::npos) << s.message();
  EXPECT_NE(s.message().find("Filter"), std::string::npos) << s.message();
}

// -- Operator-boundary hook ----------------------------------------------

/// Emits a chunk with fewer columns than its declared schema: exactly the
/// corruption the Next() wrapper must catch when verification is on.
class CorruptOperator : public PhysicalOperator {
 public:
  CorruptOperator(Schema schema, ExecContext* context)
      : PhysicalOperator(std::move(schema), context) {}
  std::string name() const override { return "CorruptTest"; }

 protected:
  Status OpenImpl() override { return Status::OK(); }
  Status NextImpl(Chunk* chunk, bool* done) override {
    Chunk bad;
    ColumnVector col(TypeId::kInt64);
    col.AppendInt64(7);
    bad.AddColumn(std::move(col));
    *chunk = std::move(bad);
    *done = true;
    return Status::OK();
  }
};

TEST(OperatorBoundaryTest, NextWrapperCatchesCorruptChunk) {
  ScopedVerification verify(true);
  ExecContext context;
  CorruptOperator op(TwoColumnSchema(), &context);
  ASSERT_TRUE(op.Open().ok());
  Chunk chunk;
  bool done = false;
  Status s = op.Next(&chunk, &done);
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("chunk verification failed"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("CorruptTest"), std::string::npos)
      << s.message();
}

TEST(OperatorBoundaryTest, DisabledVerificationSkipsTheCheck) {
  ScopedVerification verify(false);
  ExecContext context;
  CorruptOperator op(TwoColumnSchema(), &context);
  ASSERT_TRUE(op.Open().ok());
  Chunk chunk;
  bool done = false;
  EXPECT_TRUE(op.Next(&chunk, &done).ok());
}

// -- PlanVerifier --------------------------------------------------------

std::shared_ptr<Table> MakeTestTable() {
  auto table = std::make_shared<Table>("t", TwoColumnSchema());
  EXPECT_TRUE(table->AppendRow({Value::Int64(1), Value::String("a")}).ok());
  EXPECT_TRUE(table->AppendRow({Value::Int64(2), Value::String("b")}).ok());
  return table;
}

TEST(PlanVerifyTest, ValidPlanPasses) {
  auto scan = std::make_shared<LogicalScan>(MakeTestTable(), "t");
  auto filter = std::make_shared<LogicalFilter>(
      scan, MakeCompare(CompareOp::kGt, MakeColumnRef(0, TypeId::kInt64, "id"),
                        MakeLiteral(Value::Int64(0))));
  EXPECT_TRUE(VerifyPlan(filter.get(), "test").ok());
}

TEST(PlanVerifyTest, UnresolvedColumnBindingFires) {
  auto scan = std::make_shared<LogicalScan>(MakeTestTable(), "t");
  auto filter = std::make_shared<LogicalFilter>(
      scan, MakeCompare(CompareOp::kGt, MakeColumnRef(7, TypeId::kInt64, "x"),
                        MakeLiteral(Value::Int64(0))));
  Status s = VerifyPlan(filter.get(), "after BadPass");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("references column 7"), std::string::npos)
      << s.message();
  EXPECT_NE(s.message().find("after BadPass"), std::string::npos)
      << s.message();
}

TEST(PlanVerifyTest, NullChildFires) {
  auto scan = std::make_shared<LogicalScan>(MakeTestTable(), "t");
  auto filter = std::make_shared<LogicalFilter>(
      scan, MakeCompare(CompareOp::kGt, MakeColumnRef(0, TypeId::kInt64, "id"),
                        MakeLiteral(Value::Int64(0))));
  filter->mutable_children()[0] = nullptr;
  Status s = VerifyPlan(filter.get(), "test");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("null child"), std::string::npos) << s.message();
}

TEST(PlanVerifyTest, ScoreFusionWithoutRankingLeafFires) {
  auto table = MakeTestTable();
  InvertedIndex index;
  auto text = std::make_shared<LogicalTextMatch>("t", "name", "query", &index);
  auto fusion = std::make_shared<LogicalScoreFusion>(
      table, "t", /*k=*/5, FusionParams{}, HybridExecOptions{},
      /*filter=*/nullptr, text, /*vector_child=*/nullptr);
  EXPECT_TRUE(VerifyPlan(fusion.get(), "test").ok());
  fusion->mutable_children().clear();
  Status s = VerifyPlan(fusion.get(), "test");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("ranking lea"), std::string::npos)
      << s.message();
}

TEST(PlanVerifyTest, NegativeCostAnnotationFires) {
  auto table = MakeTestTable();
  InvertedIndex index;
  auto text = std::make_shared<LogicalTextMatch>("t", "name", "query", &index);
  auto fusion = std::make_shared<LogicalScoreFusion>(
      table, "t", /*k=*/5, FusionParams{}, HybridExecOptions{},
      /*filter=*/nullptr, text, /*vector_child=*/nullptr);
  fusion->SetCostEstimates(/*selectivity=*/0.5, /*cost_pre=*/-1.0,
                           /*cost_post=*/2.0);
  Status s = VerifyPlan(fusion.get(), "test");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("negative fusion cost"), std::string::npos)
      << s.message();
}

TEST(PlanVerifyTest, SelectivityOutsideUnitIntervalFires) {
  auto table = MakeTestTable();
  InvertedIndex index;
  auto text = std::make_shared<LogicalTextMatch>("t", "name", "query", &index);
  auto fusion = std::make_shared<LogicalScoreFusion>(
      table, "t", /*k=*/5, FusionParams{}, HybridExecOptions{},
      /*filter=*/nullptr, text, /*vector_child=*/nullptr);
  fusion->SetCostEstimates(/*selectivity=*/1.5, /*cost_pre=*/1.0,
                           /*cost_post=*/2.0);
  Status s = VerifyPlan(fusion.get(), "test");
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("selectivity"), std::string::npos)
      << s.message();
}

TEST(PlanVerifyTest, OptimizerNamesTheFailingPhase) {
  ScopedVerification verify(true);
  auto scan = std::make_shared<LogicalScan>(MakeTestTable(), "t");
  auto filter = std::make_shared<LogicalFilter>(
      scan, MakeCompare(CompareOp::kGt, MakeColumnRef(9, TypeId::kInt64, "x"),
                        MakeLiteral(Value::Int64(0))));
  Optimizer optimizer;
  auto result = optimizer.Optimize(filter);
  ASSERT_FALSE(result.ok());
  EXPECT_NE(result.status().message().find("before optimization"),
            std::string::npos)
      << result.status().ToString();
}

// -- End-to-end: real queries stay clean under verification --------------

TEST(VerifyIntegrationTest, RealQueriesPassWithVerificationOn) {
  ScopedVerification verify(true);
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE v (id BIGINT, name VARCHAR)").ok());
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(db.Execute("INSERT INTO v VALUES (" + std::to_string(i) +
                           ", 'n" + std::to_string(i % 7) + "')")
                    .ok());
  }
  auto distinct =
      db.Execute("SELECT DISTINCT name FROM v ORDER BY name");
  ASSERT_TRUE(distinct.ok()) << distinct.status().ToString();
  auto join = db.Execute(
      "SELECT a.id, b.name FROM v a, v b "
      "WHERE a.id = b.id AND a.id < 10");
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  auto agg = db.Execute(
      "SELECT name, COUNT(*), SUM(id) FROM v GROUP BY name");
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
}

// -- Maintained derived state ---------------------------------------------

/// A table with zone maps and an index on `id`, written through SQL.
std::shared_ptr<Table> IndexedTable(Database* db) {
  EXPECT_TRUE(db->Execute("CREATE TABLE w (id BIGINT, v DOUBLE)").ok());
  std::string sql = "INSERT INTO w VALUES ";
  for (int i = 0; i < 3000; ++i) {
    sql += (i == 0 ? "(" : ", (") + std::to_string(i) + ", " +
           std::to_string(i % 11) + ".5)";
  }
  EXPECT_TRUE(db->Execute(sql).ok());
  EXPECT_TRUE(db->Execute("CREATE INDEX w_id ON w (id)").ok());
  EXPECT_TRUE(db->Execute("SELECT * FROM w WHERE v > 3").ok());
  auto table = db->catalog().GetTable("w");
  EXPECT_TRUE(table.ok());
  return table.ok() ? *table : nullptr;
}

TEST(DerivedStateVerifyTest, MaintainedStatePassesAfterEveryWrite) {
  ScopedVerification verify(true);
  Database db;
  std::shared_ptr<Table> table = IndexedTable(&db);
  ASSERT_NE(table, nullptr);
  ASSERT_TRUE(table->HasZoneMaps());
  for (const char* sql :
       {"INSERT INTO w VALUES (5000, 1.5), (NULL, NULL)",
        "UPDATE w SET v = v * 2, id = id + 1 WHERE id IN (7, 2100, 5000)",
        "UPDATE w SET id = NULL WHERE v > 20", "DELETE FROM w WHERE v < 2"}) {
    auto result = db.Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
  }
  EXPECT_TRUE(table->VerifyDerived().ok());
}

TEST(DerivedStateVerifyTest, StaleZoneMapFires) {
  ScopedVerification verify(true);
  Database db;
  std::shared_ptr<Table> table = IndexedTable(&db);
  ASSERT_NE(table, nullptr);
  // Corrupt the published set in place (never done outside this test).
  auto maps = std::const_pointer_cast<ZoneMapSet>(table->zone_maps());
  ASSERT_NE(maps, nullptr);
  maps->at(1).blocks[0].max = 1e9;
  Status s = table->VerifyDerived();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("column 1 block 0"), std::string::npos)
      << s.message();
  // The statement that runs the check fails with the Status; the engine
  // stays usable.
  auto insert = db.Execute("INSERT INTO w VALUES (1, 1.0)");
  ASSERT_FALSE(insert.ok());
  EXPECT_EQ(insert.status().code(), StatusCode::kInternal);
  EXPECT_TRUE(db.Execute("SELECT COUNT(*) FROM w").ok());
}

TEST(DerivedStateVerifyTest, IndexEntryUnderWrongHashFires) {
  ScopedVerification verify(true);
  Database db;
  std::shared_ptr<Table> table = IndexedTable(&db);
  ASSERT_NE(table, nullptr);
  auto index = std::const_pointer_cast<HashIndex>(table->GetHashIndex(0));
  ASSERT_NE(index, nullptr);
  index->Erase({table->column(0).HashRow(10)}, {10});
  index->Insert(12345, 10);
  Status s = table->VerifyDerived();
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kInternal);
  EXPECT_NE(s.message().find("stale hash"), std::string::npos) << s.message();

  index->Erase({12345}, {10});  // now row 10 is missing entirely
  s = table->VerifyDerived();
  ASSERT_FALSE(s.ok());
  EXPECT_NE(s.message().find("2999 entries for 3000 non-NULL rows"),
            std::string::npos)
      << s.message();
  auto del = db.Execute("DELETE FROM w WHERE id = 3");
  EXPECT_TRUE(del.ok()) << "DELETE rebuilds the index, so the check passes";
}

}  // namespace
}  // namespace agora
