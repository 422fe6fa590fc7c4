// Edge-case battery across modules: empty inputs, boundary limits,
// NULL-heavy data, and pathological-but-legal SQL.

#include <gtest/gtest.h>

#include "engine/database.h"
#include "hybrid/collection.h"
#include "pipeline/pipeline.h"
#include "pipeline/stages.h"

namespace agora {
namespace {

class EdgeCaseTest : public ::testing::Test {
 protected:
  QueryResult Exec(const std::string& sql) {
    auto r = db_.Execute(sql);
    EXPECT_TRUE(r.ok()) << sql << " -> " << r.status().ToString();
    return r.ok() ? std::move(*r) : QueryResult();
  }
  Database db_;
};

TEST_F(EdgeCaseTest, EmptyTableBehaviors) {
  Exec("CREATE TABLE e (a BIGINT, b VARCHAR)");
  EXPECT_EQ(Exec("SELECT * FROM e").num_rows(), 0u);
  // Scalar aggregates over empty input: COUNT = 0, others NULL.
  QueryResult agg = Exec("SELECT COUNT(*), SUM(a), MIN(a), AVG(a) FROM e");
  ASSERT_EQ(agg.num_rows(), 1u);
  EXPECT_EQ(agg.Get(0, 0).int64_value(), 0);
  EXPECT_TRUE(agg.Get(0, 1).is_null());
  EXPECT_TRUE(agg.Get(0, 2).is_null());
  EXPECT_TRUE(agg.Get(0, 3).is_null());
  // Grouped aggregate over empty input: zero groups.
  EXPECT_EQ(Exec("SELECT b, COUNT(*) FROM e GROUP BY b").num_rows(), 0u);
  // Joins with an empty side.
  Exec("CREATE TABLE f (a BIGINT)");
  Exec("INSERT INTO f VALUES (1), (2)");
  EXPECT_EQ(Exec("SELECT * FROM f JOIN e ON f.a = e.a").num_rows(), 0u);
  EXPECT_EQ(Exec("SELECT * FROM f LEFT JOIN e ON f.a = e.a").num_rows(),
            2u);
  // Sort/limit/distinct over empty input.
  EXPECT_EQ(Exec("SELECT DISTINCT a FROM e ORDER BY a LIMIT 5").num_rows(),
            0u);
  // DML over empty table.
  EXPECT_EQ(Exec("DELETE FROM e").GetByName(0, "rows_affected")
                .int64_value(),
            0);
  EXPECT_EQ(Exec("UPDATE e SET a = 1").GetByName(0, "rows_affected")
                .int64_value(),
            0);
}

TEST_F(EdgeCaseTest, LimitBoundaries) {
  Exec("CREATE TABLE t (a BIGINT)");
  Exec("INSERT INTO t VALUES (1), (2), (3)");
  EXPECT_EQ(Exec("SELECT a FROM t LIMIT 0").num_rows(), 0u);
  EXPECT_EQ(Exec("SELECT a FROM t LIMIT 99").num_rows(), 3u);
  EXPECT_EQ(Exec("SELECT a FROM t LIMIT 2 OFFSET 99").num_rows(), 0u);
  EXPECT_EQ(Exec("SELECT a FROM t ORDER BY a LIMIT 0").num_rows(), 0u);
  QueryResult r = Exec("SELECT a FROM t ORDER BY a DESC LIMIT 99 OFFSET 1");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.Get(0, 0).int64_value(), 2);
}

TEST_F(EdgeCaseTest, BigintBoundaryLiterals) {
  Exec("CREATE TABLE b (x BIGINT)");
  Exec("INSERT INTO b VALUES (-9223372036854775808), (-1), "
       "(9223372036854775807)");
  // No value is below INT64_MIN or above INT64_MAX.
  EXPECT_EQ(Exec("SELECT x FROM b WHERE x < -9223372036854775808").num_rows(),
            0u);
  EXPECT_EQ(Exec("SELECT x FROM b WHERE x > 9223372036854775807").num_rows(),
            0u);
  QueryResult min = Exec("SELECT x FROM b WHERE x = -9223372036854775808");
  ASSERT_EQ(min.num_rows(), 1u);
  EXPECT_EQ(min.Get(0, 0).int64_value(), INT64_MIN);
  // Out-of-range literals are parse errors, not saturated values.
  auto big = db_.Execute("SELECT x FROM b WHERE x < 99999999999999999999");
  ASSERT_FALSE(big.ok());
  EXPECT_EQ(big.status().code(), StatusCode::kParseError);
  // Negating INT64_MIN overflows at run time instead of wrapping.
  auto negated = db_.Execute("SELECT -(-9223372036854775808) FROM b");
  EXPECT_FALSE(negated.ok());
}

TEST_F(EdgeCaseTest, NullOnlyColumnAggregation) {
  Exec("CREATE TABLE n (g VARCHAR, x DOUBLE)");
  Exec("INSERT INTO n VALUES ('a', NULL), ('a', NULL), ('b', 1.5)");
  QueryResult r = Exec(
      "SELECT g, COUNT(*), COUNT(x), SUM(x), AVG(x) FROM n GROUP BY g "
      "ORDER BY g");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.Get(0, 1).int64_value(), 2);
  EXPECT_EQ(r.Get(0, 2).int64_value(), 0);
  EXPECT_TRUE(r.Get(0, 3).is_null());
  EXPECT_TRUE(r.Get(0, 4).is_null());
  EXPECT_DOUBLE_EQ(r.Get(1, 3).double_value(), 1.5);
  // NULL forms its own group.
  Exec("INSERT INTO n VALUES (NULL, 9.0)");
  EXPECT_EQ(Exec("SELECT g, COUNT(*) FROM n GROUP BY g").num_rows(), 3u);
}

TEST_F(EdgeCaseTest, GroupByExpressionAndConstants) {
  Exec("CREATE TABLE g (a BIGINT)");
  Exec("INSERT INTO g VALUES (1), (2), (3), (4)");
  QueryResult r = Exec(
      "SELECT a % 2, COUNT(*), 7 FROM g GROUP BY a % 2 ORDER BY 1");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.Get(0, 1).int64_value(), 2);
  EXPECT_EQ(r.Get(0, 2).int64_value(), 7);  // constant in agg select list
}

TEST_F(EdgeCaseTest, CaseWithoutElseYieldsNull) {
  Exec("CREATE TABLE c (a BIGINT)");
  Exec("INSERT INTO c VALUES (1), (5)");
  QueryResult r = Exec(
      "SELECT CASE WHEN a > 3 THEN 'big' END FROM c ORDER BY a");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_TRUE(r.Get(0, 0).is_null());
  EXPECT_EQ(r.Get(1, 0).string_value(), "big");
}

TEST_F(EdgeCaseTest, QuotedIdentifiers) {
  Exec("CREATE TABLE \"weird name\" (\"col one\" BIGINT)");
  Exec("INSERT INTO \"weird name\" VALUES (42)");
  QueryResult r = Exec("SELECT \"col one\" FROM \"weird name\"");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.Get(0, 0).int64_value(), 42);
}

TEST_F(EdgeCaseTest, SelfJoinWithAliases) {
  Exec("CREATE TABLE s (id BIGINT, boss BIGINT)");
  Exec("INSERT INTO s VALUES (1, NULL), (2, 1), (3, 1), (4, 2)");
  QueryResult r = Exec(
      "SELECT e.id, m.id FROM s e JOIN s m ON e.boss = m.id ORDER BY e.id");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.Get(0, 0).int64_value(), 2);
  EXPECT_EQ(r.Get(0, 1).int64_value(), 1);
}

TEST_F(EdgeCaseTest, ChunkBoundarySizes) {
  // Sizes straddling the 2048-row chunk boundary exercise slicing logic.
  for (int n : {2047, 2048, 2049, 4096}) {
    Database db;
    ASSERT_TRUE(db.Execute("CREATE TABLE t (a BIGINT)").ok());
    std::string sql;
    for (int i = 0; i < n; ++i) {
      if (sql.empty()) sql = "INSERT INTO t VALUES ";
      sql += "(" + std::to_string(i) + "),";
      if (i % 1000 == 999 || i + 1 == n) {
        sql.back() = ' ';
        ASSERT_TRUE(db.Execute(sql).ok());
        sql.clear();
      }
    }
    auto count = db.Execute("SELECT COUNT(*), SUM(a) FROM t");
    ASSERT_TRUE(count.ok());
    EXPECT_EQ((*count).Get(0, 0).int64_value(), n);
    EXPECT_EQ((*count).Get(0, 1).int64_value(),
              static_cast<int64_t>(n) * (n - 1) / 2);
    auto page = db.Execute("SELECT a FROM t ORDER BY a LIMIT 3 OFFSET " +
                           std::to_string(n - 2));
    ASSERT_TRUE(page.ok());
    EXPECT_EQ((*page).num_rows(), 2u) << n;
  }
}

TEST(HybridEdgeTest, SingleDocumentCollection) {
  SyntheticHybridData data = MakeSyntheticHybridData(1, 8, 2);
  HybridCollection collection(data.attr_schema, 8);
  ASSERT_TRUE(collection.Add(data.docs[0]).ok());
  ASSERT_TRUE(collection.BuildIndexes().ok());
  HybridQuery q;
  q.embedding = data.docs[0].embedding;
  q.k = 10;
  auto result = collection.Search(q);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->size(), 1u);
}

TEST(HybridEdgeTest, FilterMatchingNothing) {
  SyntheticHybridData data = MakeSyntheticHybridData(200, 8, 2);
  HybridCollection collection(data.attr_schema, 8);
  for (const HybridDoc& doc : data.docs) {
    ASSERT_TRUE(collection.Add(doc).ok());
  }
  ASSERT_TRUE(collection.BuildIndexes().ok());
  HybridQuery q;
  q.keywords = data.topic_names[0];
  q.filter_sql = "price < 0";  // impossible
  q.k = 5;
  auto fused = collection.Search(q);
  ASSERT_TRUE(fused.ok());
  EXPECT_TRUE(fused->empty());
  auto federated = collection.SearchFederated(q);
  ASSERT_TRUE(federated.ok());
  EXPECT_TRUE(federated->empty());
}

TEST(PipelineEdgeTest, EmptyCorpusAndEmptyPipeline) {
  Pipeline pipe;
  pipe.AddStage(std::make_shared<LengthFilter>(1, 10));
  EXPECT_TRUE(pipe.Run({}).empty());
  Pipeline empty;
  std::vector<PipelineDoc> docs = {{0, "hello world"}};
  auto out = empty.Run(docs);
  EXPECT_EQ(out.size(), 1u);  // no stages = identity
}

TEST(PipelineEdgeTest, OptimizerSampleLargerThanCorpus) {
  PipelineOptimizerOptions options;
  options.sample_size = 10000;
  PipelineOptimizer optimizer(options);
  Pipeline pipe;
  pipe.AddStage(std::make_shared<NearDedupFilter>());
  pipe.AddStage(std::make_shared<LengthFilter>(1, 100000));
  Pipeline optimized = optimizer.Optimize(pipe, MakeSyntheticCorpus(20));
  EXPECT_EQ(optimized.num_stages(), 2u);
}

}  // namespace
}  // namespace agora
