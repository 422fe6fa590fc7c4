// End-to-end tests of the SQL path: parse -> bind -> optimize -> execute.

#include <gtest/gtest.h>

#include <cmath>
#include <fstream>

#include "engine/database.h"

namespace agora {
namespace {

class SqlEngineTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Exec("CREATE TABLE users (id BIGINT, name VARCHAR, age BIGINT, "
         "city VARCHAR)");
    Exec("INSERT INTO users VALUES (1, 'alice', 30, 'nyc'), "
         "(2, 'bob', 25, 'sf'), (3, 'carol', 35, 'nyc'), "
         "(4, 'dave', 28, 'chicago'), (5, 'erin', 35, 'sf')");
    Exec("CREATE TABLE orders (id BIGINT, user_id BIGINT, amount DOUBLE, "
         "placed DATE)");
    Exec("INSERT INTO orders VALUES "
         "(100, 1, 25.5, '2024-01-05'), (101, 1, 10.0, '2024-02-11'), "
         "(102, 2, 99.9, '2024-01-20'), (103, 3, 5.25, '2024-03-02'), "
         "(104, 3, 42.0, '2024-03-15'), (105, 3, 7.75, '2024-04-01')");
  }

  QueryResult Exec(const std::string& sql) {
    auto result = db_.Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << " -> " << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult();
  }

  Status ExecError(const std::string& sql) {
    auto result = db_.Execute(sql);
    EXPECT_FALSE(result.ok()) << "expected failure: " << sql;
    return result.status();
  }

  Database db_;
};

TEST_F(SqlEngineTest, SelectStar) {
  QueryResult r = Exec("SELECT * FROM users");
  EXPECT_EQ(r.num_rows(), 5u);
  EXPECT_EQ(r.num_columns(), 4u);
  EXPECT_EQ(r.GetByName(0, "name").string_value(), "alice");
}

TEST_F(SqlEngineTest, WhereFilter) {
  QueryResult r = Exec("SELECT name FROM users WHERE age > 28");
  EXPECT_EQ(r.num_rows(), 3u);
}

TEST_F(SqlEngineTest, WhereWithAndOr) {
  QueryResult r = Exec(
      "SELECT name FROM users WHERE (city = 'nyc' AND age > 30) "
      "OR city = 'chicago'");
  EXPECT_EQ(r.num_rows(), 2u);  // carol, dave
}

TEST_F(SqlEngineTest, Projection) {
  QueryResult r = Exec("SELECT id + 100 AS shifted, age * 2 FROM users "
                       "WHERE id = 1");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.Get(0, 0).int64_value(), 101);
  EXPECT_EQ(r.Get(0, 1).int64_value(), 60);
}

TEST_F(SqlEngineTest, OrderByAndLimit) {
  QueryResult r = Exec("SELECT name, age FROM users ORDER BY age DESC, "
                       "name ASC LIMIT 3");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.Get(0, 0).string_value(), "carol");
  EXPECT_EQ(r.Get(1, 0).string_value(), "erin");
  EXPECT_EQ(r.Get(2, 0).string_value(), "alice");
}

TEST_F(SqlEngineTest, OrderByPosition) {
  QueryResult r = Exec("SELECT name, age FROM users ORDER BY 2 LIMIT 1");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.Get(0, 0).string_value(), "bob");
}

TEST_F(SqlEngineTest, LimitOffset) {
  QueryResult r = Exec("SELECT id FROM users ORDER BY id LIMIT 2 OFFSET 2");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.Get(0, 0).int64_value(), 3);
  EXPECT_EQ(r.Get(1, 0).int64_value(), 4);
}

TEST_F(SqlEngineTest, GroupByAggregates) {
  QueryResult r = Exec(
      "SELECT city, COUNT(*) AS n, AVG(age) AS avg_age, MAX(age) "
      "FROM users GROUP BY city ORDER BY city");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.Get(0, 0).string_value(), "chicago");
  EXPECT_EQ(r.Get(0, 1).int64_value(), 1);
  EXPECT_EQ(r.Get(1, 0).string_value(), "nyc");
  EXPECT_EQ(r.Get(1, 1).int64_value(), 2);
  EXPECT_DOUBLE_EQ(r.Get(1, 2).double_value(), 32.5);
  EXPECT_EQ(r.Get(1, 3).int64_value(), 35);
}

TEST_F(SqlEngineTest, ScalarAggregateNoGroups) {
  QueryResult r = Exec("SELECT COUNT(*), SUM(age), MIN(age) FROM users");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.Get(0, 0).int64_value(), 5);
  EXPECT_EQ(r.Get(0, 1).int64_value(), 153);
  EXPECT_EQ(r.Get(0, 2).int64_value(), 25);
}

TEST_F(SqlEngineTest, CountDistinct) {
  QueryResult r = Exec("SELECT COUNT(DISTINCT age) FROM users");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.Get(0, 0).int64_value(), 4);  // 30, 25, 35, 28
}

TEST_F(SqlEngineTest, Having) {
  QueryResult r = Exec(
      "SELECT city, COUNT(*) AS n FROM users GROUP BY city "
      "HAVING COUNT(*) > 1 ORDER BY city");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.Get(0, 0).string_value(), "nyc");
  EXPECT_EQ(r.Get(1, 0).string_value(), "sf");
}

TEST_F(SqlEngineTest, ExplicitInnerJoin) {
  QueryResult r = Exec(
      "SELECT u.name, o.amount FROM users u JOIN orders o "
      "ON u.id = o.user_id ORDER BY o.amount");
  ASSERT_EQ(r.num_rows(), 6u);
  EXPECT_EQ(r.Get(0, 0).string_value(), "carol");  // 5.25
  EXPECT_EQ(r.Get(5, 0).string_value(), "bob");    // 99.9
}

TEST_F(SqlEngineTest, CommaJoinWithWherePredicate) {
  QueryResult r = Exec(
      "SELECT u.name, o.amount FROM users u, orders o "
      "WHERE u.id = o.user_id AND o.amount > 20 ORDER BY o.amount DESC");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.Get(0, 0).string_value(), "bob");
}

TEST_F(SqlEngineTest, LeftJoinPadsNulls) {
  QueryResult r = Exec(
      "SELECT u.name, o.id FROM users u LEFT JOIN orders o "
      "ON u.id = o.user_id WHERE u.id >= 4 ORDER BY u.id");
  ASSERT_EQ(r.num_rows(), 2u);  // dave, erin have no orders
  EXPECT_TRUE(r.Get(0, 1).is_null());
  EXPECT_TRUE(r.Get(1, 1).is_null());
}

TEST_F(SqlEngineTest, JoinWithGroupBy) {
  QueryResult r = Exec(
      "SELECT u.name, SUM(o.amount) AS total FROM users u "
      "JOIN orders o ON u.id = o.user_id "
      "GROUP BY u.name ORDER BY total DESC");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.Get(0, 0).string_value(), "bob");
  EXPECT_DOUBLE_EQ(r.Get(0, 1).double_value(), 99.9);
  EXPECT_EQ(r.Get(1, 0).string_value(), "carol");
  EXPECT_DOUBLE_EQ(r.Get(1, 1).double_value(), 55.0);
}

TEST_F(SqlEngineTest, DateComparison) {
  QueryResult r = Exec(
      "SELECT id FROM orders WHERE placed >= DATE '2024-03-01' "
      "ORDER BY id");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.Get(0, 0).int64_value(), 103);
}

TEST_F(SqlEngineTest, DateStringCoercion) {
  QueryResult r = Exec("SELECT id FROM orders WHERE placed < '2024-02-01'");
  EXPECT_EQ(r.num_rows(), 2u);
}

TEST_F(SqlEngineTest, BetweenAndIn) {
  QueryResult r1 = Exec("SELECT id FROM users WHERE age BETWEEN 28 AND 32");
  EXPECT_EQ(r1.num_rows(), 2u);
  QueryResult r2 =
      Exec("SELECT id FROM users WHERE city IN ('nyc', 'chicago')");
  EXPECT_EQ(r2.num_rows(), 3u);
  QueryResult r3 =
      Exec("SELECT id FROM users WHERE city NOT IN ('nyc', 'chicago')");
  EXPECT_EQ(r3.num_rows(), 2u);
}

TEST_F(SqlEngineTest, LikePatterns) {
  EXPECT_EQ(Exec("SELECT id FROM users WHERE name LIKE 'a%'").num_rows(), 1u);
  EXPECT_EQ(Exec("SELECT id FROM users WHERE name LIKE '%o%'").num_rows(),
            2u);  // bob, carol
  EXPECT_EQ(Exec("SELECT id FROM users WHERE name LIKE '_ob'").num_rows(),
            1u);
  EXPECT_EQ(
      Exec("SELECT id FROM users WHERE name NOT LIKE '%a%'").num_rows(),
      2u);  // bob, erin
}

TEST_F(SqlEngineTest, Distinct) {
  QueryResult r = Exec("SELECT DISTINCT city FROM users ORDER BY city");
  ASSERT_EQ(r.num_rows(), 3u);
}

TEST_F(SqlEngineTest, ScalarFunctions) {
  QueryResult r = Exec(
      "SELECT UPPER(name), LENGTH(name), ABS(0 - age) FROM users "
      "WHERE id = 1");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.Get(0, 0).string_value(), "ALICE");
  EXPECT_EQ(r.Get(0, 1).int64_value(), 5);
  EXPECT_EQ(r.Get(0, 2).int64_value(), 30);
}

TEST_F(SqlEngineTest, YearFunction) {
  QueryResult r = Exec(
      "SELECT YEAR(placed) AS y, COUNT(*) FROM orders GROUP BY YEAR(placed)");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.Get(0, 0).int64_value(), 2024);
  EXPECT_EQ(r.Get(0, 1).int64_value(), 6);
}

TEST_F(SqlEngineTest, CaseExpression) {
  QueryResult r = Exec(
      "SELECT name, CASE WHEN age >= 30 THEN 'senior' ELSE 'junior' END "
      "AS bucket FROM users ORDER BY id");
  ASSERT_EQ(r.num_rows(), 5u);
  EXPECT_EQ(r.Get(0, 1).string_value(), "senior");
  EXPECT_EQ(r.Get(1, 1).string_value(), "junior");
}

TEST_F(SqlEngineTest, NullHandling) {
  Exec("INSERT INTO users (id, name) VALUES (6, 'frank')");
  // NULL age: excluded by any comparison.
  EXPECT_EQ(Exec("SELECT id FROM users WHERE age > 0").num_rows(), 5u);
  EXPECT_EQ(Exec("SELECT id FROM users WHERE age IS NULL").num_rows(), 1u);
  EXPECT_EQ(Exec("SELECT id FROM users WHERE age IS NOT NULL").num_rows(),
            5u);
  // Aggregates ignore NULL inputs; COUNT(*) does not.
  QueryResult r = Exec("SELECT COUNT(*), COUNT(age) FROM users");
  EXPECT_EQ(r.Get(0, 0).int64_value(), 6);
  EXPECT_EQ(r.Get(0, 1).int64_value(), 5);
}

TEST_F(SqlEngineTest, InsertWithColumnList) {
  Exec("INSERT INTO users (name, id) VALUES ('gina', 7)");
  QueryResult r = Exec("SELECT name, age FROM users WHERE id = 7");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.Get(0, 0).string_value(), "gina");
  EXPECT_TRUE(r.Get(0, 1).is_null());
}

TEST_F(SqlEngineTest, CreateIndexAndQuery) {
  Exec("CREATE INDEX users_id ON users (id)");
  QueryResult r = Exec("SELECT name FROM users WHERE id = 3");
  ASSERT_EQ(r.num_rows(), 1u);
  EXPECT_EQ(r.Get(0, 0).string_value(), "carol");
}

TEST_F(SqlEngineTest, Explain) {
  auto plan = db_.Explain(
      "SELECT u.name FROM users u JOIN orders o ON u.id = o.user_id "
      "WHERE o.amount > 50");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("Join"), std::string::npos);
  EXPECT_NE(plan->find("Scan"), std::string::npos);
}

TEST_F(SqlEngineTest, ErrorUnknownTable) {
  Status s = ExecError("SELECT * FROM missing");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
}

TEST_F(SqlEngineTest, ErrorUnknownColumn) {
  Status s = ExecError("SELECT nope FROM users");
  EXPECT_EQ(s.code(), StatusCode::kBindError);
}

TEST_F(SqlEngineTest, ErrorSyntax) {
  Status s = ExecError("SELEKT * FROM users");
  EXPECT_EQ(s.code(), StatusCode::kParseError);
}

TEST_F(SqlEngineTest, ErrorTypeMismatch) {
  Status s = ExecError("SELECT * FROM users WHERE name > 5");
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
}

TEST_F(SqlEngineTest, ErrorAggregateInWhere) {
  Status s = ExecError("SELECT id FROM users WHERE COUNT(*) > 1");
  EXPECT_EQ(s.code(), StatusCode::kBindError);
}

TEST_F(SqlEngineTest, ErrorNonGroupedColumn) {
  Status s = ExecError("SELECT name, COUNT(*) FROM users GROUP BY city");
  EXPECT_EQ(s.code(), StatusCode::kBindError);
}

TEST_F(SqlEngineTest, DropTable) {
  Exec("DROP TABLE orders");
  Status s = ExecError("SELECT * FROM orders");
  EXPECT_EQ(s.code(), StatusCode::kNotFound);
  Exec("DROP TABLE IF EXISTS orders");  // no error
}

TEST_F(SqlEngineTest, StddevAndVariance) {
  Exec("CREATE TABLE m (g VARCHAR, x DOUBLE)");
  Exec("INSERT INTO m VALUES ('a', 2), ('a', 4), ('a', 4), ('a', 4), "
       "('a', 5), ('a', 5), ('a', 7), ('a', 9), ('b', 42)");
  QueryResult r = Exec(
      "SELECT g, VARIANCE(x), STDDEV(x) FROM m GROUP BY g ORDER BY g");
  ASSERT_EQ(r.num_rows(), 2u);
  // Classic dataset: population variance 4 => sample variance 32/7.
  EXPECT_NEAR(r.Get(0, 1).double_value(), 32.0 / 7.0, 1e-9);
  EXPECT_NEAR(r.Get(0, 2).double_value(), std::sqrt(32.0 / 7.0), 1e-9);
  // A single value has no sample variance.
  EXPECT_TRUE(r.Get(1, 1).is_null());
  EXPECT_TRUE(r.Get(1, 2).is_null());
}

TEST_F(SqlEngineTest, UnionAllConcatenates) {
  QueryResult r = Exec(
      "SELECT name FROM users WHERE city = 'nyc' "
      "UNION ALL SELECT name FROM users WHERE age > 30 ORDER BY 1");
  // nyc: alice, carol; age>30: carol, erin => carol twice.
  ASSERT_EQ(r.num_rows(), 4u);
  EXPECT_EQ(r.Get(1, 0).string_value(), "carol");
  EXPECT_EQ(r.Get(2, 0).string_value(), "carol");
}

TEST_F(SqlEngineTest, UnionDeduplicates) {
  QueryResult r = Exec(
      "SELECT city FROM users UNION SELECT city FROM users ORDER BY city");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.Get(0, 0).string_value(), "chicago");
}

TEST_F(SqlEngineTest, UnionCoercesNumericTypes) {
  QueryResult r = Exec(
      "SELECT age FROM users WHERE id = 1 "
      "UNION ALL SELECT amount FROM orders WHERE id = 100");
  ASSERT_EQ(r.num_rows(), 2u);
  // int64 + double unify to double.
  EXPECT_EQ(r.schema().field(0).type, TypeId::kDouble);
}

TEST_F(SqlEngineTest, UnionWithAggregatesAndLimit) {
  QueryResult r = Exec(
      "SELECT city, COUNT(*) AS n FROM users GROUP BY city "
      "UNION ALL SELECT 'TOTAL', COUNT(*) FROM users "
      "ORDER BY n DESC LIMIT 2");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.Get(0, 0).string_value(), "TOTAL");
  EXPECT_EQ(r.Get(0, 1).int64_value(), 5);
}

TEST_F(SqlEngineTest, UnionArityMismatchRejected) {
  Status s = ExecError("SELECT id, name FROM users UNION SELECT id FROM users");
  EXPECT_EQ(s.code(), StatusCode::kBindError);
}

TEST_F(SqlEngineTest, UnionTypeMismatchRejected) {
  Status s = ExecError("SELECT id FROM users UNION SELECT name FROM users");
  EXPECT_EQ(s.code(), StatusCode::kTypeError);
}

TEST_F(SqlEngineTest, UpdateWithWhere) {
  QueryResult r = Exec("UPDATE users SET age = age + 1, city = 'moved' "
                       "WHERE city = 'nyc'");
  EXPECT_EQ(r.GetByName(0, "rows_affected").int64_value(), 2);
  // alice 30->31, carol 35->36, both in 'moved'.
  QueryResult check =
      Exec("SELECT age FROM users WHERE city = 'moved' ORDER BY age");
  ASSERT_EQ(check.num_rows(), 2u);
  EXPECT_EQ(check.Get(0, 0).int64_value(), 31);
  EXPECT_EQ(check.Get(1, 0).int64_value(), 36);
  // Others untouched.
  EXPECT_EQ(Exec("SELECT id FROM users WHERE city = 'sf'").num_rows(), 2u);
}

TEST_F(SqlEngineTest, UpdateAllRows) {
  QueryResult r = Exec("UPDATE orders SET amount = amount * 2");
  EXPECT_EQ(r.GetByName(0, "rows_affected").int64_value(), 6);
  QueryResult total = Exec("SELECT SUM(amount) FROM orders");
  EXPECT_DOUBLE_EQ(total.Get(0, 0).double_value(), 2 * 190.40);
}

TEST_F(SqlEngineTest, UpdateSeesPreUpdateValues) {
  Exec("CREATE TABLE swap (a BIGINT, b BIGINT)");
  Exec("INSERT INTO swap VALUES (1, 2)");
  // Both assignments read the pre-update row: a=2, b=1 afterwards.
  Exec("UPDATE swap SET a = b, b = a");
  QueryResult r = Exec("SELECT a, b FROM swap");
  EXPECT_EQ(r.Get(0, 0).int64_value(), 2);
  EXPECT_EQ(r.Get(0, 1).int64_value(), 1);
}

TEST_F(SqlEngineTest, DeleteWithWhere) {
  QueryResult r = Exec("DELETE FROM orders WHERE amount < 10");
  EXPECT_EQ(r.GetByName(0, "rows_affected").int64_value(), 2);
  EXPECT_EQ(Exec("SELECT id FROM orders").num_rows(), 4u);
  // Deleting everything.
  QueryResult all = Exec("DELETE FROM orders");
  EXPECT_EQ(all.GetByName(0, "rows_affected").int64_value(), 4);
  EXPECT_EQ(Exec("SELECT id FROM orders").num_rows(), 0u);
}

TEST_F(SqlEngineTest, UpdateErrors) {
  EXPECT_EQ(ExecError("UPDATE users SET nope = 1").code(),
            StatusCode::kBindError);
  EXPECT_EQ(ExecError("UPDATE users SET age = 1 WHERE name").code(),
            StatusCode::kTypeError);
  EXPECT_EQ(ExecError("UPDATE missing SET a = 1").code(),
            StatusCode::kNotFound);
}

TEST_F(SqlEngineTest, CopyRoundTrip) {
  std::string path = ::testing::TempDir() + "/agora_copy_test.csv";
  QueryResult out = Exec("COPY users TO '" + path + "'");
  EXPECT_EQ(out.GetByName(0, "rows_affected").int64_value(), 5);
  // Import back into a fresh table with the same shape.
  Exec("CREATE TABLE users2 (id BIGINT, name VARCHAR, age BIGINT, "
       "city VARCHAR)");
  QueryResult in = Exec("COPY users2 FROM '" + path + "'");
  EXPECT_EQ(in.GetByName(0, "rows_affected").int64_value(), 5);
  QueryResult check = Exec("SELECT COUNT(*), SUM(age) FROM users2");
  EXPECT_EQ(check.Get(0, 0).int64_value(), 5);
  EXPECT_EQ(check.Get(0, 1).int64_value(), 153);
  std::remove(path.c_str());
}

TEST_F(SqlEngineTest, CopyFromBadLineLeavesTableUnchanged) {
  // The bad line lies past the first kChunkSize rows, so the CSV reader
  // has already committed a chunk into its staging table when it fails;
  // the target must still see none of the file.
  std::string path = ::testing::TempDir() + "/agora_copy_bad_line.csv";
  {
    std::ofstream out(path);
    out << "id,name,age,city\n";
    for (int i = 0; i < 3000; ++i) {
      out << 10 + i << ",u" << i << "," << (i == 2500 ? "old" : "40")
          << ",nyc\n";
    }
  }
  Status s = ExecError("COPY users FROM '" + path + "'");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
  // Line 1 is the header, so data row 2500 is line 2502.
  EXPECT_NE(s.message().find("line 2502"), std::string::npos) << s.message();
  QueryResult check =
      Exec("SELECT COUNT(*), SUM(id), SUM(age), MAX(name) FROM users");
  EXPECT_EQ(check.Get(0, 0).int64_value(), 5);
  EXPECT_EQ(check.Get(0, 1).int64_value(), 15);
  EXPECT_EQ(check.Get(0, 2).int64_value(), 153);
  EXPECT_EQ(check.Get(0, 3).string_value(), "erin");
  std::remove(path.c_str());
}

TEST_F(SqlEngineTest, CopyMissingFileFails) {
  Status s = ExecError("COPY users FROM '/nonexistent/nope.csv'");
  EXPECT_EQ(s.code(), StatusCode::kIoError);
}

TEST_F(SqlEngineTest, OptimizerOffMatchesOptimizerOn) {
  // Physical/logical independence: the naive plan returns the same rows.
  DatabaseOptions naive;
  naive.optimizer = OptimizerOptions::AllDisabled();
  naive.physical.enable_hash_join = false;
  naive.physical.enable_zone_maps = false;
  naive.physical.enable_index_scan = false;
  Database db2(naive);
  for (const char* sql :
       {"CREATE TABLE users (id BIGINT, name VARCHAR, age BIGINT, "
        "city VARCHAR)",
        "INSERT INTO users VALUES (1, 'alice', 30, 'nyc'), "
        "(2, 'bob', 25, 'sf'), (3, 'carol', 35, 'nyc'), "
        "(4, 'dave', 28, 'chicago'), (5, 'erin', 35, 'sf')",
        "CREATE TABLE orders (id BIGINT, user_id BIGINT, amount DOUBLE, "
        "placed DATE)",
        "INSERT INTO orders VALUES "
        "(100, 1, 25.5, '2024-01-05'), (101, 1, 10.0, '2024-02-11'), "
        "(102, 2, 99.9, '2024-01-20'), (103, 3, 5.25, '2024-03-02'), "
        "(104, 3, 42.0, '2024-03-15'), (105, 3, 7.75, '2024-04-01')"}) {
    auto r = db2.Execute(sql);
    ASSERT_TRUE(r.ok()) << r.status().ToString();
  }
  const std::string query =
      "SELECT u.city, COUNT(*) AS n, SUM(o.amount) AS total "
      "FROM users u, orders o WHERE u.id = o.user_id "
      "GROUP BY u.city ORDER BY u.city";
  QueryResult fast = Exec(query);
  auto slow = db2.Execute(query);
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  ASSERT_EQ(fast.num_rows(), slow->num_rows());
  for (size_t r = 0; r < fast.num_rows(); ++r) {
    for (size_t c = 0; c < fast.num_columns(); ++c) {
      EXPECT_EQ(fast.Get(r, c).ToString(), slow->Get(r, c).ToString())
          << "row " << r << " col " << c;
    }
  }
}

}  // namespace
}  // namespace agora
