// Tests for row-level provenance capture through scan, join and
// aggregation.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>

#include "engine/database.h"
#include "lineage/lineage.h"

namespace agora {
namespace {

class LineageTest : public ::testing::Test {
 protected:
  void SetUp() override {
    users_ = std::make_shared<Table>(
        "users", Schema({{"id", TypeId::kInt64, false},
                         {"city", TypeId::kString, false}}));
    ASSERT_TRUE(users_->AppendRow({Value::Int64(1), Value::String("nyc")})
                    .ok());
    ASSERT_TRUE(users_->AppendRow({Value::Int64(2), Value::String("sf")})
                    .ok());
    ASSERT_TRUE(users_->AppendRow({Value::Int64(3), Value::String("nyc")})
                    .ok());

    orders_ = std::make_shared<Table>(
        "orders", Schema({{"user_id", TypeId::kInt64, false},
                          {"amount", TypeId::kDouble, false}}));
    ASSERT_TRUE(
        orders_->AppendRow({Value::Int64(1), Value::Double(10)}).ok());
    ASSERT_TRUE(
        orders_->AppendRow({Value::Int64(1), Value::Double(20)}).ok());
    ASSERT_TRUE(
        orders_->AppendRow({Value::Int64(2), Value::Double(5)}).ok());
    ASSERT_TRUE(
        orders_->AppendRow({Value::Int64(3), Value::Double(7)}).ok());
  }

  std::shared_ptr<Table> users_;
  std::shared_ptr<Table> orders_;
};

TEST_F(LineageTest, ScanLineagePointsAtBaseRows) {
  auto scan = LineageScan(*users_, nullptr, /*capture=*/true);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->num_rows(), 3u);
  for (size_t r = 0; r < 3; ++r) {
    auto trace = TraceRow(*scan, r);
    ASSERT_TRUE(trace.ok());
    ASSERT_EQ(trace->size(), 1u);
    EXPECT_EQ((*trace)[0].table, "users");
    EXPECT_EQ((*trace)[0].row, static_cast<int64_t>(r));
  }
}

TEST_F(LineageTest, FilteredScanKeepsOnlyMatchingRows) {
  // city = 'nyc'
  ExprPtr pred = MakeCompare(
      CompareOp::kEq, MakeColumnRef(1, TypeId::kString, "city"),
      MakeLiteral(Value::String("nyc")));
  auto scan = LineageScan(*users_, pred, true);
  ASSERT_TRUE(scan.ok());
  ASSERT_EQ(scan->num_rows(), 2u);
  auto t0 = TraceRow(*scan, 0);
  auto t1 = TraceRow(*scan, 1);
  ASSERT_TRUE(t0.ok() && t1.ok());
  EXPECT_EQ((*t0)[0].row, 0);
  EXPECT_EQ((*t1)[0].row, 2);
}

TEST_F(LineageTest, JoinLineageUnionsBothSides) {
  auto users = LineageScan(*users_, nullptr, true);
  auto orders = LineageScan(*orders_, nullptr, true);
  ASSERT_TRUE(users.ok() && orders.ok());
  auto joined = LineageJoin(*users, *orders, /*left_col=*/0,
                            /*right_col=*/0, true);
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined->num_rows(), 4u);  // each order matches one user
  for (size_t r = 0; r < joined->num_rows(); ++r) {
    auto trace = TraceRow(*joined, r);
    ASSERT_TRUE(trace.ok());
    ASSERT_EQ(trace->size(), 2u);  // one user row + one order row
    auto users_only = TraceRow(*joined, r, "users");
    auto orders_only = TraceRow(*joined, r, "orders");
    ASSERT_TRUE(users_only.ok() && orders_only.ok());
    EXPECT_EQ(users_only->size(), 1u);
    EXPECT_EQ(orders_only->size(), 1u);
    // Consistency: the joined row's user id matches the traced user row.
    int64_t uid = joined->data.column(0).GetInt64(r);
    EXPECT_EQ((*users_only)[0].row, uid - 1);  // ids are 1-based rows
  }
}

TEST_F(LineageTest, AggregateLineageIsFullGroupProvenance) {
  auto users = LineageScan(*users_, nullptr, true);
  auto orders = LineageScan(*orders_, nullptr, true);
  ASSERT_TRUE(users.ok() && orders.ok());
  auto joined = LineageJoin(*users, *orders, 0, 0, true);
  ASSERT_TRUE(joined.ok());

  // GROUP BY city, SUM(amount): amount is column 3 of [id, city,
  // user_id, amount].
  AggregateSpec sum;
  sum.func = AggFunc::kSum;
  sum.arg = MakeColumnRef(3, TypeId::kDouble, "amount");
  sum.result_type = TypeId::kDouble;
  sum.name = "total";
  auto agg = LineageAggregate(*joined, {1}, {sum}, true);
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->num_rows(), 2u);  // nyc, sf

  for (size_t r = 0; r < agg->num_rows(); ++r) {
    std::string city = agg->data.column(0).GetString(r);
    double total = agg->data.column(1).GetDouble(r);
    auto orders_trace = TraceRow(*agg, r, "orders");
    ASSERT_TRUE(orders_trace.ok());
    // Recompute the SUM from the traced base rows: it must match.
    double recomputed = 0;
    for (const LineageRef& ref : *orders_trace) {
      recomputed +=
          orders_->column(1).GetDouble(static_cast<size_t>(ref.row));
    }
    EXPECT_DOUBLE_EQ(recomputed, total) << "group " << city;
    if (city == "nyc") {
      // Users 1 and 3: orders rows 0, 1, 3.
      EXPECT_EQ(orders_trace->size(), 3u);
      auto users_trace = TraceRow(*agg, r, "users");
      ASSERT_TRUE(users_trace.ok());
      EXPECT_EQ(users_trace->size(), 2u);
    } else {
      EXPECT_EQ(orders_trace->size(), 1u);
    }
  }
}

TEST_F(LineageTest, CaptureOffProducesSameDataNoLineage) {
  auto with = LineageScan(*users_, nullptr, true);
  auto without = LineageScan(*users_, nullptr, false);
  ASSERT_TRUE(with.ok() && without.ok());
  ASSERT_EQ(with->num_rows(), without->num_rows());
  for (size_t r = 0; r < with->num_rows(); ++r) {
    for (size_t c = 0; c < with->schema.num_fields(); ++c) {
      EXPECT_EQ(with->data.column(c).GetValue(r).ToString(),
                without->data.column(c).GetValue(r).ToString());
    }
  }
  EXPECT_TRUE(without->lineage.empty());
  EXPECT_EQ(TraceRow(*without, 0).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LineageTest, TraceOutOfRangeRejected) {
  auto scan = LineageScan(*users_, nullptr, true);
  ASSERT_TRUE(scan.ok());
  EXPECT_EQ(TraceRow(*scan, 99).status().code(), StatusCode::kOutOfRange);
}

TEST_F(LineageTest, JoinOnInvalidColumnRejected) {
  auto users = LineageScan(*users_, nullptr, true);
  ASSERT_TRUE(users.ok());
  EXPECT_EQ(LineageJoin(*users, *users, 7, 0, true).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LineageTest, CountStarAggregateWithoutGroups) {
  auto orders = LineageScan(*orders_, nullptr, true);
  ASSERT_TRUE(orders.ok());
  AggregateSpec count;
  count.func = AggFunc::kCountStar;
  count.result_type = TypeId::kInt64;
  count.name = "n";
  auto agg = LineageAggregate(*orders, {}, {count}, true);
  ASSERT_TRUE(agg.ok());
  ASSERT_EQ(agg->num_rows(), 1u);
  EXPECT_EQ(agg->data.column(0).GetInt64(0), 4);
  auto trace = TraceRow(*agg, 0);
  ASSERT_TRUE(trace.ok());
  EXPECT_EQ(trace->size(), 4u);  // every input row contributes
}

// -- The lineage operators follow the SQL engine's semantics -----------

AggregateSpec Agg(AggFunc func, ExprPtr arg, TypeId type,
                  const std::string& name) {
  AggregateSpec spec;
  spec.func = func;
  spec.arg = std::move(arg);
  spec.result_type = type;
  spec.name = name;
  return spec;
}

/// A one-column BIGINT table named `name` holding `values`.
std::shared_ptr<Table> Int64Table(const std::string& name,
                                  const std::vector<Value>& values) {
  auto table = std::make_shared<Table>(
      name, Schema({{"v", TypeId::kInt64, true}}));
  for (const Value& v : values) EXPECT_TRUE(table->AppendRow({v}).ok());
  return table;
}

/// SUM/AVG over DOUBLE may add in another order than the SQL plan does;
/// every other cell must be identical.
void ExpectCellsAgree(const Value& lineage, const Value& sql, bool rounded,
                      const std::string& label) {
  ASSERT_EQ(lineage.is_null(), sql.is_null()) << label;
  if (lineage.is_null()) return;
  ASSERT_EQ(lineage.type(), sql.type()) << label;
  if (!rounded) {
    EXPECT_EQ(lineage.Compare(sql), 0)
        << label << ": " << lineage.ToString() << " vs " << sql.ToString();
    return;
  }
  const double a = lineage.AsDouble();
  const double b = sql.AsDouble();
  EXPECT_LE(std::abs(a - b), 1e-9 * std::max(std::abs(a), std::abs(b)))
      << label << ": " << a << " vs " << b;
}

TEST(LineageDifferentialTest, AggregateOverJoinMatchesSql) {
  Database db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE d (k BIGINT, grp VARCHAR, w DOUBLE)").ok());
  ASSERT_TRUE(db.Execute("CREATE TABLE f (k BIGINT, qty BIGINT, "
                         "price DOUBLE, tag VARCHAR)")
                  .ok());
  // NULL join keys on both sides, a NULL group, fact keys with no
  // dimension row, negative and NULL quantities.
  std::string dims = "INSERT INTO d VALUES ";
  for (int i = 0; i < 40; ++i) {
    if (i > 0) dims += ", ";
    dims += "(" + (i % 13 == 5 ? std::string("NULL") : std::to_string(i)) +
            ", " +
            (i % 11 == 3 ? std::string("NULL")
                         : "'g" + std::to_string(i % 7) + "'") +
            ", " + std::to_string(i * 0.5) + ")";
  }
  ASSERT_TRUE(db.Execute(dims).ok());
  std::string facts = "INSERT INTO f VALUES ";
  for (int i = 0; i < 3000; ++i) {
    if (i > 0) facts += ", ";
    facts += "(" +
             (i % 17 == 4 ? std::string("NULL")
                          : std::to_string((i * 7919) % 45)) +
             ", " +
             (i % 19 == 7 ? std::string("NULL")
                          : std::to_string((i * 31) % 1000 - 300)) +
             ", " + std::to_string((i % 97) * 1.25 + 0.1) + ", 't" +
             std::to_string(i % 5) + "')";
  }
  ASSERT_TRUE(db.Execute(facts).ok());
  auto sql = db.Execute(
      "SELECT d.grp, COUNT(*), COUNT(f.qty), SUM(f.qty), MIN(f.qty), "
      "MAX(f.qty), SUM(f.price), AVG(f.price), MIN(f.tag), MAX(f.price) "
      "FROM d JOIN f ON d.k = f.k GROUP BY d.grp");
  ASSERT_TRUE(sql.ok()) << sql.status().ToString();

  auto d = db.catalog().GetTable("d");
  auto f = db.catalog().GetTable("f");
  ASSERT_TRUE(d.ok() && f.ok());
  auto d_rel = LineageScan(**d, nullptr, true);
  auto f_rel = LineageScan(**f, nullptr, true);
  ASSERT_TRUE(d_rel.ok() && f_rel.ok());
  auto joined = LineageJoin(*d_rel, *f_rel, 0, 0, true);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  // joined: [d.k, d.grp, d.w, f.k, f.qty, f.price, f.tag]
  ExprPtr qty = MakeColumnRef(4, TypeId::kInt64, "qty");
  ExprPtr price = MakeColumnRef(5, TypeId::kDouble, "price");
  ExprPtr tag = MakeColumnRef(6, TypeId::kString, "tag");
  const std::vector<AggregateSpec> specs = {
      Agg(AggFunc::kCountStar, nullptr, TypeId::kInt64, "n"),
      Agg(AggFunc::kCount, qty, TypeId::kInt64, "nq"),
      Agg(AggFunc::kSum, qty, TypeId::kInt64, "sq"),
      Agg(AggFunc::kMin, qty, TypeId::kInt64, "minq"),
      Agg(AggFunc::kMax, qty, TypeId::kInt64, "maxq"),
      Agg(AggFunc::kSum, price, TypeId::kDouble, "sp"),
      Agg(AggFunc::kAvg, price, TypeId::kDouble, "ap"),
      Agg(AggFunc::kMin, tag, TypeId::kString, "mint"),
      Agg(AggFunc::kMax, price, TypeId::kDouble, "maxp")};
  auto agg = LineageAggregate(*joined, {1}, specs, true);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();

  ASSERT_EQ(agg->num_rows(), sql->num_rows());
  ASSERT_EQ(agg->schema.num_fields(), sql->num_columns());
  std::map<std::string, size_t> sql_rows;
  for (size_t r = 0; r < sql->num_rows(); ++r) {
    sql_rows[sql->Get(r, 0).ToString()] = r;
  }
  ASSERT_EQ(sql_rows.size(), sql->num_rows());
  for (size_t r = 0; r < agg->num_rows(); ++r) {
    const std::string key = agg->data.column(0).GetValue(r).ToString();
    auto it = sql_rows.find(key);
    ASSERT_NE(it, sql_rows.end()) << "group " << key;
    for (size_t c = 0; c < agg->schema.num_fields(); ++c) {
      const bool rounded = c == 6 || c == 7;  // SUM and AVG of price
      ExpectCellsAgree(agg->data.column(c).GetValue(r),
                       sql->Get(it->second, c), rounded,
                       "group " + key + " column " + std::to_string(c));
    }
    // Each fact row joins at most one dimension row, so COUNT(*) counts
    // the group's traced fact rows.
    auto facts_trace = TraceRow(*agg, r, "f");
    ASSERT_TRUE(facts_trace.ok());
    EXPECT_EQ(static_cast<int64_t>(facts_trace->size()),
              agg->data.column(1).GetInt64(r))
        << "group " << key;
  }
}

TEST(LineageDifferentialTest, BigintSumIsExactAndOverflowFails) {
  // 2^53 + 1 has no double; a double accumulator returns 2^53.
  auto exact = LineageScan(
      *Int64Table("t", {Value::Int64(9007199254740993), Value::Int64(0)}),
      nullptr, true);
  ASSERT_TRUE(exact.ok());
  ExprPtr v = MakeColumnRef(0, TypeId::kInt64, "v");
  auto sum = LineageAggregate(
      *exact, {}, {Agg(AggFunc::kSum, v, TypeId::kInt64, "s")}, true);
  ASSERT_TRUE(sum.ok()) << sum.status().ToString();
  EXPECT_EQ(sum->data.column(0).GetInt64(0), 9007199254740993);

  auto big = LineageScan(
      *Int64Table("t", {Value::Int64(std::numeric_limits<int64_t>::max()),
                        Value::Int64(1)}),
      nullptr, true);
  ASSERT_TRUE(big.ok());
  auto overflow = LineageAggregate(
      *big, {}, {Agg(AggFunc::kSum, v, TypeId::kInt64, "s")}, true);
  EXPECT_EQ(overflow.status().code(), StatusCode::kOutOfRange);
}

TEST(LineageDifferentialTest, NullGroupKeysFormOneGroup) {
  auto rel = LineageScan(
      *Int64Table("t", {Value::Null(TypeId::kInt64), Value::Int64(1),
                        Value::Null(TypeId::kInt64), Value::Int64(2),
                        Value::Null(TypeId::kInt64)}),
      nullptr, true);
  ASSERT_TRUE(rel.ok());
  auto agg = LineageAggregate(
      *rel, {0}, {Agg(AggFunc::kCountStar, nullptr, TypeId::kInt64, "n")},
      true);
  ASSERT_TRUE(agg.ok()) << agg.status().ToString();
  ASSERT_EQ(agg->num_rows(), 3u);  // NULL, 1, 2 in first appearance
  EXPECT_TRUE(agg->data.column(0).IsNull(0));
  EXPECT_EQ(agg->data.column(1).GetInt64(0), 3);
  auto trace = TraceRow(*agg, 0);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace->size(), 3u);
  EXPECT_EQ((*trace)[0].row, 0);
  EXPECT_EQ((*trace)[1].row, 2);
  EXPECT_EQ((*trace)[2].row, 4);
}

TEST(LineageDifferentialTest, NullJoinKeysNeverMatch) {
  auto left = LineageScan(
      *Int64Table("l", {Value::Int64(1), Value::Null(TypeId::kInt64)}),
      nullptr, true);
  auto right = LineageScan(
      *Int64Table("r", {Value::Null(TypeId::kInt64), Value::Int64(1)}),
      nullptr, true);
  ASSERT_TRUE(left.ok() && right.ok());
  auto joined = LineageJoin(*left, *right, 0, 0, true);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ASSERT_EQ(joined->num_rows(), 1u);
  auto trace = TraceRow(*joined, 0);
  ASSERT_TRUE(trace.ok());
  ASSERT_EQ(trace->size(), 2u);
  EXPECT_EQ((*trace)[0], (LineageRef{"l", 0}));
  EXPECT_EQ((*trace)[1], (LineageRef{"r", 1}));
}

TEST_F(LineageTest, JoinKeysOfDifferentTypesRejected) {
  auto users = LineageScan(*users_, nullptr, true);
  auto orders = LineageScan(*orders_, nullptr, true);
  ASSERT_TRUE(users.ok() && orders.ok());
  // BIGINT id against DOUBLE amount, and VARCHAR city against BIGINT.
  EXPECT_EQ(LineageJoin(*users, *orders, 0, 1, true).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(LineageJoin(*users, *orders, 1, 0, false).status().code(),
            StatusCode::kInvalidArgument);
}

TEST_F(LineageTest, SelfJoinTracesEachBaseRowOnce) {
  auto users = LineageScan(*users_, nullptr, true);
  ASSERT_TRUE(users.ok());
  // On city: nyc rows 0 and 2 pair with each other and themselves.
  auto joined = LineageJoin(*users, *users, 1, 1, true);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  ASSERT_EQ(joined->num_rows(), 5u);
  for (size_t r = 0; r < joined->num_rows(); ++r) {
    auto trace = TraceRow(*joined, r, "users");
    ASSERT_TRUE(trace.ok());
    const int64_t left = joined->data.column(0).GetInt64(r) - 1;
    const int64_t right = joined->data.column(2).GetInt64(r) - 1;
    std::vector<LineageRef> expected = {{"users", std::min(left, right)}};
    if (left != right) expected.push_back({"users", std::max(left, right)});
    EXPECT_EQ(*trace, expected) << "row " << r;
  }
}

}  // namespace
}  // namespace agora
