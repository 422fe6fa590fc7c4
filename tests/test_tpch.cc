// Tests the TPC-H-style generator and the four reference queries.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "engine/database.h"
#include "tpch/tpch.h"

namespace agora {
namespace {

class TpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    db_ = new Database();
    TpchOptions options;
    options.scale_factor = 0.002;  // ~3k orders, ~12k lineitems
    Status s = GenerateTpch(options, &db_->catalog());
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static Database* db_;
};

Database* TpchTest::db_ = nullptr;

TEST_F(TpchTest, CardinalityRatiosMatchSpec) {
  auto get_rows = [&](const std::string& name) {
    auto table = db_->catalog().GetTable(name);
    EXPECT_TRUE(table.ok());
    return (*table)->num_rows();
  };
  EXPECT_EQ(get_rows("region"), 5u);
  EXPECT_EQ(get_rows("nation"), 25u);
  size_t orders = get_rows("orders");
  size_t lineitem = get_rows("lineitem");
  EXPECT_EQ(orders, 3000u);
  // 1..7 lineitems per order, expectation 4.
  EXPECT_GT(lineitem, orders * 2);
  EXPECT_LT(lineitem, orders * 7);
  EXPECT_EQ(get_rows("partsupp"), get_rows("part") * 4);
}

TEST_F(TpchTest, ForeignKeysResolve) {
  // Every lineitem order key exists in orders; spot-check via anti-join
  // count (rows with no matching order must be zero).
  auto r = db_->Execute(
      "SELECT COUNT(*) FROM lineitem l LEFT JOIN orders o "
      "ON l.l_orderkey = o.o_orderkey WHERE o.o_orderkey IS NULL");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->Get(0, 0).int64_value(), 0);
}

TEST_F(TpchTest, NationRegionMappingIsStable) {
  auto r = db_->Execute(
      "SELECT n_name FROM nation, region "
      "WHERE n_regionkey = r_regionkey AND r_name = 'ASIA' "
      "ORDER BY n_name");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 5u);
  EXPECT_EQ(r->Get(0, 0).string_value(), "CHINA");
  EXPECT_EQ(r->Get(4, 0).string_value(), "VIETNAM");
}

TEST_F(TpchTest, Q1ProducesFourGroupsWithConsistentAggregates) {
  auto r = db_->Execute(TpchQ1());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Groups: (A,F), (N,F), (N,O), (R,F).
  ASSERT_EQ(r->num_rows(), 4u);
  for (size_t row = 0; row < r->num_rows(); ++row) {
    double sum_qty = r->GetByName(row, "sum_qty").double_value();
    int64_t n = r->GetByName(row, "count_order").int64_value();
    double avg_qty = r->GetByName(row, "avg_qty").double_value();
    ASSERT_GT(n, 0);
    EXPECT_NEAR(sum_qty / static_cast<double>(n), avg_qty, 1e-9);
    // Discounted price must not exceed base price.
    EXPECT_LE(r->GetByName(row, "sum_disc_price").double_value(),
              r->GetByName(row, "sum_base_price").double_value());
  }
  // Sorted by (returnflag, linestatus).
  EXPECT_EQ(r->Get(0, 0).string_value(), "A");
  EXPECT_EQ(r->Get(3, 0).string_value(), "R");
}

TEST_F(TpchTest, Q3TopTenOrdersByRevenue) {
  auto r = db_->Execute(TpchQ3());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_LE(r->num_rows(), 10u);
  ASSERT_GE(r->num_rows(), 1u);
  // Revenue strictly non-increasing.
  for (size_t row = 1; row < r->num_rows(); ++row) {
    EXPECT_GE(r->GetByName(row - 1, "revenue").double_value(),
              r->GetByName(row, "revenue").double_value());
  }
  // All orders predate the cutoff.
  for (size_t row = 0; row < r->num_rows(); ++row) {
    EXPECT_LT(r->GetByName(row, "o_orderdate").int64_value(),
              MakeDate(1995, 3, 15));
  }
}

TEST_F(TpchTest, Q5RevenueByAsianNation) {
  auto r = db_->Execute(TpchQ5());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Up to 5 Asian nations, sorted by revenue descending.
  ASSERT_LE(r->num_rows(), 5u);
  for (size_t row = 1; row < r->num_rows(); ++row) {
    EXPECT_GE(r->Get(row - 1, 1).double_value(),
              r->Get(row, 1).double_value());
  }
}

TEST_F(TpchTest, Q6MatchesManualScan) {
  auto r = db_->Execute(TpchQ6());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  double revenue = r->Get(0, 0).double_value();

  // Recompute with a straight scan over the base table.
  auto table = db_->catalog().GetTable("lineitem");
  ASSERT_TRUE(table.ok());
  const Table& li = **table;
  auto col = [&](const char* name) {
    return *li.schema().FindField(name);
  };
  size_t shipdate = col("l_shipdate"), discount = col("l_discount"),
         quantity = col("l_quantity"), price = col("l_extendedprice");
  double expected = 0;
  int64_t lo = MakeDate(1994, 1, 1), hi = MakeDate(1995, 1, 1);
  for (size_t row = 0; row < li.num_rows(); ++row) {
    int64_t d = li.column(shipdate).GetInt64(row);
    double disc = li.column(discount).GetDouble(row);
    double qty = li.column(quantity).GetDouble(row);
    if (d >= lo && d < hi && disc >= 0.05 && disc <= 0.07 && qty < 24) {
      expected += li.column(price).GetDouble(row) * disc;
    }
  }
  EXPECT_NEAR(revenue, expected, std::abs(expected) * 1e-9 + 1e-6);
}

TEST_F(TpchTest, Q10TopReturningCustomers) {
  auto r = db_->Execute(TpchQ10());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_LE(r->num_rows(), 20u);
  ASSERT_GE(r->num_rows(), 1u);
  for (size_t row = 1; row < r->num_rows(); ++row) {
    EXPECT_GE(r->GetByName(row - 1, "revenue").double_value(),
              r->GetByName(row, "revenue").double_value());
  }
}

TEST_F(TpchTest, Q12CaseAggregatesPartitionPerfectly) {
  auto r = db_->Execute(TpchQ12());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Only MAIL and SHIP ship modes may appear, sorted.
  ASSERT_LE(r->num_rows(), 2u);
  for (size_t row = 0; row < r->num_rows(); ++row) {
    std::string mode = r->Get(row, 0).string_value();
    EXPECT_TRUE(mode == "MAIL" || mode == "SHIP");
    // high + low partitions every qualifying lineitem: both nonnegative.
    EXPECT_GE(r->GetByName(row, "high_line_count").int64_value(), 0);
    EXPECT_GE(r->GetByName(row, "low_line_count").int64_value(), 0);
  }
}

TEST_F(TpchTest, Q14PromoRevenueIsAPercentage) {
  auto r = db_->Execute(TpchQ14());
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  double pct = r->Get(0, 0).double_value();
  EXPECT_GE(pct, 0.0);
  EXPECT_LE(pct, 100.0);
  // The generator assigns PROMO to ~1/6 of part types; expect a
  // nontrivial share.
  EXPECT_GT(pct, 1.0);
}

TEST_F(TpchTest, GeneratorIsDeterministic) {
  Database db2;
  TpchOptions options;
  options.scale_factor = 0.002;
  ASSERT_TRUE(GenerateTpch(options, &db2.catalog()).ok());
  auto r1 = db_->Execute(TpchQ6());
  auto r2 = db2.Execute(TpchQ6());
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_DOUBLE_EQ(r1->Get(0, 0).double_value(),
                   r2->Get(0, 0).double_value());
}

// One generated table's pinned shape: its row count, one hash over every
// cell, and for each string column whether it is dictionary-encoded and
// how many entries its dictionary holds (0 for a flat column).
struct TableFingerprint {
  const char* table;
  size_t rows;
  uint64_t cells_hash;
  std::vector<std::pair<bool, size_t>> string_columns;
};

TEST_F(TpchTest, GeneratedTablesMatchPinnedFingerprint) {
  // Pins the generator's output cell for cell across builds and
  // compilers: ColumnVector::HashRow (common/hash.h) does not depend on
  // the standard library, so a change in any value, in the order of the
  // RNG draws or in a column's dictionary form or codes fails here. The
  // hash folds in each dictionary's entries in code order, which with the
  // values fixes every row's code.
  const std::vector<TableFingerprint> want = {
      {"region", 5, 0x3f74e59d8764b184ULL, {{true, 5}, {true, 5}}},
      {"nation", 25, 0xa842308f8e134756ULL, {{true, 25}, {true, 25}}},
      {"supplier", 100, 0x8a89254cf1332e03ULL, {{true, 100}, {true, 100}}},
      {"customer", 1500, 0xeeb04b3f7463f92cULL,
       {{true, 1500}, {true, 5}, {true, 1500}}},
      {"part", 2000, 0xdda442b20c983023ULL,
       {{true, 2000}, {true, 5}, {true, 25}, {true, 12}}},
      {"partsupp", 8000, 0x1b17767daa2b8640ULL, {}},
      {"orders", 15000, 0x89125db3f850f68eULL, {{true, 3}, {true, 5}}},
      {"lineitem", 60492, 0xaf023f94766f8d29ULL,
       {{true, 3}, {true, 2}, {true, 7}}},
  };
  Database db;
  TpchOptions options;
  options.scale_factor = 0.01;
  ASSERT_TRUE(GenerateTpch(options, &db.catalog()).ok());
  for (const TableFingerprint& w : want) {
    auto table = db.catalog().GetTable(w.table);
    ASSERT_TRUE(table.ok()) << w.table;
    ASSERT_EQ((*table)->num_rows(), w.rows) << w.table;
    uint64_t cells_hash = 0;
    std::vector<std::pair<bool, size_t>> string_columns;
    for (size_t c = 0; c < (*table)->num_columns(); ++c) {
      const ColumnVector& col = (*table)->column(c);
      for (size_t r = 0; r < w.rows; ++r) {
        cells_hash = HashCombine(cells_hash, col.HashRow(r));
      }
      if (col.type() != TypeId::kString) continue;
      const size_t entries = col.is_dictionary() ? col.dictionary().size() : 0;
      for (size_t code = 0; code < entries; ++code) {
        cells_hash = HashCombine(cells_hash, col.dictionary().hashes()[code]);
      }
      string_columns.emplace_back(col.is_dictionary(), entries);
    }
    EXPECT_EQ(cells_hash, w.cells_hash)
        << w.table << " hashes to 0x" << std::hex << cells_hash;
    EXPECT_EQ(string_columns, w.string_columns) << w.table;
  }
}

TEST_F(TpchTest, Q5PlanUsesHashJoinsNotCrossProducts) {
  auto plan = db_->Explain(TpchQ5());
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  // After pushdown + reorder, no cross joins should remain.
  EXPECT_EQ(plan->find("CrossJoin"), std::string::npos) << *plan;
  EXPECT_NE(plan->find("InnerJoin"), std::string::npos) << *plan;
}

}  // namespace
}  // namespace agora
