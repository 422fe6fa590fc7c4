// The fused scan's selective path (exec/scan.h): the leading range pass
// over a block's contiguous rows, and output chunks that gather the
// survivors of consecutive blocks. Every predicate must return exactly
// the rows a row-at-a-time model keeps, in table order, on the serial
// pull path, on morsels at 1 and 4 threads, without zone maps, under a
// memory budget and with a hash index on x; counters must read as if
// each comparison had run on its own, in the order the scan runs them
// (the range's conjuncts first, moved only past conjuncts that cannot
// fail). Comparisons with NaN keep what their projection accepts. Runs
// under `ctest -L parallel`.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "exec/scan.h"
#include "types/type.h"

namespace agora {
namespace {

constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
constexpr int64_t kRows = 70000;  // two morsels, 35 blocks
constexpr int64_t kFirstDay = 9000;

/// One generated row of t(id, x, y, d, v); nullopt is NULL.
struct ModelRow {
  int64_t id;
  std::optional<int64_t> x;
  std::optional<int64_t> y;
  std::optional<int64_t> d;
  int64_t v;
};

/// x: NULL every 13th row; INT64_MAX and INT64_MIN now and then; 20000
/// in blocks 10-14 (rows 20480-30719, so whole blocks pass `x = 20000`);
/// else spread over [-10000, 10010]. y: i % 100, NULL every 17th row. d: one
/// of 3000 days, NULL every 19th row. v: 3i - 100000, so v * 10^14
/// overflows BIGINT for i < 2589 and i > 64077.
std::vector<ModelRow> ModelRows() {
  std::vector<ModelRow> rows;
  rows.reserve(kRows);
  for (int64_t i = 0; i < kRows; ++i) {
    ModelRow row{i, std::nullopt, std::nullopt, std::nullopt, 3 * i - 100000};
    if (i >= 20480 && i < 30720) {
      row.x = 20000;
    } else if (i % 13 != 0) {
      row.x = i % 997 == 1   ? kMax
              : i % 997 == 2 ? kMin
                             : (i * 7919) % 20011 - 10000;
    }
    if (i % 17 != 0) row.y = i % 100;
    if (i % 19 != 0) row.d = kFirstDay + i % 3000;
    rows.push_back(row);
  }
  return rows;
}

Value OrNull(const std::optional<int64_t>& v, TypeId type) {
  if (!v.has_value()) return Value::Null();
  return type == TypeId::kDate ? Value::Date(*v) : Value::Int64(*v);
}

void Load(Database* db, const std::vector<ModelRow>& rows) {
  ASSERT_TRUE(db->Execute("CREATE TABLE t (id BIGINT, x BIGINT, y BIGINT, "
                          "d DATE, v BIGINT)")
                  .ok());
  auto table = db->catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  for (const ModelRow& row : rows) {
    ASSERT_TRUE((*table)
                    ->AppendRow({Value::Int64(row.id),
                                 OrNull(row.x, TypeId::kInt64),
                                 OrNull(row.y, TypeId::kInt64),
                                 OrNull(row.d, TypeId::kDate),
                                 Value::Int64(row.v)})
                    .ok());
  }
}

std::string Day(int64_t offset) {
  return "DATE '" + DateToString(kFirstDay + offset) + "'";
}

/// The same table under every scan configuration the contract covers.
class SelectiveScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // A multi-threaded pool even on one core; before the first query.
    setenv("AGORA_THREADS", "4", 0);
    model_ = new std::vector<ModelRow>(ModelRows());
    DatabaseOptions serial;
    serial.physical.enable_parallel = false;  // the NextImpl pull path
    DatabaseOptions no_zone_maps;
    no_zone_maps.physical.enable_zone_maps = false;
    dbs_[0] = new Database(serial);
    dbs_[1] = new Database();
    dbs_[2] = new Database(no_zone_maps);
    dbs_[3] = new Database();
    dbs_[3]->set_memory_budget(int64_t{1} << 30);  // never reached
    dbs_[4] = new Database();  // `x = literal` runs as an IndexScan
    for (Database* db : dbs_) Load(db, *model_);
    ASSERT_TRUE(dbs_[4]->Execute("CREATE INDEX tx ON t (x)").ok());
  }
  static void TearDownTestSuite() {
    for (Database*& db : dbs_) {
      delete db;
      db = nullptr;
    }
    delete model_;
    model_ = nullptr;
  }

  static Result<QueryResult> RunAt(Database* db, int threads,
                                   const std::string& sql) {
    db->set_execution_threads(threads);
    auto result = db->Execute(sql);
    db->set_execution_threads(0);
    return result;
  }

  /// The ids of `SELECT id FROM t WHERE <where>` in output order.
  static std::vector<int64_t> Ids(const QueryResult& result) {
    std::vector<int64_t> ids;
    for (size_t r = 0; r < result.num_rows(); ++r) {
      ids.push_back(result.Get(r, 0).int64_value());
    }
    return ids;
  }

  /// Requires `SELECT id FROM t WHERE <where>` to return exactly the ids
  /// of the model rows `keep` accepts, in table order, in every
  /// configuration and at 1 and 4 threads.
  static void ExpectRows(const std::string& where,
                         const std::function<bool(const ModelRow&)>& keep) {
    std::vector<int64_t> want;
    for (const ModelRow& row : *model_) {
      if (keep(row)) want.push_back(row.id);
    }
    const std::string sql = "SELECT id FROM t WHERE " + where;
    const char* names[] = {"serial", "zone maps", "no zone maps", "budget",
                           "index"};
    for (size_t c = 0; c < std::size(dbs_); ++c) {
      for (int threads : {1, 4}) {
        auto result = RunAt(dbs_[c], threads, sql);
        ASSERT_TRUE(result.ok())
            << sql << ": " << result.status().ToString();
        EXPECT_EQ(Ids(*result), want)
            << sql << " [" << names[c] << ", " << threads << " threads]";
      }
    }
  }

  /// The counters of `SELECT id FROM t WHERE <where>` at one thread.
  static ExecStats StatsOf(Database* db, const std::string& where) {
    auto result = RunAt(db, 1, "SELECT id FROM t WHERE " + where);
    EXPECT_TRUE(result.ok()) << where << ": " << result.status().ToString();
    return result.ok() ? result->stats() : ExecStats{};
  }

  static std::vector<ModelRow>* model_;
  static Database* dbs_[5];
};

std::vector<ModelRow>* SelectiveScanTest::model_ = nullptr;
Database* SelectiveScanTest::dbs_[5] = {};

bool In(const std::optional<int64_t>& v, int64_t lo, int64_t hi) {
  return v.has_value() && *v >= lo && *v <= hi;
}

TEST_F(SelectiveScanTest, EmptyRanges) {
  auto none = [](const ModelRow&) { return false; };
  ExpectRows("x BETWEEN 10 AND 5", none);
  ExpectRows("x > 7 AND x < 3", none);
  ExpectRows("x > 9223372036854775807", none);
  ExpectRows("x < -9223372036854775807 - 1", none);
  ExpectRows("9223372036854775807 < x", none);
}

TEST_F(SelectiveScanTest, BoundsAtTheEndsOfBigint) {
  ExpectRows("x >= 9223372036854775807",
             [](const ModelRow& r) { return In(r.x, kMax, kMax); });
  ExpectRows("x <= -9223372036854775807 - 1",
             [](const ModelRow& r) { return In(r.x, kMin, kMin); });
  // Every non-NULL row: the widest range there is.
  ExpectRows("x >= -9223372036854775807 - 1 AND x <= 9223372036854775807",
             [](const ModelRow& r) { return r.x.has_value(); });
  ExpectRows("x > -9223372036854775807 - 1 AND x < 9223372036854775807",
             [](const ModelRow& r) { return In(r.x, kMin + 1, kMax - 1); });
}

TEST_F(SelectiveScanTest, NullRowsNeverPass) {
  ExpectRows("x BETWEEN -10000 AND 10010",
             [](const ModelRow& r) { return In(r.x, -10000, 10010); });
  ExpectRows("y <= 99", [](const ModelRow& r) { return In(r.y, 0, 99); });
}

TEST_F(SelectiveScanTest, SingleValueRanges) {
  ExpectRows("x BETWEEN 17 AND 17",
             [](const ModelRow& r) { return In(r.x, 17, 17); });
  ExpectRows("x = 20000",
             [](const ModelRow& r) { return In(r.x, 20000, 20000); });
  ExpectRows("20000 = x AND x >= 20000 AND 20000 >= x",
             [](const ModelRow& r) { return In(r.x, 20000, 20000); });
  ExpectRows("x = -3", [](const ModelRow& r) { return In(r.x, -3, -3); });
}

TEST_F(SelectiveScanTest, DateAgainstDateLiterals) {
  ExpectRows("d BETWEEN " + Day(100) + " AND " + Day(399),
             [](const ModelRow& r) {
               return In(r.d, kFirstDay + 100, kFirstDay + 399);
             });
  ExpectRows("d >= " + Day(2990) + " AND d < " + Day(2995),
             [](const ModelRow& r) {
               return In(r.d, kFirstDay + 2990, kFirstDay + 2994);
             });
}

TEST_F(SelectiveScanTest, InLists) {
  auto is = [](const std::optional<int64_t>& v, int64_t a, int64_t b) {
    return v.has_value() && (*v == a || *v == b);
  };
  // Zone maps test the non-NULL members; the NULL one matches nothing.
  ExpectRows("x IN (20000, NULL, -3)",
             [&](const ModelRow& r) { return is(r.x, 20000, -3); });
  // A DOUBLE member bounds the point set but equals no BIGINT.
  ExpectRows("x IN (20000, 2.5)",
             [&](const ModelRow& r) { return is(r.x, 20000, 20000); });
  ExpectRows("x NOT IN (20000, -3)", [&](const ModelRow& r) {
    return r.x.has_value() && !is(r.x, 20000, -3);
  });
  ExpectRows("x NOT IN (20000, NULL)",
             [](const ModelRow&) { return false; });
  ExpectRows("d IN (" + Day(5) + ", " + Day(2999) + ")",
             [&](const ModelRow& r) {
               return is(r.d, kFirstDay + 5, kFirstDay + 2999);
             });
  // Blocks 10-14 hold x = 20000 only; every other block spans BIGINT.
  EXPECT_EQ(StatsOf(dbs_[1], "x IN (-3, NULL)").blocks_skipped, 5);
  EXPECT_EQ(StatsOf(dbs_[1], "x IN (-3, 2.5)").blocks_skipped, 5);
  EXPECT_EQ(StatsOf(dbs_[1], "x NOT IN (20000)").blocks_skipped, 0);
  EXPECT_GT(StatsOf(dbs_[1], "d IN (" + Day(5) + ")").blocks_skipped, 0);
  EXPECT_EQ(StatsOf(dbs_[2], "x IN (-3, NULL)").blocks_skipped, 0);
}

TEST_F(SelectiveScanTest, MirroredOperands) {
  ExpectRows("-3 <= x", [](const ModelRow& r) { return In(r.x, -3, kMax); });
  ExpectRows("20000 = x",
             [](const ModelRow& r) { return In(r.x, 20000, 20000); });
  ExpectRows("10 > x AND -10 < x",
             [](const ModelRow& r) { return In(r.x, -9, 9); });
  ExpectRows(Day(2990) + " < d",
             [](const ModelRow& r) { return In(r.d, kFirstDay + 2991, kMax); });
  EXPECT_EQ(StatsOf(dbs_[1], "-3 = x").blocks_skipped, 5);
  EXPECT_EQ(StatsOf(dbs_[1], "19999 >= x").blocks_skipped, 5);
  // The index answers `20000 = x` without reading a block.
  const ExecStats indexed = StatsOf(dbs_[4], "20000 = x");
  EXPECT_GT(indexed.probe_calls, 0);
  EXPECT_EQ(indexed.blocks_read, 0);
}

TEST_F(SelectiveScanTest, ComparisonWithNullKeepsNothing) {
  auto none = [](const ModelRow&) { return false; };
  ExpectRows("x = NULL", none);
  ExpectRows("NULL < x", none);
  ExpectRows("x = NULL AND y <= 40", none);
}

TEST_F(SelectiveScanTest, DoubleLiteralKeepsTheGeneralKernel) {
  ExpectRows("x < 2.5", [](const ModelRow& r) {
    return r.x.has_value() && static_cast<double>(*r.x) < 2.5;
  });
  // The range folds x >= -3 only; x < 2.5 refines it.
  ExpectRows("x >= -3 AND x < 2.5",
             [](const ModelRow& r) { return In(r.x, -3, 2); });
}

TEST_F(SelectiveScanTest, SecondBoundOnAnotherColumn) {
  ExpectRows("x >= 0 AND y <= 40", [](const ModelRow& r) {
    return In(r.x, 0, kMax) && In(r.y, kMin, 40);
  });
  ExpectRows("x BETWEEN -500 AND 500 AND y BETWEEN 10 AND 12 AND x <> 7",
             [](const ModelRow& r) {
               return In(r.x, -500, 500) && In(r.y, 10, 12) && *r.x != 7;
             });
}

TEST_F(SelectiveScanTest, OverflowAfterTheRangeFailsOnlyOnKeptRows) {
  // x = 20000 keeps rows 20480-30719 only, whose v * 10^14 fits BIGINT.
  ExpectRows("x = 20000 AND v * 100000000000000 <> 0",
             [](const ModelRow& r) { return In(r.x, 20000, 20000); });
  ExpectRows("x BETWEEN 19999 AND 20001 AND v * 100000000000000 < 0",
             [](const ModelRow& r) { return In(r.x, 20000, 20000); });
  // The wide range keeps rows whose product overflows: the query fails
  // in every configuration, as the conjunct would on its own.
  const std::string sql =
      "SELECT id FROM t WHERE x >= -10000 AND v * 100000000000000 <> 0";
  for (Database* db : dbs_) {
    for (int threads : {1, 4}) {
      auto result = RunAt(db, threads, sql);
      ASSERT_FALSE(result.ok()) << threads;
      EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange)
          << result.status().ToString();
    }
  }
}

TEST_F(SelectiveScanTest, CountersReadAsIfEachComparisonRanAlone) {
  // x BETWEEN lo AND hi AND y < 30: the first comparison reads every
  // row, the second the rows the first kept, the third the rows both
  // kept; each is one batch under a selection per block.
  const int64_t lo = -2000;
  const int64_t hi = 3000;
  int64_t first = 0;
  int64_t both = 0;
  int64_t kept[2] = {0, 0};  // per morsel
  for (const ModelRow& r : *model_) {
    first += In(r.x, lo, kMax) ? 1 : 0;
    both += In(r.x, lo, hi) ? 1 : 0;
    if (In(r.x, lo, hi) && In(r.y, kMin, 29)) {
      kept[r.id / static_cast<int64_t>(kMorselRows)]++;
    }
  }
  const int64_t blocks = (kRows + kChunkSize - 1) / kChunkSize;
  auto result = RunAt(dbs_[2], 1,
                      "SELECT id FROM t WHERE x BETWEEN " +
                          std::to_string(lo) + " AND " + std::to_string(hi) +
                          " AND y < 30");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->stats().expr_rows_evaluated, kRows + first + both);
  EXPECT_EQ(result->stats().sel_vector_hits, 3 * blocks);
  EXPECT_EQ(result->stats().blocks_read, blocks);
  // The survivors of a morsel's blocks share its chunks.
  const auto chunk = static_cast<int64_t>(kChunkSize);
  EXPECT_EQ(result->stats().chunks_emitted,
            (kept[0] + chunk - 1) / chunk + (kept[1] + chunk - 1) / chunk);
  EXPECT_EQ(static_cast<int64_t>(result->num_rows()), kept[0] + kept[1]);
}

TEST_F(SelectiveScanTest, RangeMovesFirstPastConjunctsThatCannotFail) {
  ExpectRows("y <> 50 AND x BETWEEN -2000 AND 3000", [](const ModelRow& r) {
    return In(r.y, kMin, kMax) && *r.y != 50 && In(r.x, -2000, 3000);
  });
  ExpectRows("x <> 7 AND y <= 40 AND d IN (" + Day(5) + ") AND y >= 10",
             [&](const ModelRow& r) {
               return In(r.x, kMin, kMax) && *r.x != 7 && In(r.y, 10, 40) &&
                      In(r.d, kFirstDay + 5, kFirstDay + 5);
             });
  // Only the first folding column leads; x's bounds stay behind y's.
  ExpectRows("y < 30 AND x BETWEEN -2000 AND 3000", [](const ModelRow& r) {
    return In(r.y, kMin, 29) && In(r.x, -2000, 3000);
  });
}

TEST_F(SelectiveScanTest, ReorderedConjunctsCountInTheirRunOrder) {
  // `y <> 50 AND x BETWEEN lo AND hi` runs as x >= lo, x <= hi, y <> 50;
  // `y < 30 AND x BETWEEN lo AND hi` folds y < 30, the first conjunct
  // that folds, and runs x >= lo, x <= hi after it. Each conjunct is one
  // batch under a selection per block, over the rows the ones before it
  // kept, at every thread count.
  const int64_t lo = -2000;
  const int64_t hi = 3000;
  int64_t x_lo = 0;
  int64_t x_both = 0;
  int64_t y_lt = 0;
  int64_t y_lt_x_lo = 0;
  for (const ModelRow& r : *model_) {
    x_lo += In(r.x, lo, kMax) ? 1 : 0;
    x_both += In(r.x, lo, hi) ? 1 : 0;
    y_lt += In(r.y, kMin, 29) ? 1 : 0;
    y_lt_x_lo += In(r.y, kMin, 29) && In(r.x, lo, kMax) ? 1 : 0;
  }
  const std::string between =
      " AND x BETWEEN " + std::to_string(lo) + " AND " + std::to_string(hi);
  const std::pair<std::string, int64_t> cases[] = {
      {"y <> 50" + between, kRows + x_lo + x_both},
      {"y < 30" + between, kRows + y_lt + y_lt_x_lo}};
  const int64_t blocks = (kRows + kChunkSize - 1) / kChunkSize;
  for (const auto& [where, evaluated] : cases) {
    for (int threads : {1, 4}) {
      auto result = RunAt(dbs_[2], threads, "SELECT id FROM t WHERE " + where);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      EXPECT_EQ(result->stats().expr_rows_evaluated, evaluated)
          << where << " " << threads;
      EXPECT_EQ(result->stats().sel_vector_hits, 3 * blocks)
          << where << " " << threads;
    }
  }
}

TEST_F(SelectiveScanTest, RangeNeverMovesPastAConjunctThatCanFail) {
  // Written after the range, the product sees only rows whose product
  // fits (OverflowAfterTheRangeFailsOnlyOnKeptRows). Written before it,
  // it sees every row and overflows: the range does not move past it.
  const std::string sql =
      "SELECT id FROM t WHERE v * 100000000000000 < 0 AND x BETWEEN 19999 "
      "AND 20001";
  for (Database* db : dbs_) {
    for (int threads : {1, 4}) {
      auto result = RunAt(db, threads, sql);
      ASSERT_FALSE(result.ok()) << threads;
      EXPECT_EQ(result.status().code(), StatusCode::kOutOfRange)
          << result.status().ToString();
    }
  }
}

TEST_F(SelectiveScanTest, ExplainPrintsTheRunOrder) {
  // x's bounds move past y <> 50 but not past the product; x < 0 stays
  // behind the product.
  auto plan = dbs_[1]->Explain(
      "SELECT id FROM t WHERE y <> 50 AND x BETWEEN 1 AND 2 AND v * 2 > 0 "
      "AND x < 0");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("filter=((t.x >= 1) AND (t.x <= 2) AND (t.y <> 50) "
                       "AND ((t.v * 2) > 0) AND (t.x < 0))"),
            std::string::npos)
      << *plan;
  // A predicate already in run order prints as written.
  plan = dbs_[1]->Explain("SELECT id FROM t WHERE x >= 1 AND y <> 50");
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->find("filter=((t.x >= 1) AND (t.y <> 50))"),
            std::string::npos)
      << *plan;
}

TEST_F(SelectiveScanTest, AggregatesOverTheScanAreByteIdentical) {
  // The BIGINT and DATE keys take direct-indexed group ids in memory and
  // the hash path under the budget. Float sums make the accumulation
  // order observable; they must agree across the morsel configurations
  // at every thread count. The budgeted run is compared on integer
  // aggregates only: its spill-capable aggregation adds a table of
  // several morsels in one sequence, not as merged per-morsel partials,
  // and the serial pull path does the same.
  struct Case {
    const char* sql;
    std::vector<Database*> dbs;
  };
  const std::vector<Case> cases = {
      {"SELECT y % 7, COUNT(*), SUM(v), SUM(v * 0.1), AVG(x * 0.001) "
       "FROM t WHERE x BETWEEN -5000 AND 5000 GROUP BY y % 7",
       {dbs_[1], dbs_[2]}},
      {"SELECT d, COUNT(*), SUM(v * 0.3) FROM t WHERE d >= DATE "
       "'1995-01-01' AND d < DATE '1995-03-01' AND y < 50 GROUP BY d",
       {dbs_[1], dbs_[2]}},
      {"SELECT y % 7, COUNT(*), SUM(v), MIN(x), MAX(d) FROM t "
       "WHERE x BETWEEN -5000 AND 5000 GROUP BY y % 7",
       {dbs_[0], dbs_[1], dbs_[2], dbs_[3]}},
      {"SELECT x, d, COUNT(*), SUM(v) FROM t WHERE x = 20000 OR "
       "x < -9990 GROUP BY x, d",
       {dbs_[0], dbs_[1], dbs_[2], dbs_[3]}}};
  for (const Case& c : cases) {
    auto reference = RunAt(dbs_[1], 1, c.sql);
    ASSERT_TRUE(reference.ok()) << reference.status().ToString();
    ASSERT_GT(reference->num_rows(), 0u) << c.sql;
    for (Database* db : c.dbs) {
      for (int threads : {1, 4}) {
        auto got = RunAt(db, threads, c.sql);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(got->num_rows(), reference->num_rows()) << c.sql;
        for (size_t r = 0; r < got->num_rows(); ++r) {
          for (size_t col = 0; col < got->num_columns(); ++col) {
            Value a = reference->Get(r, col);
            Value b = got->Get(r, col);
            ASSERT_EQ(a.is_null(), b.is_null()) << c.sql;
            if (a.is_null()) continue;
            if (a.type() == TypeId::kDouble) {
              ASSERT_EQ(a.AsDouble(), b.AsDouble()) << c.sql << " " << threads;
            } else {
              ASSERT_EQ(a.Compare(b), 0) << c.sql << " " << threads;
            }
          }
        }
      }
    }
  }
}

/// A comparison with a NaN literal keeps in WHERE exactly the rows whose
/// projected comparison is TRUE, with and without zone maps: a NaN bound
/// prunes no block. (The comparison's own NaN semantics are the
/// evaluator's, whatever they are.)
TEST(ScanNanTest, NanLiteralKeepsTheRowsItsComparisonAccepts) {
  for (bool zone_maps : {true, false}) {
    DatabaseOptions options;
    options.physical.enable_zone_maps = zone_maps;
    Database db(options);
    ASSERT_TRUE(db.Execute("CREATE TABLE n (x DOUBLE)").ok());
    ASSERT_TRUE(db.Execute("INSERT INTO n VALUES (1.0), "
                           "(CAST('nan' AS DOUBLE)), (2.0)")
                    .ok());
    const std::string nan = "CAST('nan' AS DOUBLE)";
    for (const char* op : {"=", "<>", "<", "<=", ">", ">="}) {
      // A second, finite bound makes the scan build zone maps.
      for (const std::string& where :
           {"x " + std::string(op) + " " + nan,
            nan + " " + std::string(op) + " x",
            "x > -1000.0 AND x " + std::string(op) + " " + nan}) {
        auto projected = db.Execute("SELECT " + where + " FROM n");
        ASSERT_TRUE(projected.ok()) << projected.status().ToString();
        int64_t want = 0;
        for (size_t r = 0; r < projected->num_rows(); ++r) {
          const Value v = projected->Get(r, 0);
          want += !v.is_null() && v.bool_value() ? 1 : 0;
        }
        auto counted = db.Execute("SELECT COUNT(*) FROM n WHERE " + where);
        ASSERT_TRUE(counted.ok()) << counted.status().ToString();
        EXPECT_EQ(counted->Get(0, 0).int64_value(), want)
            << where << (zone_maps ? " [zone maps]" : " [no zone maps]");
      }
    }
  }
}

// -- Output chunks, operator level -----------------------------------------

/// A scan over c(x BIGINT) with x = row id, read through the serial pull
/// path and through ScanMorsel.
class ScanChunkTest : public ::testing::Test {
 protected:
  static constexpr int64_t kTableRows = 6 * 2048 + 100;

  void SetUp() override {
    ASSERT_TRUE(db_.Execute("CREATE TABLE c (x BIGINT)").ok());
    auto table = db_.catalog().GetTable("c");
    ASSERT_TRUE(table.ok());
    table_ = *table;
    for (int64_t i = 0; i < kTableRows; ++i) {
      ASSERT_TRUE(table_->AppendRow({Value::Int64(i)}).ok());
    }
  }

  std::unique_ptr<PhysicalScan> MakeScan(ExprPtr predicate, bool row_ids,
                                         ExecContext* context) {
    Schema schema = row_ids ? RowIdSchema() : table_->schema();
    return std::make_unique<PhysicalScan>(table_, std::vector<size_t>{},
                                          std::move(predicate),
                                          /*zone_maps=*/false, row_ids,
                                          schema, context);
  }

  /// The chunk sizes and concatenated x values (or row ids) the serial
  /// pull path emits.
  void Pull(ExprPtr predicate, bool row_ids, std::vector<size_t>* sizes,
            std::vector<int64_t>* values, ExecStats* stats) {
    ExecContext context;
    auto scan = MakeScan(std::move(predicate), row_ids, &context);
    ASSERT_TRUE(scan->Open().ok());
    bool done = false;
    while (!done) {
      Chunk chunk;
      ASSERT_TRUE(scan->Next(&chunk, &done).ok());
      if (chunk.num_rows() == 0) continue;
      sizes->push_back(chunk.num_rows());
      for (size_t r = 0; r < chunk.num_rows(); ++r) {
        values->push_back(chunk.column(0).GetInt64(r));
      }
    }
    *stats = context.stats;
  }

  /// The same through ScanMorsel over the one morsel covering the table.
  void Morsels(ExprPtr predicate, bool row_ids, std::vector<size_t>* sizes,
               std::vector<int64_t>* values) {
    ExecContext context;
    auto scan = MakeScan(std::move(predicate), row_ids, &context);
    ASSERT_TRUE(scan->Open().ok());
    Morsel morsel;
    while (scan->ClaimMorsel(&morsel)) {
      ASSERT_TRUE(scan->ScanMorsel(
                          morsel,
                          [&](Chunk&& chunk) {
                            sizes->push_back(chunk.num_rows());
                            for (size_t r = 0; r < chunk.num_rows(); ++r) {
                              values->push_back(chunk.column(0).GetInt64(r));
                            }
                            return Status::OK();
                          },
                          &context.stats)
                      .ok());
    }
  }

  /// Checks both paths against the rows `keep` accepts and returns the
  /// serial path's chunk sizes.
  std::vector<size_t> Check(const ExprPtr& predicate, bool row_ids,
                            const std::function<bool(int64_t)>& keep,
                            ExecStats* stats) {
    std::vector<int64_t> want;
    for (int64_t i = 0; i < kTableRows; ++i) {
      if (keep(i)) want.push_back(i);
    }
    std::vector<size_t> sizes, morsel_sizes;
    std::vector<int64_t> values, morsel_values;
    Pull(predicate, row_ids, &sizes, &values, stats);
    Morsels(predicate, row_ids, &morsel_sizes, &morsel_values);
    EXPECT_EQ(values, want);
    EXPECT_EQ(morsel_values, want);
    EXPECT_EQ(sizes, morsel_sizes);
    for (size_t size : sizes) EXPECT_LE(size, kChunkSize);
    return sizes;
  }

  Database db_;
  std::shared_ptr<Table> table_;
};

ExprPtr X() { return MakeColumnRef(0, TypeId::kInt64, "x"); }
ExprPtr Int(int64_t v) { return MakeLiteral(Value::Int64(v)); }

TEST_F(ScanChunkTest, PendingRowsPrecedeAFullyPassingBlock) {
  // x % 4096 >= 1000: blocks alternate between passing in part (rows
  // 1000-2047 of each 4096) and passing whole.
  ExprPtr pred = MakeCompare(CompareOp::kGe,
                             MakeArith(ArithOp::kMod, X(), Int(4096)),
                             Int(1000));
  ExecStats stats;
  std::vector<size_t> sizes = Check(
      pred, false, [](int64_t i) { return i % 4096 >= 1000; }, &stats);
  // The last 100 rows (x % 4096 < 100) all fail.
  const std::vector<size_t> want = {1048, 2048, 1048, 2048, 1048, 2048};
  EXPECT_EQ(sizes, want);
  EXPECT_EQ(stats.chunks_emitted, 6);
  EXPECT_EQ(stats.filter_gathers_avoided, 3);  // the three whole blocks
  EXPECT_EQ(stats.blocks_read, 7);
}

TEST_F(ScanChunkTest, SurvivorsOfManyBlocksFillWholeChunks) {
  // Every third row survives: 683 of each block, gathered 2048 at a time.
  ExprPtr pred = MakeCompare(
      CompareOp::kEq, MakeArith(ArithOp::kMod, X(), Int(3)), Int(0));
  ExecStats stats;
  std::vector<size_t> sizes =
      Check(pred, false, [](int64_t i) { return i % 3 == 0; }, &stats);
  ASSERT_FALSE(sizes.empty());
  for (size_t c = 0; c + 1 < sizes.size(); ++c) EXPECT_EQ(sizes[c], 2048u);
  EXPECT_EQ(stats.chunks_emitted, static_cast<int64_t>(sizes.size()));
  EXPECT_EQ(stats.filter_gathers_avoided, 0);

  // Row ids gather the same way; a whole block is no slice for them.
  ExprPtr range = MakeCompare(CompareOp::kGe, X(), Int(100));
  sizes = Check(range, true, [](int64_t i) { return i >= 100; }, &stats);
  for (size_t c = 0; c + 1 < sizes.size(); ++c) EXPECT_EQ(sizes[c], 2048u);
  EXPECT_EQ(stats.filter_gathers_avoided, 0);
}

TEST_F(ScanChunkTest, LeadingRangeThenPartialAndWholeBlocks) {
  // The range keeps the tail of block 0 and all of blocks 1-2, then the
  // rest of the predicate cuts block 2 in part.
  ExprPtr pred = MakeAnd(
      MakeAnd(MakeCompare(CompareOp::kGe, X(), Int(1500)),
              MakeCompare(CompareOp::kLt, X(), Int(3 * 2048))),
      MakeCompare(CompareOp::kNe, X(), Int(5000)));
  ExecStats stats;
  std::vector<size_t> sizes = Check(
      pred, false, [](int64_t i) { return i >= 1500 && i < 6144 && i != 5000; },
      &stats);
  const std::vector<size_t> want = {548, 2048, 2047};
  EXPECT_EQ(sizes, want);
  // Three comparisons per block, each counted once per block.
  EXPECT_EQ(stats.sel_vector_hits, 3 * 7);
}


TEST(ScanLimitTest, SelectiveLimitReadsAtMostOneMorsel) {
  // Survivors gather across blocks only up to a morsel boundary, so a
  // LIMIT over a selective serial scan stops within the morsel holding
  // the row it needs, not at the end of the table.
  DatabaseOptions serial;
  serial.physical.enable_parallel = false;
  Database db(serial);
  ASSERT_TRUE(db.Execute("CREATE TABLE w (x BIGINT)").ok());
  auto table = db.catalog().GetTable("w");
  ASSERT_TRUE(table.ok());
  const auto rows = static_cast<int64_t>(4 * kMorselRows);
  for (int64_t i = 0; i < rows; ++i) {
    ASSERT_TRUE((*table)->AppendRow({Value::Int64(i)}).ok());
  }
  const auto morsel_blocks = static_cast<int64_t>(kMorselRows / kChunkSize);
  // The first morsel holds 66 rows with x % 1000 = 7 (7 .. 65007).
  const std::pair<const char*, int64_t> cases[] = {
      {"SELECT x FROM w WHERE x % 1000 = 7 LIMIT 1", morsel_blocks},
      {"SELECT x FROM w WHERE x % 1000 = 7 LIMIT 67", 2 * morsel_blocks},
      {"SELECT x FROM w WHERE x % 1000 = 7", 4 * morsel_blocks}};
  for (const auto& [sql, blocks] : cases) {
    auto result = db.Execute(sql);
    ASSERT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    ASSERT_GT(result->num_rows(), 0u) << sql;
    EXPECT_EQ(result->Get(0, 0).int64_value(), 7) << sql;
    EXPECT_EQ(result->stats().blocks_read, blocks) << sql;
  }
}

}  // namespace
}  // namespace agora
