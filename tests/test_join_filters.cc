// Join filters pushed into probe-side scans (PhysicalScan::AddJoinFilter,
// published by the physical planner): every shape must return exactly
// what the nested-loop plan returns, at 1 and at 4 threads, and a filter
// must be published exactly where the design says. Publication shows as
// the probe-side Scan emitting fewer rows than the same plan emits under
// a memory budget, where joins run in spill mode and publish nothing.
// The exact key bitmap (JoinKeyFilter) is checked for the keys it takes
// and the ones it leaves to the Bloom filter, with bloom_filtered_rows
// counted by hand. Runs under `ctest -L parallel` (and in the TSan CI
// leg, where morsel workers read a published filter concurrently).

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "exec/hash_table.h"

namespace agora {
namespace {

constexpr int kFactRows = 3000;
constexpr int kBigRows = 70000;  // two morsels

/// Generated facts: k1 NULL every 37th row, else i % 200 (d1 holds keys
/// 0..149, so some rows never match); k2 NULL every 41st row, else i % 60;
/// s one of 25 dictionary strings.
std::string FactInsert() {
  std::string sql = "INSERT INTO f VALUES ";
  for (int i = 0; i < kFactRows; ++i) {
    std::string k1 = i % 37 == 0 ? "NULL" : std::to_string(i % 200);
    std::string k2 = i % 41 == 0 ? "NULL" : std::to_string(i % 60);
    sql += (i > 0 ? ", (" : "(") + k1 + ", " + k2 + ", 's" +
           std::to_string(i % 25) + "', " + std::to_string(i) + ")";
  }
  return sql;
}

bool BigKeyIsNull(int i) { return i % 1000 == 0; }

// The exact-filter tables. p is the probe side: 3000 generated rows and
// the keys of kEdgeKeys; bk is the build side, 100 rows. Keys are
// negative and positive, bk's repeat, and both sides hold NULLs.
constexpr int kProbeRows = 3000;
constexpr int kBuildRows = 100;
constexpr int64_t kBudget = static_cast<int64_t>(JoinKeyFilter::kExactMinBits);
const int64_t kEdgeKeys[] = {INT64_MIN,   INT64_MIN + 1, INT64_MIN + 5,
                             INT64_MAX,   INT64_MAX - 1, kBudget - 1,
                             kBudget,     kBudget + 1,   -1};

bool ProbeKeyIsNull(int i) { return i % 29 == 0; }
int64_t ProbeKey(int i) { return i % 400 - 200; }
bool ProbeDateIsNull(int i) { return i % 31 == 0; }
std::pair<int, int> ProbeDate(int i) { return {1 + (i / 28) % 12, 1 + i % 28}; }
bool BuildKeyIsNull(int j) { return j % 17 == 0; }
int64_t BuildKey(int j) { return j % 50 * 3 - 60; }  // each key twice
bool BuildDateIsNull(int j) { return j % 13 == 0; }
std::pair<int, int> BuildDate(int j) { return {1 + j % 12, 1 + j * 3 % 28}; }

std::string DateSql(std::pair<int, int> month_day) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "DATE '1995-%02d-%02d'", month_day.first,
                month_day.second);
  return buf;
}

std::vector<std::string> ExactFilterStatements() {
  std::vector<std::string> sql = {
      "CREATE TABLE p (k BIGINT, d DATE, v BIGINT)",
      "CREATE TABLE bk (k BIGINT, d DATE, w BIGINT)",
      // Boundary builds: w picks which keys a query's build side holds.
      "CREATE TABLE ext (k BIGINT, w BIGINT)",
      "INSERT INTO ext VALUES (-9223372036854775808, 1), "
      "(-9223372036854775803, 2), (9223372036854775807, 3), (5, 4), "
      "(NULL, 5), (0, 6), (" + std::to_string(kBudget - 1) + ", 7), (" +
          std::to_string(kBudget) + ", 8)"};
  std::string rows = "INSERT INTO p VALUES ";
  for (int i = 0; i < kProbeRows; ++i) {
    rows += (i > 0 ? ", (" : "(") +
            (ProbeKeyIsNull(i) ? "NULL" : std::to_string(ProbeKey(i))) + ", " +
            (ProbeDateIsNull(i) ? "NULL" : DateSql(ProbeDate(i))) + ", " +
            std::to_string(i) + ")";
  }
  int v = kProbeRows;
  for (int64_t k : kEdgeKeys) {
    rows += ", (" + std::to_string(k) + ", NULL, " + std::to_string(v++) + ")";
  }
  sql.push_back(rows);
  rows = "INSERT INTO bk VALUES ";
  for (int j = 0; j < kBuildRows; ++j) {
    rows += (j > 0 ? ", (" : "(") +
            (BuildKeyIsNull(j) ? "NULL" : std::to_string(BuildKey(j))) + ", " +
            (BuildDateIsNull(j) ? "NULL" : DateSql(BuildDate(j))) + ", " +
            std::to_string(j) + ")";
  }
  sql.push_back(rows);
  return sql;
}

/// Every non-NULL key of p, in row order.
std::vector<int64_t> ProbeKeys() {
  std::vector<int64_t> keys;
  for (int i = 0; i < kProbeRows; ++i) {
    if (!ProbeKeyIsNull(i)) keys.push_back(ProbeKey(i));
  }
  keys.insert(keys.end(), std::begin(kEdgeKeys), std::end(kEdgeKeys));
  return keys;
}

/// How many of `probe` are not in `build`.
template <typename T>
int64_t Absent(const std::vector<T>& probe, const std::set<T>& build) {
  int64_t absent = 0;
  for (const T& k : probe) absent += build.count(k) == 0 ? 1 : 0;
  return absent;
}

/// The multi-morsel table, loaded into the hash engine only.
std::vector<std::string> BigStatements() {
  std::vector<std::string> out = {"CREATE TABLE big (k BIGINT, v BIGINT)"};
  for (int begin = 0; begin < kBigRows; begin += 10000) {
    std::string sql = "INSERT INTO big VALUES ";
    for (int i = begin; i < begin + 10000; ++i) {
      std::string k = BigKeyIsNull(i) ? "NULL" : std::to_string(i % 200);
      sql += (i > begin ? ", (" : "(") + k + ", " + std::to_string(i) + ")";
    }
    out.push_back(std::move(sql));
  }
  return out;
}

std::vector<std::string> SetupStatements() {
  std::vector<std::string> sql = {
      "CREATE TABLE f (k1 BIGINT, k2 BIGINT, s VARCHAR, v BIGINT)",
      "CREATE TABLE d1 (k BIGINT, w BIGINT, m BIGINT)",
      "CREATE TABLE d2 (k BIGINT, name VARCHAR, tag VARCHAR)",
      "CREATE TABLE dx (k DOUBLE, w BIGINT)",
      FactInsert()};
  std::string d1 = "INSERT INTO d1 VALUES ";
  std::string dx = "INSERT INTO dx VALUES ";
  for (int i = 0; i < 150; ++i) {
    std::string sep = i > 0 ? ", (" : "(";
    d1 += sep + std::to_string(i) + ", " + std::to_string(i * 7 % 500) +
          ", " + std::to_string(i % 60) + ")";
    dx += sep + std::to_string(i) + ".0, " + std::to_string(i * 7 % 500) +
          ")";
  }
  std::string d2 = "INSERT INTO d2 VALUES ";
  for (int i = 0; i < 60; ++i) {
    d2 += (i > 0 ? ", (" : "(") + std::to_string(i) + ", 'n" +
          std::to_string(i % 9) + "', 's" + std::to_string(i % 30) + "')";
  }
  sql.push_back(d1);
  sql.push_back(d2);
  sql.push_back(dx);
  return sql;
}

class JoinFilterTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Force a multi-threaded global pool (the host may expose one core);
    // must run before the first query constructs ThreadPool::Global().
    setenv("AGORA_THREADS", "4", 0);
    DatabaseOptions options;
    options.physical.parallel_min_rows = 1;  // every pipeline on morsels
    hash_db_ = new Database(options);
    budgeted_db_ = new Database(options);
    budgeted_db_->set_memory_budget(int64_t{1} << 30);  // never reached
    DatabaseOptions nl_options;
    nl_options.physical.enable_hash_join = false;
    nl_db_ = new Database(nl_options);
    std::vector<std::string> setup = SetupStatements();
    for (std::string& sql : ExactFilterStatements()) {
      setup.push_back(std::move(sql));
    }
    for (const std::string& sql : setup) {
      for (Database* db : {hash_db_, budgeted_db_, nl_db_}) {
        auto result = db->Execute(sql);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
      }
    }
    for (const std::string& sql : BigStatements()) {
      auto result = hash_db_->Execute(sql);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
    }
  }
  static void TearDownTestSuite() {
    for (Database** db : {&hash_db_, &budgeted_db_, &nl_db_}) {
      delete *db;
      *db = nullptr;
    }
  }

  static QueryResult RunAt(Database* db, int threads, const std::string& sql) {
    db->set_execution_threads(threads);
    auto result = db->Execute(sql);
    db->set_execution_threads(0);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
    return result.ok() ? std::move(*result) : QueryResult();
  }

  static void ExpectIdentical(const QueryResult& a, const QueryResult& b,
                              const std::string& label) {
    ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
    ASSERT_EQ(a.num_columns(), b.num_columns()) << label;
    for (size_t r = 0; r < a.num_rows(); ++r) {
      for (size_t c = 0; c < a.num_columns(); ++c) {
        Value va = a.Get(r, c);
        Value vb = b.Get(r, c);
        ASSERT_EQ(va.is_null(), vb.is_null())
            << label << " (" << r << "," << c << ")";
        if (!va.is_null()) {
          EXPECT_EQ(va.Compare(vb), 0)
              << label << " (" << r << "," << c << "): " << va.ToString()
              << " vs " << vb.ToString();
        }
      }
    }
  }

  /// Rows emitted by every Scan of the plan, summed.
  static int64_t ScanRows(const QueryResult& result) {
    int64_t rows = 0;
    for (const OperatorProfileNode& node : result.profile()) {
      if (node.name == "Scan") rows += node.rows_out;
    }
    return rows;
  }

  static int64_t Count(const std::string& sql) {
    QueryResult r = RunAt(nl_db_, 1, sql);
    return r.num_rows() == 1 ? r.Get(0, 0).int64_value() : -1;
  }

  /// Runs `sql` at 1 and 4 threads and requires both runs to match the
  /// nested-loop plan (and the budgeted, filter-free run) cell for cell
  /// and to count alike. Returns how many fewer rows the scans emitted
  /// than without join filters.
  static int64_t RowsDroppedByFilters(const std::string& sql) {
    QueryResult oracle = RunAt(nl_db_, 1, sql);
    QueryResult unfiltered = RunAt(budgeted_db_, 1, sql);
    ExpectIdentical(oracle, unfiltered, "budgeted: " + sql);
    QueryResult serial = RunAt(hash_db_, 1, sql);
    ExpectIdentical(oracle, serial, "1 thread: " + sql);
    QueryResult parallel = RunAt(hash_db_, 4, sql);
    ExpectIdentical(oracle, parallel, "4 threads: " + sql);
    EXPECT_EQ(serial.stats().bloom_checked_rows,
              parallel.stats().bloom_checked_rows)
        << sql;
    EXPECT_EQ(serial.stats().bloom_filtered_rows,
              parallel.stats().bloom_filtered_rows)
        << sql;
    EXPECT_EQ(ScanRows(serial), ScanRows(parallel)) << sql;
    return ScanRows(unfiltered) - ScanRows(serial);
  }

  /// Runs `sql` through RowsDroppedByFilters and then at 1 and 4 threads
  /// requires its one join to use the expected filter kind, to check
  /// `checked` probe keys and to drop exactly `filtered` of them (at most
  /// `filtered` for a Bloom filter, whose false positives pass). Returns
  /// the rows the scans dropped.
  static int64_t ExpectFilter(const std::string& sql, bool exact,
                              int64_t checked, int64_t filtered) {
    const int64_t dropped = RowsDroppedByFilters(sql);
    for (int threads : {1, 4}) {
      QueryResult r = RunAt(hash_db_, threads, sql);
      const ExecStats& s = r.stats();
      EXPECT_EQ(s.join_filters_exact, exact ? 1 : 0) << threads << ": " << sql;
      EXPECT_EQ(s.bloom_checked_rows, checked) << threads << ": " << sql;
      if (exact) {
        EXPECT_EQ(s.bloom_filtered_rows, filtered) << threads << ": " << sql;
      } else {
        EXPECT_LE(s.bloom_filtered_rows, filtered) << threads << ": " << sql;
      }
    }
    return dropped;
  }

  static Database* hash_db_;
  static Database* budgeted_db_;
  static Database* nl_db_;
};

Database* JoinFilterTest::hash_db_ = nullptr;
Database* JoinFilterTest::budgeted_db_ = nullptr;
Database* JoinFilterTest::nl_db_ = nullptr;

TEST_F(JoinFilterTest, ReachesScanThroughProjectFilterAndJoinProbe) {
  // c's filter reaches f's scan through a Filter, a LEFT JOIN's probe
  // side, the Project the join reorderer adds, and two inner probes.
  const std::string sql =
      "SELECT f.v, a.w, e.name FROM d1 a JOIN f ON f.k1 = a.k "
      "JOIN d2 b ON f.k2 = b.k LEFT JOIN d2 e ON f.k2 = e.k "
      "JOIN d1 c ON f.v = c.k WHERE c.w < 50 "
      "AND (e.name IS NULL OR e.name <> 'n3') ORDER BY f.v";
  QueryResult plan = RunAt(hash_db_, 1, "EXPLAIN " + sql);
  ASSERT_EQ(plan.num_rows(), 1u);
  const std::string text = plan.Get(0, 0).ToString();
  EXPECT_NE(text.find("Filter("), std::string::npos) << text;
  EXPECT_NE(text.find("LeftJoin("), std::string::npos) << text;
  EXPECT_NE(text.find("  Project("), std::string::npos) << text;
  EXPECT_GT(RowsDroppedByFilters(sql), 0);
}

TEST_F(JoinFilterTest, TwoFiltersStackOnOneScan) {
  const std::string sql =
      "SELECT f.v, d1.w, d2.name FROM f, d1, d2 "
      "WHERE f.k1 = d1.k AND f.k2 = d2.k AND d1.w < 100 "
      "AND d2.name IN ('n1', 'n2', 'n3') ORDER BY f.v";
  int64_t dropped = RowsDroppedByFilters(sql);
  // f's scan emits about the rows matching both joins: fewer than match
  // either join alone, so both filters ran there.
  int64_t emitted = kFactRows - dropped;
  QueryResult both = RunAt(hash_db_, 1, sql);
  EXPECT_GE(emitted, static_cast<int64_t>(both.num_rows()));
  EXPECT_LT(emitted, Count("SELECT COUNT(*) FROM f JOIN d1 ON f.k1 = d1.k "
                           "WHERE d1.w < 100"));
  EXPECT_LT(emitted, Count("SELECT COUNT(*) FROM f JOIN d2 ON f.k2 = d2.k "
                           "WHERE d2.name IN ('n1', 'n2', 'n3')"));
}

TEST_F(JoinFilterTest, EmptyBuildSideDropsEveryProbeRow) {
  const std::string sql =
      "SELECT f.v, d1.w FROM f JOIN d1 ON f.k1 = d1.k WHERE d1.w < 0";
  EXPECT_EQ(RowsDroppedByFilters(sql), kFactRows);
  QueryResult r = RunAt(hash_db_, 1, sql);
  EXPECT_EQ(r.num_rows(), 0u);
  // Every non-NULL key is checked and rejected; NULL keys are dropped
  // without a check, as the probe did.
  int64_t keyed = Count("SELECT COUNT(k1) FROM f");
  EXPECT_EQ(r.stats().bloom_checked_rows, keyed);
  EXPECT_EQ(r.stats().bloom_filtered_rows, keyed);
  EXPECT_EQ(r.stats().hash_table_lookups, 0);
}

TEST_F(JoinFilterTest, NullProbeKeysNeverReachTheJoin) {
  const std::string sql =
      "SELECT f.v, d1.w FROM f JOIN d1 ON f.k1 = d1.k WHERE d1.w < 100 "
      "ORDER BY f.v";
  const int64_t keyed = Count("SELECT COUNT(k1) FROM f");
  // More rows drop than the NULL-key ones, and only keyed rows are
  // checked.
  EXPECT_GT(RowsDroppedByFilters(sql), kFactRows - keyed);
  QueryResult r = RunAt(hash_db_, 1, sql);
  EXPECT_EQ(r.stats().bloom_checked_rows, keyed);
}

TEST_F(JoinFilterTest, DictionaryStringKeys) {
  EXPECT_GT(RowsDroppedByFilters(
                "SELECT f.v, d2.k FROM f JOIN d2 ON f.s = d2.tag "
                "WHERE d2.k < 20 ORDER BY f.v, d2.k"),
            0);
}

TEST_F(JoinFilterTest, TwoKeyJoinOnOneScan) {
  EXPECT_GT(RowsDroppedByFilters(
                "SELECT f.v, d1.w FROM f JOIN d1 "
                "ON f.k1 = d1.k AND f.k2 = d1.m WHERE d1.w < 300 "
                "ORDER BY f.v"),
            0);
}

TEST_F(JoinFilterTest, KeysSplitAcrossScansGetNoFilter) {
  // The inner join's keys come from f's scan and from the LEFT JOIN's
  // build side (d1): no single scan produces both.
  EXPECT_EQ(RowsDroppedByFilters(
                "SELECT f.v, d1.w, d2.name FROM f LEFT JOIN d1 "
                "ON f.k1 = d1.k JOIN d2 ON f.k2 = d2.k AND d1.m = d2.k "
                "WHERE d2.name IN ('n1', 'n2', 'n3') ORDER BY f.v"),
            0);
}

TEST_F(JoinFilterTest, CastKeyGetsNoFilter) {
  // The engine has one integer type, so BIGINT = DOUBLE is the key pair
  // that needs a CAST.
  EXPECT_EQ(RowsDroppedByFilters(
                "SELECT f.v, dx.w FROM f JOIN dx ON f.k1 = dx.k "
                "WHERE dx.w < 100 ORDER BY f.v"),
            0);
}

TEST_F(JoinFilterTest, LeftJoinKeepsUnmatchedRows) {
  const std::string sql =
      "SELECT f.v, d1.w FROM f LEFT JOIN d1 ON f.k1 = d1.k ORDER BY f.v";
  EXPECT_EQ(RowsDroppedByFilters(sql), 0);
  QueryResult r = RunAt(hash_db_, 1, sql);
  ASSERT_EQ(r.num_rows(), static_cast<size_t>(kFactRows));
  EXPECT_TRUE(r.Get(0, 1).is_null());  // row 0 has a NULL key
}

TEST_F(JoinFilterTest, InnerJoinAboveLeftJoinPreservedSide) {
  const std::string sql =
      "SELECT f.v, d1.w, d2.name FROM f LEFT JOIN d2 ON f.k2 = d2.k "
      "JOIN d1 ON f.k1 = d1.k WHERE d1.w < 100 ORDER BY f.v";
  EXPECT_GT(RowsDroppedByFilters(sql), 0);
  // Rows with a NULL k2 still come back, NULL-padded by the LEFT JOIN.
  QueryResult r = RunAt(hash_db_, 4, sql);
  bool padded = false;
  for (size_t row = 0; row < r.num_rows(); ++row) {
    padded = padded || r.Get(row, 2).is_null();
  }
  EXPECT_TRUE(padded);
}

TEST_F(JoinFilterTest, BareBuildGetsNoFilter) {
  EXPECT_EQ(RowsDroppedByFilters(
                "SELECT f.v, d1.w FROM f JOIN d1 ON f.k1 = d1.k "
                "ORDER BY f.v"),
            0);
}

TEST_F(JoinFilterTest, ManyMorselsMatchHandComputedAnswer) {
  const std::string sql =
      "SELECT COUNT(*), SUM(big.v) FROM big JOIN d1 ON big.k = d1.k "
      "WHERE d1.w < 100";
  int64_t count = 0, sum = 0;
  for (int i = 0; i < kBigRows; ++i) {
    int k = i % 200;
    if (!BigKeyIsNull(i) && k < 150 && k * 7 % 500 < 100) {
      ++count;
      sum += i;
    }
  }
  const int64_t unfiltered_scan_rows =
      kBigRows + Count("SELECT COUNT(*) FROM d1 WHERE w < 100");
  for (int threads : {1, 4}) {
    QueryResult r = RunAt(hash_db_, threads, sql);
    ASSERT_EQ(r.num_rows(), 1u);
    EXPECT_EQ(r.Get(0, 0).int64_value(), count) << threads;
    EXPECT_EQ(r.Get(0, 1).int64_value(), sum) << threads;
    // big's scan checks every non-NULL key and emits only Bloom hits.
    const ExecStats& s = r.stats();
    EXPECT_EQ(s.bloom_checked_rows, kBigRows - kBigRows / 1000) << threads;
    EXPECT_EQ(ScanRows(r), unfiltered_scan_rows - kBigRows +
                               s.bloom_checked_rows - s.bloom_filtered_rows)
        << threads;
  }
}

TEST_F(JoinFilterTest, ExactFilterInTheScanDropsEveryAbsentKey) {
  // Negative keys, repeated build keys, NULLs on both sides; the filter
  // is pushed into p's scan.
  std::set<int64_t> build;
  for (int j = 0; j < 80; ++j) {
    if (!BuildKeyIsNull(j)) build.insert(BuildKey(j));
  }
  const std::vector<int64_t> probe = ProbeKeys();
  const int64_t dropped = ExpectFilter(
      "SELECT p.v, bk.w FROM p JOIN bk ON p.k = bk.k WHERE bk.w < 80 "
      "ORDER BY p.v, bk.w",
      /*exact=*/true, static_cast<int64_t>(probe.size()),
      Absent(probe, build));
  // The scan drops the absent keys and the NULL ones.
  EXPECT_EQ(dropped, Absent(probe, build) + kProbeRows / 29 + 1);
}

TEST_F(JoinFilterTest, ExactFilterInTheProbe) {
  // A bare build side publishes nothing: the join tests its own filter.
  std::set<int64_t> build;
  for (int j = 0; j < kBuildRows; ++j) {
    if (!BuildKeyIsNull(j)) build.insert(BuildKey(j));
  }
  const std::vector<int64_t> probe = ProbeKeys();
  EXPECT_EQ(ExpectFilter("SELECT p.v, bk.w FROM p JOIN bk ON p.k = bk.k "
                         "ORDER BY p.v, bk.w",
                         /*exact=*/true, static_cast<int64_t>(probe.size()),
                         Absent(probe, build)),
            0);
}

TEST_F(JoinFilterTest, ExactFilterOverDateKeys) {
  std::set<std::pair<int, int>> build;
  for (int j = 0; j < 80; ++j) {
    if (!BuildDateIsNull(j)) build.insert(BuildDate(j));
  }
  std::vector<std::pair<int, int>> probe;
  for (int i = 0; i < kProbeRows; ++i) {
    if (!ProbeDateIsNull(i)) probe.push_back(ProbeDate(i));
  }
  EXPECT_GT(ExpectFilter("SELECT p.v, bk.w FROM p JOIN bk ON p.d = bk.d "
                         "WHERE bk.w < 80 ORDER BY p.v, bk.w",
                         /*exact=*/true, static_cast<int64_t>(probe.size()),
                         Absent(probe, build)),
            0);
}

TEST_F(JoinFilterTest, ExactFilterOverAnEmptyBuildSide) {
  const std::vector<int64_t> probe = ProbeKeys();
  ExpectFilter("SELECT p.v, bk.w FROM p JOIN bk ON p.k = bk.k "
               "WHERE bk.w < 0",
               /*exact=*/true, static_cast<int64_t>(probe.size()),
               static_cast<int64_t>(probe.size()));
}

TEST_F(JoinFilterTest, KeyBitmapAtTheEndsOfBigint) {
  const std::vector<int64_t> probe = ProbeKeys();
  const auto checked = static_cast<int64_t>(probe.size());
  const std::string join =
      "SELECT p.v, ext.w FROM p JOIN ext ON p.k = ext.k WHERE ";
  // INT64_MIN and INT64_MIN + 5: a six-bit map at the bottom of BIGINT.
  ExpectFilter(join + "ext.w <= 2 ORDER BY p.v", /*exact=*/true, checked,
               Absent(probe, {INT64_MIN, INT64_MIN + 5}));
  // INT64_MAX alone: INT64_MIN - INT64_MAX wraps to 1, which is past it.
  ExpectFilter(join + "ext.w = 3 ORDER BY p.v", /*exact=*/true, checked,
               Absent(probe, {INT64_MAX}));
  // INT64_MIN..INT64_MAX spans 2^64 - 1 keys: the Bloom filter, and no
  // overflow on the way to that choice.
  ExpectFilter(join + "ext.w <= 4 ORDER BY p.v", /*exact=*/false, checked,
               Absent(probe, {INT64_MIN, INT64_MIN + 5, INT64_MAX, 5}));
}

TEST_F(JoinFilterTest, KeyBitmapUpToItsBitBudget) {
  // Three build keys: the budget is its floor, kExactMinBits bits.
  ASSERT_EQ(JoinKeyFilter::ExactBitBudget(3), JoinKeyFilter::kExactMinBits);
  const std::vector<int64_t> probe = ProbeKeys();
  const auto checked = static_cast<int64_t>(probe.size());
  const std::string join =
      "SELECT p.v, ext.w FROM p JOIN ext ON p.k = ext.k WHERE ";
  // 0 .. kBudget - 1 needs exactly the budget.
  ExpectFilter(join + "ext.w IN (4, 6, 7) ORDER BY p.v", /*exact=*/true,
               checked, Absent(probe, {0, 5, kBudget - 1}));
  // 0 .. kBudget needs one bit more.
  ExpectFilter(join + "ext.w IN (4, 6, 8) ORDER BY p.v", /*exact=*/false,
               checked, Absent(probe, {0, 5, kBudget}));
}

TEST(JoinKeyFilterTest, BudgetGrowsWithTheBuildSide) {
  // Past kExactMinBits / kExactBitsPerKey keys the budget is
  // kExactBitsPerKey bits a key: n keys may span n * 64 values.
  const size_t n = JoinKeyFilter::kExactMinBits /
                       JoinKeyFilter::kExactBitsPerKey + 1000;
  const uint64_t budget = JoinKeyFilter::ExactBitBudget(n);
  ASSERT_EQ(budget, n * JoinKeyFilter::kExactBitsPerKey);
  for (uint64_t span : {budget - 1, budget}) {
    ColumnVector keys(TypeId::kInt64);
    for (size_t i = 0; i + 1 < n; ++i) {
      keys.AppendInt64(static_cast<int64_t>(i * 3));
    }
    keys.AppendInt64(static_cast<int64_t>(span));
    keys.AppendNull();  // NULLs neither count nor widen the span
    std::vector<ColumnVector> cols = {keys};
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> valid;
    HashJoinKeys(cols, nullptr, n + 1, &hashes, &valid);
    JoinKeyFilter filter;
    filter.Build(cols, TypeId::kInt64, hashes.data(), valid.data(), n + 1);
    EXPECT_EQ(filter.exact(), span < budget) << span;
    // Both kinds keep every build key; the bitmap keeps nothing else.
    std::vector<uint32_t> out(n + 1);
    int64_t checked = 0;
    EXPECT_EQ(filter.Select(cols, 0, nullptr, n + 1, out.data(), &checked,
                            nullptr),
              n);
    EXPECT_EQ(checked, static_cast<int64_t>(n));
    ColumnVector misses(TypeId::kInt64);
    for (int64_t k : {int64_t{1}, int64_t{-1}, static_cast<int64_t>(span) + 1,
                      INT64_MIN, INT64_MAX}) {
      misses.AppendInt64(k);
    }
    if (filter.exact()) {
      std::vector<ColumnVector> probe = {misses};
      checked = 0;
      EXPECT_EQ(filter.Select(probe, 0, nullptr, 5, out.data(), &checked,
                              nullptr),
                0u);
      EXPECT_EQ(checked, 5);
    }
  }
  // A DATE build key paired with a BIGINT probe key keeps the Bloom filter.
  ColumnVector dates(TypeId::kDate);
  dates.AppendInt64(9000);
  std::vector<ColumnVector> cols = {dates};
  std::vector<uint64_t> hashes;
  std::vector<uint8_t> valid;
  HashJoinKeys(cols, nullptr, 1, &hashes, &valid);
  JoinKeyFilter filter;
  filter.Build(cols, TypeId::kInt64, hashes.data(), valid.data(), 1);
  EXPECT_FALSE(filter.exact());
  filter.Build(cols, TypeId::kDate, hashes.data(), valid.data(), 1);
  EXPECT_TRUE(filter.exact());
}

}  // namespace
}  // namespace agora
