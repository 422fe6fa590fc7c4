// Equivalence tests for the vectorized hash kernels (exec/hash_table.h).
// The hash join must match the nested-loop oracle (same engine with
// enable_hash_join=false) cell-for-cell, hash aggregation must match a
// row-at-a-time reference bit-for-bit, and both must stay byte-identical
// at every thread count. Direct-indexed group ids (dictionary keys) must
// match the hashed path group for group. Runs under `ctest -L kernels`
// (and in the TSan/ASan CI legs).

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.h"
#include "engine/database.h"
#include "exec/aggregate.h"
#include "exec/hash_table.h"
#include "storage/chunk.h"
#include "storage/column_vector.h"
#include "tpch/tpch.h"

namespace agora {
namespace {

void ExpectIdentical(const QueryResult& a, const QueryResult& b,
                     const std::string& label) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << label;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      Value va = a.Get(r, c);
      Value vb = b.Get(r, c);
      ASSERT_EQ(va.is_null(), vb.is_null())
          << label << " (" << r << "," << c << ")";
      if (va.is_null()) continue;
      if (va.type() == TypeId::kDouble) {
        // Exact: the kernels must not change floating-point results.
        EXPECT_EQ(va.AsDouble(), vb.AsDouble())
            << label << " (" << r << "," << c << ")";
      } else {
        EXPECT_EQ(va.Compare(vb), 0)
            << label << " (" << r << "," << c << "): " << va.ToString()
            << " vs " << vb.ToString();
      }
    }
  }
}

/// Two engines over identical data: `hash_db_` takes the JoinHashTable
/// path, `nl_db_` plans every join as a nested loop (the oracle).
class KernelsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    hash_db_ = std::make_unique<Database>();
    DatabaseOptions nl_options;
    nl_options.physical.enable_hash_join = false;
    nl_db_ = std::make_unique<Database>(nl_options);
  }

  void ExecBoth(const std::string& sql) {
    for (Database* db : {hash_db_.get(), nl_db_.get()}) {
      auto result = db->Execute(sql);
      ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
    }
  }

  QueryResult Run(Database* db, const std::string& sql) {
    auto result = db->Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString() << "\n" << sql;
    return result.ok() ? std::move(*result) : QueryResult();
  }

  /// Runs `sql` on both engines and requires identical results. Inner
  /// joins need no ORDER BY: both paths emit probe-row-major output with
  /// build matches in ascending row order, and that ordering contract is
  /// part of what this asserts.
  void ExpectOracleMatch(const std::string& sql) {
    QueryResult h = Run(hash_db_.get(), sql);
    QueryResult n = Run(nl_db_.get(), sql);
    ExpectIdentical(h, n, sql);
  }

  std::unique_ptr<Database> hash_db_;
  std::unique_ptr<Database> nl_db_;
};

TEST_F(KernelsTest, InnerJoinMatchesNestedLoopOracle) {
  ExecBoth("CREATE TABLE build (k BIGINT, v VARCHAR)");
  ExecBoth("CREATE TABLE probe (k BIGINT, w BIGINT)");
  ExecBoth(
      "INSERT INTO build VALUES (1, 'a'), (2, 'b'), (2, 'c'), (-5, 'd'), "
      "(NULL, 'n'), (7, 'e')");
  ExecBoth(
      "INSERT INTO probe VALUES (2, 10), (1, 20), (3, 30), (NULL, 40), "
      "(-5, 50), (2, 60), (7, 70)");
  ExpectOracleMatch(
      "SELECT p.k, p.w, b.v FROM probe p JOIN build b ON p.k = b.k");
}

TEST_F(KernelsTest, StringKeyJoinMatchesOracle) {
  ExecBoth("CREATE TABLE build (k VARCHAR, v BIGINT)");
  ExecBoth("CREATE TABLE probe (k VARCHAR)");
  ExecBoth(
      "INSERT INTO build VALUES ('apple', 1), ('pear', 2), ('apple', 3), "
      "('', 4), (NULL, 5)");
  ExecBoth(
      "INSERT INTO probe VALUES ('apple'), (''), ('plum'), (NULL), ('pear')");
  ExpectOracleMatch(
      "SELECT p.k, b.v FROM probe p JOIN build b ON p.k = b.k");
}

TEST_F(KernelsTest, LeftOuterJoinMatchesOracle) {
  ExecBoth("CREATE TABLE build (k BIGINT, v VARCHAR)");
  ExecBoth("CREATE TABLE probe (k BIGINT, w BIGINT)");
  ExecBoth("INSERT INTO build VALUES (1, 'a'), (2, 'b'), (2, 'c')");
  ExecBoth(
      "INSERT INTO probe VALUES (2, 10), (9, 20), (NULL, 30), (1, 40)");
  // Pad ordering differs between the two paths, so pin it down.
  ExpectOracleMatch(
      "SELECT p.k, p.w, b.v FROM probe p LEFT JOIN build b ON p.k = b.k "
      "ORDER BY p.w, b.v");
}

TEST_F(KernelsTest, NullKeysNeverMatch) {
  ExecBoth("CREATE TABLE build (k BIGINT)");
  ExecBoth("CREATE TABLE probe (k BIGINT)");
  ExecBoth("INSERT INTO build VALUES (NULL), (NULL), (1)");
  ExecBoth("INSERT INTO probe VALUES (NULL), (NULL), (2)");
  QueryResult h = Run(
      hash_db_.get(),
      "SELECT p.k FROM probe p JOIN build b ON p.k = b.k");
  EXPECT_EQ(h.num_rows(), 0u);
  ExpectOracleMatch("SELECT p.k FROM probe p JOIN build b ON p.k = b.k");
}

TEST_F(KernelsTest, EmptyBuildSide) {
  ExecBoth("CREATE TABLE build (k BIGINT, v BIGINT)");
  ExecBoth("CREATE TABLE probe (k BIGINT)");
  ExecBoth("INSERT INTO probe VALUES (1), (2), (3)");
  QueryResult inner = Run(
      hash_db_.get(),
      "SELECT p.k, b.v FROM probe p JOIN build b ON p.k = b.k");
  EXPECT_EQ(inner.num_rows(), 0u);
  // An empty Bloom filter rejects every probe before the slot directory.
  EXPECT_EQ(inner.stats().bloom_checked_rows, 3);
  EXPECT_EQ(inner.stats().bloom_filtered_rows, 3);
  EXPECT_EQ(inner.stats().hash_table_lookups, 0);
  ExpectOracleMatch(
      "SELECT p.k, b.v FROM probe p LEFT JOIN build b ON p.k = b.k "
      "ORDER BY p.k");
}

TEST_F(KernelsTest, HighDuplicateKeysAscendingChains) {
  ExecBoth("CREATE TABLE build (k BIGINT, seq BIGINT)");
  ExecBoth("CREATE TABLE probe (k BIGINT)");
  std::string values;
  for (int i = 0; i < 100; ++i) {
    values += (i > 0 ? ", (" : "(") + std::to_string(i % 2) + ", " +
              std::to_string(i) + ")";
  }
  ExecBoth("INSERT INTO build VALUES " + values);
  ExecBoth("INSERT INTO probe VALUES (0), (1), (0)");
  // No ORDER BY: the 50-element chains must come back in ascending
  // build-row order, exactly like the nested loop visits them.
  ExpectOracleMatch(
      "SELECT p.k, b.seq FROM probe p JOIN build b ON p.k = b.k");
}

TEST_F(KernelsTest, BloomFiltersNonMatchingProbes) {
  ExecBoth("CREATE TABLE build (k BIGINT)");
  ExecBoth("CREATE TABLE probe (k BIGINT)");
  std::string bvals, pvals;
  for (int i = 0; i < 100; ++i) {
    bvals += (i > 0 ? ", (" : "(") + std::to_string(i) + ")";
  }
  for (int i = 0; i < 500; ++i) {
    pvals += (i > 0 ? ", (" : "(") + std::to_string(10000 + i) + ")";
  }
  ExecBoth("INSERT INTO build VALUES " + bvals);
  ExecBoth("INSERT INTO probe VALUES " + pvals);
  QueryResult h = Run(
      hash_db_.get(),
      "SELECT p.k FROM probe p JOIN build b ON p.k = b.k");
  EXPECT_EQ(h.num_rows(), 0u);
  EXPECT_EQ(h.stats().bloom_checked_rows, 500);
  // ~16 bits/key keeps false positives rare; the vast majority of the
  // matchless probes must be rejected without touching the table.
  EXPECT_GE(h.stats().bloom_filtered_rows, 450);
  EXPECT_LE(h.stats().bloom_filtered_rows, 500);
  EXPECT_GT(h.stats().hash_table_entries, 0);
  EXPECT_GT(h.stats().hash_table_slots, 0);
}

TEST_F(KernelsTest, SignedZeroJoinKeysMatch) {
  // SQL finds -0.0 = 0.0, so the hash join must pair them as the nested
  // loop does, though their bit patterns differ.
  ExecBoth("CREATE TABLE a (x DOUBLE, t VARCHAR)");
  ExecBoth("CREATE TABLE b (y DOUBLE)");
  ExecBoth("INSERT INTO a VALUES (0.0, 'pos'), (1.0, 'one')");
  ExecBoth("INSERT INTO b VALUES (1.0), (-0.0)");
  const std::string sql =
      "SELECT a.t FROM a JOIN b ON a.x = b.y ORDER BY a.t";
  QueryResult h = Run(hash_db_.get(), sql);
  ASSERT_EQ(h.num_rows(), 2u);
  EXPECT_EQ(h.Get(0, 0).ToString(), "one");
  EXPECT_EQ(h.Get(1, 0).ToString(), "pos");
  ExpectOracleMatch(sql);
  // A filtered build side publishes its Bloom filter to the probe scan,
  // which must hash the zeros alike too.
  ExpectOracleMatch(
      "SELECT a.t FROM a JOIN b ON a.x = b.y WHERE b.y < 5 ORDER BY a.t");
  ExpectOracleMatch(
      "SELECT a.t FROM b JOIN a ON a.x = b.y WHERE a.t <> 'x' ORDER BY a.t");
}

TEST_F(KernelsTest, SignedZeroIndexLookupMatchesScan) {
  // The hash index stores HashRow and probes with Value::Hash: both must
  // hash -0.0 as +0.0, or `x = 0.0` misses the -0.0 row once indexed.
  Database* db = hash_db_.get();
  Run(db, "CREATE TABLE a (x DOUBLE, t VARCHAR)");
  Run(db, "INSERT INTO a VALUES (-0.0, 'neg')");
  const std::string sql = "SELECT t FROM a WHERE x = 0.0 ORDER BY t";
  QueryResult scanned = Run(db, sql);
  ASSERT_EQ(scanned.num_rows(), 1u);
  Run(db, "CREATE INDEX ax ON a (x)");
  QueryResult indexed = Run(db, sql);
  bool used_index = false;
  for (const OperatorProfileNode& node : indexed.profile()) {
    used_index = used_index || node.name == "IndexScan";
  }
  EXPECT_TRUE(used_index);
  ExpectIdentical(scanned, indexed, sql);
  // Index maintenance hashes an inserted +0.0 the same way.
  Run(db, "INSERT INTO a VALUES (0.0, 'pos')");
  QueryResult both = Run(db, "SELECT t FROM a WHERE x = -0.0 ORDER BY t");
  ASSERT_EQ(both.num_rows(), 2u);
  EXPECT_EQ(both.Get(0, 0).ToString(), "neg");
  EXPECT_EQ(both.Get(1, 0).ToString(), "pos");
}

TEST_F(KernelsTest, PropertyRandomJoinsMatchOracle) {
  std::mt19937 rng(20260805);
  for (int round = 0; round < 3; ++round) {
    std::string suffix = std::to_string(round);
    ExecBoth("CREATE TABLE b" + suffix + " (k BIGINT, v BIGINT)");
    ExecBoth("CREATE TABLE p" + suffix + " (k BIGINT, w BIGINT)");
    auto random_values = [&](size_t rows, int key_range) {
      std::string values;
      for (size_t i = 0; i < rows; ++i) {
        std::string key =
            rng() % 10 == 0
                ? "NULL"
                : std::to_string(static_cast<int>(rng() % key_range));
        values += (i > 0 ? ", (" : "(") + key + ", " +
                  std::to_string(static_cast<int>(rng() % 1000)) + ")";
      }
      return values;
    };
    ExecBoth("INSERT INTO b" + suffix + " VALUES " +
             random_values(150 + round * 40, 40));
    ExecBoth("INSERT INTO p" + suffix + " VALUES " +
             random_values(250 + round * 60, 60));
    ExpectOracleMatch("SELECT p.k, p.w, b.v FROM p" + suffix +
                      " p JOIN b" + suffix + " b ON p.k = b.k");
    ExpectOracleMatch("SELECT p.k, p.w, b.v FROM p" + suffix + " p LEFT JOIN b" +
                      suffix + " b ON p.k = b.k ORDER BY p.w, p.k, b.v");
  }
}

TEST_F(KernelsTest, NegativeZeroGroupsWithPositiveZero) {
  ExecBoth("CREATE TABLE t (d DOUBLE)");
  ExecBoth("INSERT INTO t VALUES (-0.0), (0.0), (1.5)");
  QueryResult r = Run(hash_db_.get(),
                      "SELECT d, COUNT(*) FROM t GROUP BY d ORDER BY d");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.Get(0, 1).int64_value(), 2);  // -0.0 and +0.0 are one group
  EXPECT_EQ(r.Get(1, 1).int64_value(), 1);
}

TEST_F(KernelsTest, AggregatesMatchRowAtATimeReference) {
  ExecBoth("CREATE TABLE t (g BIGINT, x DOUBLE, i BIGINT)");
  std::mt19937 rng(7);
  constexpr size_t kRows = 4000;  // below the morsel floor: serial path
  struct Ref {
    int64_t count = 0;
    double sum = 0;
    int64_t sum_i = 0;
    double min = 0, max = 0;
    bool any = false;
  };
  std::map<int64_t, Ref> ref;
  std::string values;
  for (size_t r = 0; r < kRows; ++r) {
    int64_t g = static_cast<int64_t>(rng() % 37);
    bool null_x = rng() % 11 == 0;
    double x = (static_cast<double>(rng() % 100000) - 50000.0) / 7.0;
    int64_t i = static_cast<int64_t>(rng() % 1000);
    values += (r > 0 ? ", (" : "(") + std::to_string(g) + ", " +
              (null_x ? "NULL" : std::to_string(x)) + ", " +
              std::to_string(i) + ")";
    Ref& s = ref[g];
    if (!null_x) {
      // Same accumulation order as the engine's serial path.
      double parsed = std::stod(std::to_string(x));
      s.count++;
      s.sum += parsed;
      if (!s.any || parsed < s.min) s.min = parsed;
      if (!s.any || parsed > s.max) s.max = parsed;
      s.any = true;
    }
    s.sum_i += i;
  }
  ExecBoth("INSERT INTO t VALUES " + values);
  QueryResult r = Run(
      hash_db_.get(),
      "SELECT g, COUNT(x), SUM(x), MIN(x), MAX(x), SUM(i) FROM t "
      "GROUP BY g ORDER BY g");
  ASSERT_EQ(r.num_rows(), ref.size());
  size_t row = 0;
  for (const auto& [g, s] : ref) {
    EXPECT_EQ(r.Get(row, 0).int64_value(), g);
    EXPECT_EQ(r.Get(row, 1).int64_value(), s.count) << "g=" << g;
    EXPECT_EQ(r.Get(row, 2).AsDouble(), s.sum) << "g=" << g;
    EXPECT_EQ(r.Get(row, 3).AsDouble(), s.min) << "g=" << g;
    EXPECT_EQ(r.Get(row, 4).AsDouble(), s.max) << "g=" << g;
    EXPECT_EQ(r.Get(row, 5).int64_value(), s.sum_i) << "g=" << g;
    ++row;
  }
}

TEST_F(KernelsTest, AvgReadsTheSumOfItsOwnArgument) {
  // An AVG shares the accumulator of a SUM over the same argument, and
  // only that one: AVG(i) must not read SUM(x)'s state, nor AVG(x) SUM(i)'s.
  ExecBoth("CREATE TABLE t (g VARCHAR, x DOUBLE, i BIGINT)");
  ExecBoth(
      "INSERT INTO t VALUES ('a', 1.5, 10), ('a', 2.5, 20), ('b', NULL, 7), "
      "('b', -4.0, NULL), ('a', 0.25, 30)");
  QueryResult r = Run(hash_db_.get(),
                      "SELECT g, SUM(x), AVG(i), SUM(i), AVG(x), AVG(x + 1) "
                      "FROM t GROUP BY g ORDER BY g");
  ASSERT_EQ(r.num_rows(), 2u);
  EXPECT_EQ(r.Get(0, 1).AsDouble(), 4.25);
  EXPECT_EQ(r.Get(0, 2).AsDouble(), 20.0);
  EXPECT_EQ(r.Get(0, 3).int64_value(), 60);
  EXPECT_EQ(r.Get(0, 4).AsDouble(), 4.25 / 3);
  EXPECT_EQ(r.Get(0, 5).AsDouble(), 7.25 / 3);
  EXPECT_EQ(r.Get(1, 1).AsDouble(), -4.0);
  EXPECT_EQ(r.Get(1, 2).AsDouble(), 7.0);
  EXPECT_EQ(r.Get(1, 3).int64_value(), 7);
  EXPECT_EQ(r.Get(1, 4).AsDouble(), -4.0);
  EXPECT_EQ(r.Get(1, 5).AsDouble(), -3.0);
}

TEST_F(KernelsTest, DistinctAggregatesDedupPerGroup) {
  ExecBoth("CREATE TABLE t (g VARCHAR, x BIGINT)");
  ExecBoth(
      "INSERT INTO t VALUES ('a', 1), ('a', 1), ('a', 2), ('a', NULL), "
      "('b', 5), ('b', 5), ('b', 5), ('c', NULL)");
  QueryResult r = Run(
      hash_db_.get(),
      "SELECT g, COUNT(DISTINCT x), SUM(DISTINCT x), COUNT(x) FROM t "
      "GROUP BY g ORDER BY g");
  ASSERT_EQ(r.num_rows(), 3u);
  EXPECT_EQ(r.Get(0, 1).int64_value(), 2);  // a: {1, 2}
  EXPECT_EQ(r.Get(0, 2).int64_value(), 3);
  EXPECT_EQ(r.Get(0, 3).int64_value(), 3);
  EXPECT_EQ(r.Get(1, 1).int64_value(), 1);  // b: {5}
  EXPECT_EQ(r.Get(1, 2).int64_value(), 5);
  EXPECT_EQ(r.Get(1, 3).int64_value(), 3);
  EXPECT_EQ(r.Get(2, 1).int64_value(), 0);  // c: all NULL
  EXPECT_TRUE(r.Get(2, 2).is_null());
  EXPECT_EQ(r.Get(2, 3).int64_value(), 0);
}

// ---------------------------------------------------------------------
// DISTINCT aggregates: every function over BIGINT, DOUBLE and VARCHAR,
// grouped and scalar, against values computed from the inserted rows.
// ---------------------------------------------------------------------

// 70,000 rows, more than one morsel (65,536 rows), so at 4 threads the
// aggregate's input arrives through a morsel-parallel exchange. Row i
// is in group g = i % 4, except every 500th row, which forms group 4
// with every argument NULL. n is a BIGINT of 23 values, x a DOUBLE of
// quarter steps with -0.0 and 0.0 among them (DISTINCT keeps whichever
// zero comes first), s a VARCHAR of six words that stays
// dictionary-encoded, and f a VARCHAR of 6,000 values, past the
// dictionary cap, so it is stored flat. Each has NULLs of its own.
constexpr int kDistinctRows = 70000;
const char* const kDistinctWords[] = {"pear", "apple", "fig",
                                      "kiwi", "date",  "plum"};

struct DistinctRow {
  int64_t g;
  std::optional<int64_t> n;
  std::optional<double> x;
  std::optional<std::string> s;
  std::optional<std::string> f;
};

DistinctRow MakeDistinctRow(int i) {
  DistinctRow row;
  const bool empty = i % 500 == 499;
  row.g = empty ? 4 : i % 4;
  if (empty) return row;
  if (i % 11 != 0) row.n = (int64_t{i} * 7) % 23 - 11;
  if (i % 13 != 0) {
    row.x = i % 17 == 0   ? -0.0
            : i % 19 == 0 ? 0.0
                          : (i * 5 % 29) * 0.25 - 3.5;
  }
  if (i % 7 != 0) row.s = kDistinctWords[i * 3 % 6];
  if (i % 9 != 0) row.f = "f" + std::to_string(i * 37 % 6000);
  return row;
}

std::string DistinctSqlValue(const DistinctRow& row) {
  auto str = [](const std::optional<std::string>& v) {
    return v ? "'" + *v + "'" : std::string("NULL");
  };
  // Quarter steps print exactly; -0.0 prints as -0.000000.
  return "(" + std::to_string(row.g) + ", " +
         (row.n ? std::to_string(*row.n) : "NULL") + ", " +
         (row.x ? std::to_string(*row.x) : "NULL") + ", " +
         str(row.s) + ", " + str(row.f) + ")";
}

uint64_t DoubleBits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof(b));
  return b;
}

/// The expected DISTINCT results of one group: first occurrences of each
/// argument in row order, folded the way SQL defines each function.
struct DistinctExpect {
  std::vector<int64_t> n;
  std::vector<double> x;
  std::set<std::string> s;
  std::set<std::string> f;

  void Add(const DistinctRow& row) {
    if (row.n && std::find(n.begin(), n.end(), *row.n) == n.end()) {
      n.push_back(*row.n);
    }
    // == treats -0.0 and 0.0 as one value, as DISTINCT does.
    if (row.x && std::find(x.begin(), x.end(), *row.x) == x.end()) {
      x.push_back(*row.x);
    }
    if (row.s) s.insert(*row.s);
    if (row.f) f.insert(*row.f);
  }

  /// Checks COUNT, SUM, AVG, MIN, MAX, STDDEV and VARIANCE of `values`
  /// (as doubles) in columns [col, col + 7) of row `r`.
  template <typename T>
  static void Check(const std::vector<T>& values, const QueryResult& got,
                    size_t r, size_t col, const std::string& label) {
    ASSERT_EQ(got.Get(r, col).int64_value(),
              static_cast<int64_t>(values.size()))
        << label;
    if (values.empty()) {
      for (size_t c = col + 1; c < col + 7; ++c) {
        EXPECT_TRUE(got.Get(r, c).is_null()) << label << " col " << c;
      }
      return;
    }
    T sum{};
    double sum_d = 0;
    double sum_sq = 0;
    T lo = values[0];
    T hi = values[0];
    for (T v : values) {
      sum += v;
      sum_d += static_cast<double>(v);
      sum_sq += static_cast<double>(v) * static_cast<double>(v);
      lo = v < lo ? v : lo;
      hi = v > hi ? v : hi;
    }
    const double count = static_cast<double>(values.size());
    if constexpr (std::is_same_v<T, double>) {
      EXPECT_EQ(DoubleBits(got.Get(r, col + 1).AsDouble()), DoubleBits(sum))
          << label << " SUM";
      EXPECT_EQ(DoubleBits(got.Get(r, col + 3).AsDouble()), DoubleBits(lo))
          << label << " MIN";
      EXPECT_EQ(DoubleBits(got.Get(r, col + 4).AsDouble()), DoubleBits(hi))
          << label << " MAX";
    } else {
      EXPECT_EQ(got.Get(r, col + 1).int64_value(), sum) << label << " SUM";
      EXPECT_EQ(got.Get(r, col + 3).int64_value(), lo) << label << " MIN";
      EXPECT_EQ(got.Get(r, col + 4).int64_value(), hi) << label << " MAX";
    }
    EXPECT_EQ(got.Get(r, col + 2).AsDouble(), sum_d / count)
        << label << " AVG";
    if (values.size() < 2) {
      EXPECT_TRUE(got.Get(r, col + 5).is_null()) << label << " STDDEV";
      EXPECT_TRUE(got.Get(r, col + 6).is_null()) << label << " VARIANCE";
      return;
    }
    const double mean = sum_d / count;
    const double variance =
        std::max(0.0, (sum_sq - count * mean * mean) / (count - 1.0));
    EXPECT_DOUBLE_EQ(got.Get(r, col + 5).AsDouble(), std::sqrt(variance))
        << label << " STDDEV";
    EXPECT_DOUBLE_EQ(got.Get(r, col + 6).AsDouble(), variance)
        << label << " VARIANCE";
  }

  void CheckRow(const QueryResult& got, size_t r, size_t col,
                const std::string& label) const {
    Check(n, got, r, col, label + " BIGINT");
    Check(x, got, r, col + 7, label + " DOUBLE");
    size_t c = col + 14;
    for (const std::set<std::string>* strings : {&s, &f}) {
      for (bool is_min : {true, false}) {
        const Value v = got.Get(r, c++);
        if (strings->empty()) {
          EXPECT_TRUE(v.is_null()) << label << " col " << c - 1;
        } else {
          EXPECT_EQ(v.string_value(),
                    is_min ? *strings->begin() : *strings->rbegin())
              << label << " col " << c - 1;
        }
      }
    }
  }
};

TEST(DistinctAggregateTest, EveryFunctionMatchesItsInsertedRows) {
  setenv("AGORA_THREADS", "4", 0);
  Database db;
  auto exec = [&db](const std::string& sql) {
    auto result = db.Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult();
  };
  exec("CREATE TABLE dt (g BIGINT, n BIGINT, x DOUBLE, s VARCHAR, "
       "f VARCHAR)");
  std::vector<DistinctExpect> groups(5);
  DistinctExpect scalar;
  for (int begin = 0; begin < kDistinctRows; begin += 10000) {
    std::string sql = "INSERT INTO dt VALUES ";
    for (int i = begin; i < begin + 10000; ++i) {
      const DistinctRow row = MakeDistinctRow(i);
      sql += (i > begin ? ", " : "") + DistinctSqlValue(row);
      groups[static_cast<size_t>(row.g)].Add(row);
      scalar.Add(row);
    }
    exec(sql);
  }
  auto table = db.catalog().GetTable("dt");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->column(3).is_dictionary());
  ASSERT_FALSE((*table)->column(4).is_dictionary());
  // The data holds both zeros first in some group.
  int negative_first = 0;
  for (const DistinctExpect& group : groups) {
    for (double v : group.x) negative_first += v == 0 && std::signbit(v);
  }
  ASSERT_GT(negative_first, 0);
  ASSERT_LT(negative_first, 4);

  std::string aggs;
  for (const char* arg : {"n", "x"}) {
    for (const char* func : {"COUNT", "SUM", "AVG", "MIN", "MAX", "STDDEV",
                             "VARIANCE"}) {
      aggs += std::string(", ") + func + "(DISTINCT " + arg + ")";
    }
  }
  aggs += ", MIN(DISTINCT s), MAX(DISTINCT s), MIN(DISTINCT f), "
          "MAX(DISTINCT f)";
  const std::string grouped =
      "SELECT g" + aggs + " FROM dt GROUP BY g ORDER BY g";
  const std::string whole = "SELECT" + aggs.substr(1) + " FROM dt";
  for (int threads : {1, 4}) {
    db.set_execution_threads(threads);
    const std::string label = std::to_string(threads) + " threads";
    QueryResult got = exec(grouped);
    ASSERT_EQ(got.num_rows(), groups.size()) << label;
    for (size_t g = 0; g < groups.size(); ++g) {
      ASSERT_EQ(got.Get(g, 0).int64_value(), static_cast<int64_t>(g));
      groups[g].CheckRow(got, g, 1, label + " group " + std::to_string(g));
    }
    got = exec(whole);
    ASSERT_EQ(got.num_rows(), 1u) << label;
    scalar.CheckRow(got, 0, 0, label + " scalar");
  }
}

TEST_F(KernelsTest, ExplainAnalyzeShowsPhasesAndBloomCounters) {
  ExecBoth("CREATE TABLE build (k BIGINT)");
  ExecBoth("CREATE TABLE probe (k BIGINT)");
  ExecBoth("INSERT INTO build VALUES (1), (2)");
  ExecBoth("INSERT INTO probe VALUES (1), (3)");
  QueryResult r = Run(
      hash_db_.get(),
      "EXPLAIN ANALYZE SELECT p.k FROM probe p JOIN build b ON p.k = b.k");
  ASSERT_EQ(r.num_rows(), 1u);
  std::string text = r.Get(0, 0).string_value();
  EXPECT_NE(text.find("HashJoin::build"), std::string::npos) << text;
  EXPECT_NE(text.find("HashJoin::probe"), std::string::npos) << text;
  EXPECT_NE(text.find("bloom_checked_rows"), std::string::npos) << text;
  EXPECT_NE(text.find("bloom_filtered_rows"), std::string::npos) << text;
  EXPECT_NE(text.find("hash_table_entries"), std::string::npos) << text;
}

// --- Unit-level checks against the table structures themselves. ---

TEST(GroupKeyTableTest, MillionDistinctGroupsExerciseResize) {
  GroupKeyTable table;
  constexpr size_t kTotal = 1u << 20;  // 1M+ distinct keys
  constexpr size_t kBatch = 4096;
  std::vector<ColumnVector> keys;
  keys.emplace_back(TypeId::kInt64);
  std::vector<uint64_t> hashes(kBatch);
  std::vector<uint32_t> gids(kBatch);
  std::vector<uint8_t> created(kBatch);
  HashTableStats stats;
  for (size_t base = 0; base < kTotal; base += kBatch) {
    ColumnVector batch(TypeId::kInt64);
    batch.Reserve(kBatch);
    for (size_t i = 0; i < kBatch; ++i) {
      batch.AppendInt64(static_cast<int64_t>(base + i));
    }
    std::vector<ColumnVector> batch_keys;
    batch_keys.push_back(std::move(batch));
    hashes.assign(kBatch, kHashTableSalt);
    batch_keys[0].HashBatch(hashes.data(), kBatch, true);
    table.FindOrCreate(batch_keys, hashes.data(), kBatch, gids.data(),
                       created.data(), &stats);
    for (size_t i = 0; i < kBatch; ++i) {
      ASSERT_EQ(created[i], 1u);
      ASSERT_EQ(gids[i], base + i);  // dense ids in first-appearance order
    }
  }
  EXPECT_EQ(table.group_count(), kTotal);
  EXPECT_GT(table.resizes(), 8u);  // grew from 256 slots past 2^20
  EXPECT_GE(table.slot_count() * 3, kTotal * 4);  // load factor <= 3/4

  // Re-probing the first batch must find, not create.
  ColumnVector again(TypeId::kInt64);
  again.Reserve(kBatch);
  for (size_t i = 0; i < kBatch; ++i) again.AppendInt64((int64_t)i);
  std::vector<ColumnVector> again_keys;
  again_keys.push_back(std::move(again));
  hashes.assign(kBatch, kHashTableSalt);
  again_keys[0].HashBatch(hashes.data(), kBatch, true);
  table.FindOrCreate(again_keys, hashes.data(), kBatch, gids.data(),
                     created.data(), &stats);
  for (size_t i = 0; i < kBatch; ++i) {
    ASSERT_EQ(created[i], 0u);
    ASSERT_EQ(gids[i], i);
  }
  EXPECT_EQ(table.group_count(), kTotal);
}

TEST(JoinHashTableTest, PartitionCountDoesNotChangeChains) {
  // Duplicate-heavy key set: chains must iterate in ascending row order
  // regardless of how many partitions built the table.
  constexpr size_t kRows = 10000;
  std::vector<uint64_t> hashes(kRows);
  std::vector<uint8_t> valid(kRows, 1);
  for (size_t r = 0; r < kRows; ++r) {
    uint64_t h = kHashTableSalt;
    hashes[r] = HashCombine(h, HashMix64(r % 257));  // ~39 rows per key
    if (r % 101 == 0) valid[r] = 0;                  // sprinkle NULLs
  }
  auto chain_of = [](const JoinHashTable& t, uint64_t h) {
    std::vector<uint32_t> rows;
    HashTableStats stats;
    for (uint32_t ref = t.Find(h, &stats); ref != 0; ref = t.Next(ref)) {
      rows.push_back(ref - 1);
    }
    return rows;
  };
  JoinHashTable serial, partitioned;
  ASSERT_TRUE(serial.Build(hashes.data(), valid.data(), kRows, 1, nullptr)
                  .ok());
  ASSERT_TRUE(
      partitioned.Build(hashes.data(), valid.data(), kRows, 4, nullptr)
          .ok());
  EXPECT_EQ(serial.entries(), partitioned.entries());
  BloomFilter bloom;
  bloom.Build(hashes.data(), valid.data(), kRows);
  for (size_t key = 0; key < 257; ++key) {
    uint64_t h = HashCombine(kHashTableSalt, HashMix64(key));
    std::vector<uint32_t> a = chain_of(serial, h);
    std::vector<uint32_t> b = chain_of(partitioned, h);
    ASSERT_EQ(a, b) << "key " << key;
    for (size_t i = 0; i + 1 < a.size(); ++i) {
      ASSERT_LT(a[i], a[i + 1]) << "chain not ascending for key " << key;
    }
    for (uint32_t row : a) {
      ASSERT_TRUE(valid[row]) << "NULL row " << row << " entered the table";
    }
    EXPECT_TRUE(bloom.MightContain(h));
  }
}

// --- Thread-count invariance through the full TPC-H pipelines. ---

class KernelsParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    setenv("AGORA_THREADS", "4", 0);
    db_ = new Database();
    TpchOptions options;
    options.scale_factor = 0.002;
    Status s = GenerateTpch(options, &db_->catalog());
    ASSERT_TRUE(s.ok()) << s.ToString();
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  static QueryResult RunAt(int threads, const std::string& sql) {
    db_->set_execution_threads(threads);
    auto result = db_->Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    db_->set_execution_threads(0);
    return result.ok() ? std::move(*result) : QueryResult();
  }

  static Database* db_;
};

Database* KernelsParallelTest::db_ = nullptr;

TEST_F(KernelsParallelTest, JoinAndAggregateByteIdenticalAcrossThreads) {
  for (const std::string& sql : {TpchQ1(), TpchQ3()}) {
    QueryResult serial = RunAt(1, sql);
    ASSERT_GT(serial.num_rows(), 0u);
    QueryResult parallel = RunAt(8, sql);
    ExpectIdentical(serial, parallel, sql);
    EXPECT_EQ(serial.stats().rows_joined, parallel.stats().rows_joined);
    EXPECT_EQ(serial.stats().probe_calls, parallel.stats().probe_calls);
    EXPECT_EQ(serial.stats().rows_aggregated,
              parallel.stats().rows_aggregated);
    // The Bloom pair is thread-invariant too (the probe stream is the
    // same chunk sequence at every worker count).
    EXPECT_EQ(serial.stats().bloom_checked_rows,
              parallel.stats().bloom_checked_rows);
    EXPECT_EQ(serial.stats().bloom_filtered_rows,
              parallel.stats().bloom_filtered_rows);
  }
}

TEST_F(KernelsParallelTest, LiteralGroupKeysMatchTheirDropInGrouping) {
  // A literal group key adds nothing to the grouping, so each statement
  // must equal the one without it, at 1 and 4 threads. The literal
  // reaches the aggregate as a flattened column of one value, which the
  // direct array takes next to l_linenumber and l_shipdate.
  const std::pair<const char*, const char*> cases[] = {
      {"SELECT COUNT(*), SUM(l_quantity) FROM lineitem GROUP BY 1",
       "SELECT COUNT(*), SUM(l_quantity) FROM lineitem"},
      {"SELECT l_linenumber, COUNT(*), SUM(l_quantity) FROM lineitem "
       "GROUP BY l_linenumber, 1",
       "SELECT l_linenumber, COUNT(*), SUM(l_quantity) FROM lineitem "
       "GROUP BY l_linenumber"},
      {"SELECT l_shipdate, COUNT(*) FROM lineitem "
       "WHERE l_shipdate < DATE '1992-03-01' GROUP BY DATE '1995-01-01', "
       "l_shipdate",
       "SELECT l_shipdate, COUNT(*) FROM lineitem "
       "WHERE l_shipdate < DATE '1992-03-01' GROUP BY l_shipdate"}};
  for (const auto& [with_literal, without] : cases) {
    for (int threads : {1, 4}) {
      QueryResult got = RunAt(threads, with_literal);
      QueryResult want = RunAt(threads, without);
      ASSERT_GT(want.num_rows(), 0u) << without;
      ExpectIdentical(want, got, with_literal);
    }
  }
}

// ---------------------------------------------------------------------
// Bulk append (ColumnVector::AppendRange, Chunk::Append): the typed
// per-buffer copies must equal the per-row AppendFrom oracle.
// ---------------------------------------------------------------------

constexpr TypeId kAllTypes[] = {TypeId::kBool, TypeId::kInt64,
                                TypeId::kDouble, TypeId::kDate,
                                TypeId::kString};

Value SampleValue(TypeId type, int i) {
  if (i % 3 == 1) return Value::Null(type);
  switch (type) {
    case TypeId::kBool:
      return Value::Bool(i % 2 == 0);
    case TypeId::kInt64:
      return Value::Int64(i * 1000003 - 7);
    case TypeId::kDouble:
      return Value::Double(i * 0.5 - 3.25);
    case TypeId::kDate:
      return Value::Date(9000 + i);
    case TypeId::kString:
      // Long enough that some strings leave the small-string buffer.
      return Value::String("s" + std::string(static_cast<size_t>(i * 5), 'x'));
    default:
      return Value::Null(type);
  }
}

/// `n` rows of `type` with a NULL in every third row.
ColumnVector SampleColumn(TypeId type, int n, int offset = 0) {
  ColumnVector col(type);
  for (int i = 0; i < n; ++i) col.AppendValue(SampleValue(type, offset + i));
  return col;
}

void ExpectSameColumn(const ColumnVector& got, const ColumnVector& want,
                      const std::string& label) {
  ASSERT_EQ(got.type(), want.type()) << label;
  ASSERT_EQ(got.size(), want.size()) << label;
  EXPECT_TRUE(got.CheckConsistency().ok()) << label;
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got.IsNull(i), want.IsNull(i)) << label << " row " << i;
    if (!want.IsNull(i)) {
      EXPECT_EQ(got.GetValue(i).Compare(want.GetValue(i)), 0)
          << label << " row " << i;
    }
  }
}

TEST(BulkAppendTest, FlatRangesMatchRowAppendsInEveryType) {
  for (TypeId type : kAllTypes) {
    const std::string label(TypeIdToString(type));
    const ColumnVector src = SampleColumn(type, 10, 100);
    ColumnVector bulk = SampleColumn(type, 4);
    ColumnVector oracle = SampleColumn(type, 4);
    bulk.AppendRange(src, 2, 7);
    bulk.AppendRange(src, 9, 0);  // empty range: no-op
    for (size_t r = 2; r < 9; ++r) oracle.AppendFrom(src, r);
    ExpectSameColumn(bulk, oracle, label);

    ColumnVector from_empty(type);  // no buffer yet
    from_empty.AppendRange(src, 0, src.size());
    ExpectSameColumn(from_empty, src, label + " into empty");
  }
}

TEST(BulkAppendTest, ConstantSourcesAppendTheirValueOrNull) {
  for (TypeId type : kAllTypes) {
    for (int sample : {0, 1}) {  // sample 1 is NULL
      const std::string label = std::string(TypeIdToString(type)) +
                                (sample == 1 ? " NULL" : " value");
      const Value v = SampleValue(type, sample);
      const ColumnVector constant = ColumnVector::MakeConstant(type, v, 5);
      ColumnVector bulk = SampleColumn(type, 3);
      ColumnVector oracle = SampleColumn(type, 3);
      bulk.AppendRange(constant, 1, 3);
      for (int r = 0; r < 3; ++r) oracle.AppendValue(v);
      EXPECT_FALSE(bulk.is_constant()) << label;
      ExpectSameColumn(bulk, oracle, label);
      EXPECT_TRUE(constant.is_constant()) << label;
      EXPECT_EQ(constant.size(), 5u) << label;
    }
  }
}

TEST(BulkAppendTest, SharedSourceBufferStaysUnmodified) {
  for (TypeId type : kAllTypes) {
    const std::string label(TypeIdToString(type));
    const ColumnVector expected = SampleColumn(type, 6);  // own buffer
    const ColumnVector source = SampleColumn(type, 6);
    ColumnVector grown = source;  // shares source's buffer (COW)
    grown.AppendRange(source, 0, source.size());
    ExpectSameColumn(source, expected, label + " source");
    ColumnVector doubled = SampleColumn(type, 6);
    for (size_t r = 0; r < 6; ++r) doubled.AppendFrom(expected, r);
    ExpectSameColumn(grown, doubled, label + " grown");
  }
}

TEST(BulkAppendTest, ChunkAppendTakesOverTheFirstChunkThenConcatenates) {
  const Schema schema({{"i", TypeId::kInt64}, {"s", TypeId::kString}});
  Chunk first;
  first.AddColumn(SampleColumn(TypeId::kInt64, 4));
  first.AddColumn(ColumnVector::MakeConstant(TypeId::kString,
                                             Value::String("k"), 4));
  Chunk second;
  second.AddColumn(SampleColumn(TypeId::kInt64, 3, 4));
  second.AddColumn(SampleColumn(TypeId::kString, 3, 4));
  const Chunk reader = second;  // shares second's buffers

  Chunk result(schema);
  result.Append(Chunk(schema));  // empty chunks add nothing
  result.Append(first);
  ASSERT_EQ(result.num_rows(), 4u);
  EXPECT_FALSE(result.column(1).is_constant());  // collected results are flat
  result.Append(second);
  ASSERT_EQ(result.num_rows(), 7u);

  ColumnVector want_i = SampleColumn(TypeId::kInt64, 7);
  ColumnVector want_s(TypeId::kString);
  for (int r = 0; r < 4; ++r) want_s.AppendString("k");
  for (int r = 4; r < 7; ++r) {
    want_s.AppendValue(SampleValue(TypeId::kString, r));
  }
  ExpectSameColumn(result.column(0), want_i, "ints");
  ExpectSameColumn(result.column(1), want_s, "strings");
  // The appended-to result shared first's buffers; neither source moved.
  ExpectSameColumn(first.column(0), SampleColumn(TypeId::kInt64, 4),
                   "first");
  EXPECT_TRUE(first.column(1).is_constant());
  ExpectSameColumn(reader.column(1), SampleColumn(TypeId::kString, 3, 4),
                   "reader");

  // Zero-column chunks carry only a row count.
  Chunk counts;
  Chunk three;
  three.SetExplicitRowCount(3);
  Chunk two;
  two.SetExplicitRowCount(2);
  counts.Append(three);
  counts.Append(two);
  EXPECT_EQ(counts.num_rows(), 5u);
  EXPECT_EQ(counts.num_columns(), 0u);
}

// -- Direct-indexed group ids -------------------------------------------

/// Emits the given chunks in order: a stand-in child for operator tests.
class ChunkSource : public PhysicalOperator {
 public:
  ChunkSource(Schema schema, std::vector<Chunk> chunks, ExecContext* context)
      : PhysicalOperator(std::move(schema), context),
        chunks_(std::move(chunks)) {}
  std::string name() const override { return "ChunkSource"; }

 protected:
  Status OpenImpl() override {
    next_ = 0;
    return Status::OK();
  }
  Status NextImpl(Chunk* chunk, bool* done) override {
    *chunk = next_ < chunks_.size() ? chunks_[next_++] : Chunk(schema_);
    *done = next_ >= chunks_.size();
    return Status::OK();
  }

 private:
  std::vector<Chunk> chunks_;
  size_t next_ = 0;
};

/// Runs GROUP BY f, s with a spread of aggregates over `chunks` and
/// returns every output chunk concatenated, plus the operator's stats.
Chunk AggregateChunks(const std::vector<Chunk>& chunks, ExecStats* stats) {
  Schema in({{"f", TypeId::kString, true},
             {"s", TypeId::kString, true},
             {"x", TypeId::kDouble, true},
             {"i", TypeId::kInt64, true}});
  ExecContext context;
  auto child = std::make_unique<ChunkSource>(in, chunks, &context);
  ExprPtr f = MakeColumnRef(0, TypeId::kString, "f");
  ExprPtr s = MakeColumnRef(1, TypeId::kString, "s");
  ExprPtr x = MakeColumnRef(2, TypeId::kDouble, "x");
  ExprPtr i = MakeColumnRef(3, TypeId::kInt64, "i");
  std::vector<AggregateSpec> aggs = {
      {AggFunc::kCountStar, nullptr, false, TypeId::kInt64, "n"},
      {AggFunc::kSum, x, false, TypeId::kDouble, "sx"},
      {AggFunc::kAvg, x, false, TypeId::kDouble, "ax"},
      {AggFunc::kSum, i, false, TypeId::kInt64, "si"},
      {AggFunc::kAvg, i, false, TypeId::kDouble, "ai"},
      {AggFunc::kMin, x, false, TypeId::kDouble, "mx"},
      {AggFunc::kMax, s, false, TypeId::kString, "ms"},
      {AggFunc::kCount, x, false, TypeId::kInt64, "cx"}};
  Schema out({{"f", TypeId::kString, true},
              {"s", TypeId::kString, true},
              {"n", TypeId::kInt64, true},
              {"sx", TypeId::kDouble, true},
              {"ax", TypeId::kDouble, true},
              {"si", TypeId::kInt64, true},
              {"ai", TypeId::kDouble, true},
              {"mx", TypeId::kDouble, true},
              {"ms", TypeId::kString, true},
              {"cx", TypeId::kInt64, true}});
  PhysicalHashAggregate agg(std::move(child), {f, s}, std::move(aggs), out,
                            &context);
  Chunk all(out);
  EXPECT_TRUE(agg.Open().ok());
  bool done = false;
  while (!done) {
    Chunk chunk;
    EXPECT_TRUE(agg.Next(&chunk, &done).ok());
    all.Append(chunk);
  }
  *stats = context.stats;
  return all;
}

TEST(DirectGroupIdsTest, MatchesHashedGroupingAcrossDictionaries) {
  std::mt19937 rng(3);
  const char* flags[] = {"A", "N", "R"};
  const char* status[] = {"F", "O"};
  // Dictionaries: d1 and d2 hold the same strings in different code
  // orders; `wide` has too many entries for a direct array.
  ColumnVector d1f = ColumnVector::MakeDictionary();
  ColumnVector d2f = ColumnVector::MakeDictionary();
  for (const char* v : {"A", "N", "R"}) d1f.AppendString(v);
  for (const char* v : {"R", "A", "N"}) d2f.AppendString(v);
  ColumnVector d1s = ColumnVector::MakeDictionary();
  for (const char* v : {"F", "O"}) d1s.AppendString(v);
  auto make_chunk = [&](const ColumnVector& fdict, const ColumnVector& sdict,
                        size_t rows, bool wide) {
    ColumnVector f = fdict.EmptyLike();
    ColumnVector s = wide ? ColumnVector::MakeDictionary() : sdict.EmptyLike();
    ColumnVector x(TypeId::kDouble), i(TypeId::kInt64);
    for (size_t r = 0; r < rows; ++r) {
      if (rng() % 9 == 0) {
        f.AppendNull();
      } else {
        f.AppendString(flags[rng() % 3]);
      }
      if (wide) {
        s.AppendString("w" + std::to_string(rng() % 300));
      } else if (rng() % 11 == 0) {
        s.AppendNull();
      } else {
        s.AppendString(status[rng() % 2]);
      }
      if (rng() % 7 == 0) {
        x.AppendNull();
      } else {
        x.AppendDouble(static_cast<double>(rng() % 20001) / 7.0 - 1000.0);
      }
      i.AppendInt64(static_cast<int64_t>(rng() % 1000) - 500);
    }
    Chunk chunk;
    chunk.AddColumn(std::move(f));
    chunk.AddColumn(std::move(s));
    chunk.AddColumn(std::move(x));
    chunk.AddColumn(std::move(i));
    return chunk;
  };
  std::vector<Chunk> chunks;
  chunks.push_back(make_chunk(d1f, d1s, 300, /*wide=*/true));  // hashed
  chunks.push_back(make_chunk(d1f, d1s, 2000, false));  // sets the cache
  chunks.push_back(make_chunk(d2f, d1s, 1500, false));  // other dict: hashed
  chunks.push_back(make_chunk(d1f, d1s, 2048, false));  // direct again
  chunks.push_back(make_chunk(d1f, d1s, 7, false));
  for (size_t c = 1; c < chunks.size(); ++c) {
    ASSERT_TRUE(chunks[c].column(0).is_dictionary());
    ASSERT_TRUE(chunks[c].column(1).is_dictionary());
  }
  // The reference: the same rows with flat strings (hashed throughout).
  std::vector<Chunk> flat = chunks;
  for (Chunk& chunk : flat) {
    chunk.column(0).Flatten();
    chunk.column(1).Flatten();
  }

  ExecStats direct_stats, hashed_stats;
  Chunk direct = AggregateChunks(chunks, &direct_stats);
  Chunk hashed = AggregateChunks(flat, &hashed_stats);
  ASSERT_EQ(direct.num_rows(), hashed.num_rows());
  ASSERT_GT(direct.num_rows(), 12u);  // the wide chunk's groups too
  for (size_t c = 0; c < direct.num_columns(); ++c) {
    for (size_t r = 0; r < direct.num_rows(); ++r) {
      Value a = direct.column(c).GetValue(r);
      Value b = hashed.column(c).GetValue(r);
      ASSERT_EQ(a.is_null(), b.is_null()) << "(" << r << "," << c << ")";
      if (a.is_null()) continue;
      if (a.type() == TypeId::kDouble) {
        ASSERT_EQ(a.AsDouble(), b.AsDouble()) << "(" << r << "," << c << ")";
      } else {
        ASSERT_EQ(a.Compare(b), 0) << "(" << r << "," << c << ")";
      }
    }
  }
  // Only the hashed chunks and the first row of each combined code probe
  // the key table.
  EXPECT_LT(direct_stats.hash_table_lookups,
            hashed_stats.hash_table_lookups / 2);
  EXPECT_EQ(direct_stats.rows_aggregated, hashed_stats.rows_aggregated);
  EXPECT_EQ(direct_stats.hash_table_entries, hashed_stats.hash_table_entries);
}

/// GROUP BY columns `keys` of `chunks` with COUNT(*), SUM(v) and MIN(v),
/// where v (BIGINT) is column `value`; returns every output chunk
/// concatenated, plus the operator's stats.
Chunk GroupChunks(const std::vector<Chunk>& chunks,
                  const std::vector<size_t>& keys, size_t value,
                  ExecStats* stats) {
  std::vector<Field> in_fields;
  for (size_t c = 0; c < chunks[0].num_columns(); ++c) {
    in_fields.push_back(
        {"c" + std::to_string(c), chunks[0].column(c).type(), true});
  }
  ExecContext context;
  auto child = std::make_unique<ChunkSource>(Schema(in_fields), chunks,
                                             &context);
  std::vector<ExprPtr> group_by;
  std::vector<Field> out_fields;
  for (size_t k : keys) {
    group_by.push_back(MakeColumnRef(k, in_fields[k].type, in_fields[k].name));
    out_fields.push_back(in_fields[k]);
  }
  ExprPtr v = MakeColumnRef(value, TypeId::kInt64, "v");
  std::vector<AggregateSpec> aggs = {
      {AggFunc::kCountStar, nullptr, false, TypeId::kInt64, "n"},
      {AggFunc::kSum, v, false, TypeId::kInt64, "s"},
      {AggFunc::kMin, v, false, TypeId::kInt64, "m"}};
  for (const AggregateSpec& spec : aggs) {
    out_fields.push_back({spec.name, TypeId::kInt64, true});
  }
  Schema out(out_fields);
  PhysicalHashAggregate agg(std::move(child), std::move(group_by),
                            std::move(aggs), out, &context);
  Chunk all(out);
  EXPECT_TRUE(agg.Open().ok());
  bool done = false;
  while (!done) {
    Chunk chunk;
    EXPECT_TRUE(agg.Next(&chunk, &done).ok());
    all.Append(chunk);
  }
  *stats = context.stats;
  return all;
}

/// A chunk of int64 (or DATE) columns; nullopt cells are NULL.
Chunk IntChunk(const std::vector<std::vector<std::optional<int64_t>>>& cols,
               const std::vector<TypeId>& types) {
  Chunk chunk;
  for (size_t c = 0; c < cols.size(); ++c) {
    ColumnVector col(types[c]);
    for (const std::optional<int64_t>& v : cols[c]) {
      if (v.has_value()) {
        col.AppendInt64(*v);
      } else {
        col.AppendNull();
      }
    }
    chunk.AddColumn(std::move(col));
  }
  return chunk;
}

/// Groups `chunks` by `keys` directly and, as the reference, with a flat
/// string key added to every chunk (which no direct array takes), and
/// requires identical groups in identical order. Returns the direct
/// run's stats.
ExecStats ExpectDirectMatchesHashed(const std::vector<Chunk>& chunks,
                                    const std::vector<size_t>& keys,
                                    size_t value) {
  std::vector<Chunk> flat = chunks;
  for (Chunk& chunk : flat) {
    ColumnVector tag(TypeId::kString);
    for (size_t r = 0; r < chunk.num_rows(); ++r) tag.AppendString("k");
    chunk.AddColumn(std::move(tag));
  }
  std::vector<size_t> flat_keys = keys;
  flat_keys.push_back(chunks[0].num_columns());
  ExecStats direct_stats, hashed_stats;
  Chunk direct = GroupChunks(chunks, keys, value, &direct_stats);
  Chunk hashed = GroupChunks(flat, flat_keys, value, &hashed_stats);
  EXPECT_EQ(direct.num_rows(), hashed.num_rows());
  for (size_t c = 0; c < direct.num_columns(); ++c) {
    // The reference has its extra key column right after the keys.
    const size_t hc = c < keys.size() ? c : c + 1;
    for (size_t r = 0; r < direct.num_rows() && r < hashed.num_rows(); ++r) {
      Value a = direct.column(c).GetValue(r);
      Value b = hashed.column(hc).GetValue(r);
      EXPECT_EQ(a.is_null(), b.is_null()) << "(" << r << "," << c << ")";
      if (!a.is_null() && !b.is_null()) {
        EXPECT_EQ(a.Compare(b), 0) << "(" << r << "," << c << ")";
      }
    }
  }
  EXPECT_EQ(direct_stats.rows_aggregated, hashed_stats.rows_aggregated);
  EXPECT_EQ(direct_stats.hash_table_entries, hashed_stats.hash_table_entries);
  return direct_stats;
}

using IntCol = std::vector<std::optional<int64_t>>;

TEST(DirectGroupIdsTest, IntegerKeysHashForGoodOnceOutsideTheirSpan) {
  std::mt19937 rng(5);
  auto make = [&](size_t rows, int64_t lo, int64_t hi, int null_every) {
    IntCol key, v;
    for (size_t r = 0; r < rows; ++r) {
      if (null_every > 0 && rng() % null_every == 0) {
        key.push_back(std::nullopt);
      } else {
        key.push_back(lo + static_cast<int64_t>(
                               rng() % static_cast<uint64_t>(hi - lo + 1)));
      }
      v.push_back(static_cast<int64_t>(rng() % 1000) - 500);
    }
    return IntChunk({key, v}, {TypeId::kInt64, TypeId::kInt64});
  };
  std::vector<Chunk> chunks;
  chunks.push_back(make(2048, -7, 5, 9));    // fixes the span [-7, 5]
  chunks.push_back(make(2048, -7, 5, 0));    // direct
  chunks.push_back(make(1000, -7, 300, 0));  // outside the span: hashed
  chunks.push_back(make(2048, -7, 5, 3));    // inside, but hashed now
  chunks.push_back(make(50, 0, 0, 1));       // every key NULL
  ExecStats stats = ExpectDirectMatchesHashed(chunks, {0}, 1);
  // The first two chunks probe the table once per slot (13 values and
  // NULL); from the chunk outside the span on, every row does.
  EXPECT_GT(stats.hash_table_lookups, 1000 + 2048 + 50);
  EXPECT_LE(stats.hash_table_lookups, 1000 + 2048 + 50 + 14);
}

TEST(DirectGroupIdsTest, SpanIsFixedByTheFirstChunkThatFits) {
  // Too wide a span first (hashed), then a chunk that fits; a NULL-only
  // chunk fixes nothing.
  std::vector<Chunk> chunks;
  chunks.push_back(IntChunk({{0, 1000, std::nullopt}, {1, 2, 3}},
                            {TypeId::kInt64, TypeId::kInt64}));
  chunks.push_back(IntChunk({{std::nullopt, std::nullopt}, {4, 5}},
                            {TypeId::kInt64, TypeId::kInt64}));
  chunks.push_back(IntChunk({{10, 11, 10, std::nullopt}, {6, 7, 8, 9}},
                            {TypeId::kInt64, TypeId::kInt64}));
  chunks.push_back(IntChunk({{11, 10, 0, 1000}, {10, 11, 12, 13}},
                            {TypeId::kInt64, TypeId::kInt64}));
  chunks.push_back(IntChunk({{10, 11, std::nullopt}, {14, 15, 16}},
                            {TypeId::kInt64, TypeId::kInt64}));
  ExecStats stats = ExpectDirectMatchesHashed(chunks, {0}, 1);
  // Hashed: 3 + 2 rows, then the 4 + 3 rows from the chunk holding 0 and
  // 1000 on; direct: the first rows of 10, 11 and NULL.
  EXPECT_EQ(stats.hash_table_lookups, 3 + 2 + 3 + 4 + 3);
}

TEST(DirectGroupIdsTest, KeysAtTheEndsOfBigint) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  const std::vector<TypeId> types = {TypeId::kInt64, TypeId::kInt64};
  // A span at the top of the range, then keys past its wrap point,
  // then keys inside it again.
  std::vector<Chunk> top;
  top.push_back(IntChunk({{kMax, kMax - 1, std::nullopt, kMax}, {1, 2, 3, 4}},
                         types));
  top.push_back(IntChunk({{kMin, kMin + 1, kMax}, {5, 6, 7}}, types));
  top.push_back(IntChunk({{kMax - 1, kMax, kMax}, {8, 9, 10}}, types));
  ExpectDirectMatchesHashed(top, {0}, 1);
  // Both ends in one chunk: the span wraps uint64 and fits no array.
  std::vector<Chunk> both;
  both.push_back(IntChunk({{kMin, kMax, -1, 0}, {1, 2, 3, 4}}, types));
  both.push_back(IntChunk({{kMin, kMin + 2, kMin + 1}, {5, 6, 7}}, types));
  both.push_back(IntChunk({{kMin + 2, kMax, kMin}, {8, 9, 10}}, types));
  ExecStats stats = ExpectDirectMatchesHashed(both, {0}, 1);
  // The first chunk and the one holding kMax hash; the second fixes
  // [kMin, kMin + 2] and looks up its three new slots.
  EXPECT_EQ(stats.hash_table_lookups, 4 + 3 + 3);
}

TEST(DirectGroupIdsTest, MixedDictionaryIntegerAndDateKeys) {
  std::mt19937 rng(11);
  ColumnVector dict = ColumnVector::MakeDictionary();
  for (const char* v : {"A", "N", "R"}) dict.AppendString(v);
  const char* flags[] = {"A", "N", "R"};
  std::vector<Chunk> chunks;
  for (size_t rows : {2048u, 2048u, 700u}) {
    ColumnVector f = dict.EmptyLike();
    IntCol key, day, v;
    for (size_t r = 0; r < rows; ++r) {
      if (rng() % 8 == 0) {
        f.AppendNull();
      } else {
        f.AppendString(flags[rng() % 3]);
      }
      key.push_back(rng() % 10 == 0 ? std::nullopt
                                    : std::optional<int64_t>(
                                          static_cast<int64_t>(rng() % 9) - 4));
      day.push_back(9500 + static_cast<int64_t>(rng() % 4));
      v.push_back(static_cast<int64_t>(rng() % 100));
    }
    Chunk chunk = IntChunk({key, day, v},
                           {TypeId::kInt64, TypeId::kDate, TypeId::kInt64});
    chunk.AddColumn(std::move(f));
    chunks.push_back(std::move(chunk));
  }
  // (3 + 1) * (9 + 1) * (4 + 1) = 200 slots: direct throughout.
  ExecStats stats = ExpectDirectMatchesHashed(chunks, {3, 0, 1}, 2);
  EXPECT_LE(stats.hash_table_lookups, 200);
}

}  // namespace
}  // namespace agora
