// Parallel-vs-serial equivalence for morsel-driven execution: the same
// query must return byte-identical results — including floating-point
// aggregate rounding and ExecStats counters — at every worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <string>

#include "engine/database.h"
#include "tpch/tpch.h"

namespace agora {
namespace {

class ParallelExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // The container may expose a single core; force a multi-threaded
    // global pool so parallel scheduling is actually exercised. Must run
    // before the first query lazily constructs ThreadPool::Global().
    setenv("AGORA_THREADS", "4", 0);
    db_ = new Database();
    TpchOptions options;
    options.scale_factor = 0.002;  // ~12k lineitems: above the 8192 floor
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

  /// Requires cell-exact equality, with doubles compared bitwise-style
  /// via operator== (no tolerance: the determinism contract is exact).
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
        if (va.is_null()) continue;
        if (va.type() == TypeId::kDouble) {
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

  /// Every counter the table marks thread-exact must match; the kVaries
  /// ones (hash-table slots and probe steps, the memory peak) depend on
  /// the partition count by design.
  static void ExpectStatsIdentical(const ExecStats& a, const ExecStats& b,
                                   const std::string& label) {
    for (const ExecCounter& c : kExecCounters) {
      if (c.threads == CounterThreads::kVaries) continue;
      EXPECT_EQ(a.*c.member, b.*c.member) << label << " " << c.field;
    }
  }

  static void ExpectThreadInvariant(const std::string& name,
                                    const std::string& sql) {
    QueryResult serial = RunAt(1, sql);
    ASSERT_GT(serial.num_rows(), 0u) << name << " returned nothing";
    for (int threads : {2, 8}) {
      QueryResult parallel = RunAt(threads, sql);
      std::string label = name + " @" + std::to_string(threads) + "t";
      ExpectIdentical(serial, parallel, label);
      ExpectStatsIdentical(serial.stats(), parallel.stats(), label);
    }
  }

  static Database* db_;
};

Database* ParallelExecTest::db_ = nullptr;

TEST_F(ParallelExecTest, Q1AggregateThreadInvariant) {
  ExpectThreadInvariant("Q1", TpchQ1());
}

TEST_F(ParallelExecTest, Q3JoinTopKThreadInvariant) {
  ExpectThreadInvariant("Q3", TpchQ3());
}

TEST_F(ParallelExecTest, Q5SixWayJoinThreadInvariant) {
  ExpectThreadInvariant("Q5", TpchQ5());
}

TEST_F(ParallelExecTest, Q6ScanFilterAggregateThreadInvariant) {
  ExpectThreadInvariant("Q6", TpchQ6());
}

TEST_F(ParallelExecTest, Q10JoinGroupTopKThreadInvariant) {
  ExpectThreadInvariant("Q10", TpchQ10());
}

TEST_F(ParallelExecTest, Q12CaseAggregateThreadInvariant) {
  ExpectThreadInvariant("Q12", TpchQ12());
}

TEST_F(ParallelExecTest, Q14RatioAggregateThreadInvariant) {
  ExpectThreadInvariant("Q14", TpchQ14());
}

TEST_F(ParallelExecTest, PipelineRootScanFilterThreadInvariant) {
  // Whole plan is pipeline-shaped: the root collector itself runs through
  // the morsel path. Output row order must match the serial table order.
  ExpectThreadInvariant(
      "scan-filter",
      "SELECT l_orderkey, l_quantity, l_extendedprice FROM lineitem "
      "WHERE l_quantity < 10");
}

TEST_F(ParallelExecTest, DistinctAggregateThreadInvariant) {
  // DISTINCT aggregates stay on the serial accumulate path (a Gather
  // exchange parallelizes their input); results must still be invariant.
  ExpectThreadInvariant(
      "count-distinct",
      "SELECT COUNT(DISTINCT l_suppkey), COUNT(*) FROM lineitem");
}

TEST_F(ParallelExecTest, OrderByWithoutLimitThreadInvariant) {
  ExpectThreadInvariant(
      "sort",
      "SELECT l_orderkey, l_linenumber FROM lineitem "
      "WHERE l_discount > 0.05 ORDER BY l_orderkey, l_linenumber");
}

TEST_F(ParallelExecTest, ParallelMatchesSerialModeWithinTolerance) {
  // The morsel path may round FP sums differently than the legacy serial
  // accumulation (different addition tree), so compare a parallel-enabled
  // engine against an enable_parallel=false engine with a relative bound.
  DatabaseOptions serial_options;
  serial_options.physical.enable_parallel = false;
  Database serial_db(serial_options);
  TpchOptions tpch;
  tpch.scale_factor = 0.002;
  ASSERT_TRUE(GenerateTpch(tpch, &serial_db.catalog()).ok());

  auto serial = serial_db.Execute(TpchQ1());
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  QueryResult parallel = RunAt(8, TpchQ1());
  ASSERT_EQ(serial->num_rows(), parallel.num_rows());
  ASSERT_EQ(serial->num_columns(), parallel.num_columns());
  for (size_t r = 0; r < parallel.num_rows(); ++r) {
    for (size_t c = 0; c < parallel.num_columns(); ++c) {
      Value vs = serial->Get(r, c);
      Value vp = parallel.Get(r, c);
      ASSERT_EQ(vs.is_null(), vp.is_null());
      if (vs.is_null()) continue;
      if (vs.type() == TypeId::kDouble) {
        double s = vs.AsDouble();
        EXPECT_NEAR(vp.AsDouble(), s, 1e-9 * std::max(1.0, std::abs(s)));
      } else {
        EXPECT_EQ(vs.Compare(vp), 0);
      }
    }
  }
}

TEST_F(ParallelExecTest, SmallTableStaysEligibleInvariant) {
  // Tables below parallel_min_rows take the serial path at every thread
  // count — trivially invariant, but guard the routing anyway.
  ExpectThreadInvariant(
      "small-table",
      "SELECT n_regionkey, COUNT(*) FROM nation GROUP BY n_regionkey");
}

}  // namespace
}  // namespace agora
