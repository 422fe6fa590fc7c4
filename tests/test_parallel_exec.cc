// Parallel-vs-serial equivalence for morsel-driven execution: the same
// query must return byte-identical results — including floating-point
// aggregate rounding and ExecStats counters — at every worker count.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>

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

// -- Deadlines and cancellation inside morsel pipelines ---------------------

/// A table whose high-cardinality GROUP BY runs a parallel aggregate for
/// a few hundred milliseconds: long enough that a query stopping at its
/// deadline and one running its whole pipeline first cannot be confused.
class MorselControlTest : public ::testing::Test {
 protected:
  static constexpr int64_t kRows = 2000000;
  static constexpr const char* kAggregate =
      "SELECT k, COUNT(*), SUM(v) FROM big GROUP BY k";

  static void SetUpTestSuite() {
    setenv("AGORA_THREADS", "4", 0);
    db_ = new Database();
    ColumnVector k(TypeId::kInt64);
    ColumnVector v(TypeId::kInt64);
    for (int64_t i = 0; i < kRows; ++i) {
      k.AppendInt64((i * 7919) % 400000);
      v.AppendInt64(i);
    }
    Chunk chunk;
    chunk.AddColumn(std::move(k));
    chunk.AddColumn(std::move(v));
    auto table = std::make_shared<Table>(
        "big", Schema({Field{"k", TypeId::kInt64, false},
                       Field{"v", TypeId::kInt64, false}}));
    ASSERT_TRUE(table->AppendChunk(chunk).ok());
    ASSERT_TRUE(db_->catalog().RegisterTable(table).ok());
    // The unbounded run time: the faster of two runs.
    for (int run = 0; run < 2; ++run) {
      Status status;
      const double ms = TimedRun(kAggregate, nullptr, &status);
      ASSERT_TRUE(status.ok()) << status.ToString();
      unbounded_ms_ = run == 0 ? ms : std::min(unbounded_ms_, ms);
    }
  }
  static void TearDownTestSuite() {
    delete db_;
    db_ = nullptr;
  }

  /// Runs `sql` under `control` (may be null) and returns its wall time
  /// in milliseconds; `*status` is the statement's status.
  static double TimedRun(const char* sql, const QueryControl* control,
                         Status* status) {
    const auto start = std::chrono::steady_clock::now();
    auto result = db_->Execute(sql, control);
    const auto end = std::chrono::steady_clock::now();
    *status = result.status();
    return std::chrono::duration<double, std::milli>(end - start).count();
  }

  static Database* db_;
  static double unbounded_ms_;
};

Database* MorselControlTest::db_ = nullptr;
double MorselControlTest::unbounded_ms_ = 0;

TEST_F(MorselControlTest, AggregateStopsAtItsDeadline) {
  // The best of three, so one descheduled run does not decide.
  double best = unbounded_ms_;
  for (int attempt = 0; attempt < 3; ++attempt) {
    QueryControl control;
    control.set_timeout(std::chrono::milliseconds(2));
    Status status;
    best = std::min(best, TimedRun(kAggregate, &control, &status));
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
        << status.ToString();
  }
  EXPECT_LT(best, unbounded_ms_ / 4)
      << "the aggregate ran its pipeline past the deadline (unbounded "
      << unbounded_ms_ << " ms)";
}

TEST_F(MorselControlTest, AggregateStopsWhenCancelled) {
  double best = unbounded_ms_;
  for (int attempt = 0; attempt < 3; ++attempt) {
    QueryControl control;
    std::thread canceller([&control] {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
      control.RequestCancel();
    });
    Status status;
    const double ms = TimedRun(kAggregate, &control, &status);
    canceller.join();
    best = std::min(best, ms);
    EXPECT_EQ(status.code(), StatusCode::kDeadlineExceeded)
        << status.ToString();
    EXPECT_NE(status.message().find("cancelled"), std::string::npos)
        << status.ToString();
  }
  EXPECT_LT(best, unbounded_ms_ / 4)
      << "the aggregate ran its pipeline past the cancel request (unbounded "
      << unbounded_ms_ << " ms)";
}

}  // namespace
}  // namespace agora
