// Memory governance: tracker accounting, spill-file round trips, and —
// the load-bearing contract — budgeted execution that spills to disk
// yet emits byte-identical results. A budget changes *where* join build
// partitions and aggregation state live, never *what* the query
// returns: every test here compares a budgeted run cell-for-cell
// (doubles bitwise) against an unlimited-budget reference, across
// partition counts and worker counts. Queries that cannot fit even by
// spilling must fail with a ResourceExhausted Status and leave the
// engine fully usable.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <iterator>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "common/memory_tracker.h"
#include "common/verify.h"
#include "engine/database.h"
#include "exec/scan.h"
#include "storage/spill.h"
#include "tpch/tpch.h"

namespace agora {
namespace {

// ---------------------------------------------------------------------
// MemoryTracker unit tests
// ---------------------------------------------------------------------

TEST(MemoryTrackerTest, ChargesPropagateToAncestors) {
  auto root = std::make_shared<MemoryTracker>("root");
  auto child = std::make_shared<MemoryTracker>("child", root);
  child->Consume(100);
  EXPECT_EQ(child->reserved(), 100);
  EXPECT_EQ(root->reserved(), 100);
  child->Consume(50);
  EXPECT_EQ(root->reserved(), 150);
  child->Release(150);
  EXPECT_EQ(child->reserved(), 0);
  EXPECT_EQ(root->reserved(), 0);
  // Peak is a high-water mark; releases never lower it.
  EXPECT_EQ(child->peak(), 150);
  EXPECT_EQ(root->peak(), 150);
}

TEST(MemoryTrackerTest, BudgetLimitedWalksTheChain) {
  auto root = std::make_shared<MemoryTracker>("root");
  auto child = std::make_shared<MemoryTracker>("child", root);
  EXPECT_FALSE(child->budget_limited());
  root->set_budget(1000);
  EXPECT_TRUE(child->budget_limited());
  EXPECT_TRUE(root->budget_limited());
  root->set_budget(0);
  EXPECT_FALSE(child->budget_limited());
}

TEST(MemoryTrackerTest, CheckBudgetNamesTheExhaustedTracker) {
  auto root = std::make_shared<MemoryTracker>("engine");
  auto child = std::make_shared<MemoryTracker>("query", root);
  root->set_budget(100);
  child->Consume(150);
  EXPECT_TRUE(child->over_budget());
  Status s = child->CheckBudget("HashJoin");
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.code(), StatusCode::kResourceExhausted);
  EXPECT_NE(s.ToString().find("HashJoin"), std::string::npos);
  EXPECT_NE(s.ToString().find("engine"), std::string::npos);
  child->Release(150);
  EXPECT_TRUE(child->CheckBudget("HashJoin").ok());
}

TEST(MemoryTrackerTest, MemoryChargeAdjustsAndReleasesOnDestruction) {
  auto tracker = std::make_shared<MemoryTracker>("t");
  {
    MemoryCharge charge(tracker);
    charge.Update(64);
    EXPECT_EQ(tracker->reserved(), 64);
    charge.Update(32);  // shrink releases the delta
    EXPECT_EQ(tracker->reserved(), 32);
    MemoryCharge moved = std::move(charge);
    EXPECT_EQ(tracker->reserved(), 32);  // move transfers, not doubles
  }
  EXPECT_EQ(tracker->reserved(), 0);  // destructor released everything
}

TEST(MemoryTrackerTest, ScopedTrackerInstallsAndRestores) {
  auto tracker = std::make_shared<MemoryTracker>("scoped");
  EXPECT_EQ(CurrentMemoryTracker(), nullptr);
  {
    ScopedMemoryTracker scope(tracker);
    EXPECT_EQ(CurrentMemoryTracker().get(), tracker.get());
    MemoryCharge charge;  // default-constructed: captures the scope
    charge.Update(16);
    EXPECT_EQ(tracker->reserved(), 16);
  }
  EXPECT_EQ(CurrentMemoryTracker(), nullptr);
  EXPECT_EQ(tracker->reserved(), 0);
}

// AGORA_MEM_BUDGET seeds Database::memory_budget(). Malformed values mean
// unlimited (0), and a size that overflows int64_t counts as malformed:
// with or without a suffix it must never reach signed-overflow UB.
TEST(MemoryBudgetKnobTest, OverflowingSizesMeanUnlimited) {
  const char* saved = std::getenv("AGORA_MEM_BUDGET");
  const std::string restore = saved != nullptr ? saved : "";
  const std::pair<const char*, int64_t> cases[] = {
      {"4096", 4096},
      {"64k", int64_t{64} << 10},
      {"3M", int64_t{3} << 20},
      {"8589934591g", int64_t{8589934591} * (int64_t{1} << 30)},  // fits
      {"8589934592g", 0},  // 2^63 bytes: one past INT64_MAX
      {"99999999999g", 0},
      {"9223372036854775807k", 0},
      {"99999999999999999999", 0},  // strtoll ERANGE, no suffix
      {"99999999999999999999m", 0},
      {"-5m", 0},
      {"lots", 0},
  };
  for (const auto& [text, want] : cases) {
    setenv("AGORA_MEM_BUDGET", text, 1);
    Database db;
    EXPECT_EQ(db.memory_budget(), want) << "AGORA_MEM_BUDGET=" << text;
  }
  if (saved != nullptr) {
    setenv("AGORA_MEM_BUDGET", restore.c_str(), 1);
  } else {
    unsetenv("AGORA_MEM_BUDGET");
  }
}

// ---------------------------------------------------------------------
// Spill-file round trips and cleanup
// ---------------------------------------------------------------------

size_t CountSpillFiles(const std::string& dir) {
  size_t n = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().rfind("agora_spill_", 0) == 0) ++n;
  }
  return n;
}

std::string MakeScratchDir(const char* tag) {
  std::string dir = (std::filesystem::temp_directory_path() /
                     (std::string("agora_spill_test_") + tag))
                        .string();
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

TEST(SpillFileTest, ChunkAndBlobRoundTripBitExact) {
  std::string dir = MakeScratchDir("roundtrip");
  {
    SpillManager manager(dir);
    auto created = manager.Create();
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<SpillFile> file = std::move(created).value();

    Schema schema({Field{"i", TypeId::kInt64, true},
                   Field{"d", TypeId::kDouble, true},
                   Field{"s", TypeId::kString, true}});
    Chunk chunk(schema);
    chunk.AppendRow({Value::Int64(1), Value::Double(0.1), Value::String("a")});
    chunk.AppendRow({Value::Null(), Value::Double(-0.0), Value::String("")});
    chunk.AppendRow({Value::Int64(-7), Value::Null(), Value::Null()});
    ASSERT_TRUE(file->WriteChunk(chunk).ok());
    const std::string blob = "raw accumulator bytes \x00\x01\x02";
    ASSERT_TRUE(file->WriteBlob(blob.data(), blob.size()).ok());
    ASSERT_TRUE(file->Rewind().ok());

    Chunk back;
    bool eof = false;
    ASSERT_TRUE(file->ReadChunk(&back, &eof).ok());
    ASSERT_FALSE(eof);
    ASSERT_EQ(back.num_rows(), chunk.num_rows());
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      for (size_t c = 0; c < chunk.num_columns(); ++c) {
        Value a = chunk.column(c).GetValue(r);
        Value b = back.column(c).GetValue(r);
        ASSERT_EQ(a.is_null(), b.is_null()) << r << "," << c;
        if (a.is_null()) continue;
        if (a.type() == TypeId::kDouble) {
          EXPECT_EQ(a.AsDouble(), b.AsDouble()) << r << "," << c;
        } else {
          EXPECT_EQ(a.Compare(b), 0) << r << "," << c;
        }
      }
    }
    std::string blob_back;
    ASSERT_TRUE(file->ReadBlob(&blob_back).ok());
    EXPECT_EQ(blob_back, blob);
    Chunk past_end;
    ASSERT_TRUE(file->ReadChunk(&past_end, &eof).ok());
    EXPECT_TRUE(eof);

    EXPECT_EQ(CountSpillFiles(dir), 1u);
    manager.Recycle(std::move(file));
    EXPECT_EQ(CountSpillFiles(dir), 1u);  // recycled, not yet unlinked
  }
  // Manager destruction unlinks every file it ever handed out.
  EXPECT_EQ(CountSpillFiles(dir), 0u);
  std::filesystem::remove_all(dir);
}

// ---------------------------------------------------------------------
// Budgeted end-to-end execution
// ---------------------------------------------------------------------

/// Cell-exact equality; doubles compared with operator== (the
/// byte-identity contract allows no tolerance), or by bit pattern with
/// `bitwise_doubles`.
void ExpectIdentical(const QueryResult& a, const QueryResult& b,
                     const std::string& label, bool bitwise_doubles = false) {
  ASSERT_EQ(a.num_rows(), b.num_rows()) << label;
  ASSERT_EQ(a.num_columns(), b.num_columns()) << label;
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      Value va = a.Get(r, c);
      Value vb = b.Get(r, c);
      ASSERT_EQ(va.is_null(), vb.is_null())
          << label << " (" << r << "," << c << ")";
      if (va.is_null()) continue;
      if (va.type() == TypeId::kDouble && bitwise_doubles) {
        const double da = va.AsDouble(), db = vb.AsDouble();
        uint64_t ba, bb;
        std::memcpy(&ba, &da, sizeof(ba));
        std::memcpy(&bb, &db, sizeof(bb));
        ASSERT_EQ(ba, bb) << label << " (" << r << "," << c << ")";
      } else if (va.type() == TypeId::kDouble) {
        ASSERT_EQ(va.AsDouble(), vb.AsDouble())
            << label << " (" << r << "," << c << ")";
      } else {
        ASSERT_EQ(va.Compare(vb), 0)
            << label << " (" << r << "," << c << "): " << va.ToString()
            << " vs " << vb.ToString();
      }
    }
  }
}

/// Two engines over identical TPC-H data (the generator is
/// deterministic): `ref_` always runs unlimited, `budgeted_` gets its
/// budget/partition/thread knobs twiddled per test and reset after.
class SpillExecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Force a multi-core pool even in single-core containers, so the
    // thread sweep actually schedules parallel morsels. Must precede the
    // first query (the global pool is constructed lazily).
    setenv("AGORA_THREADS", "4", 0);
    TpchOptions options;
    options.scale_factor = 0.005;
    ref_ = new Database();
    ASSERT_TRUE(GenerateTpch(options, &ref_->catalog()).ok());
    budgeted_ = new Database();
    ASSERT_TRUE(GenerateTpch(options, &budgeted_->catalog()).ok());
  }
  static void TearDownTestSuite() {
    delete budgeted_;
    delete ref_;
    budgeted_ = nullptr;
    ref_ = nullptr;
  }
  void TearDown() override {
    budgeted_->set_memory_budget(0);
    budgeted_->set_spill_partitions(8);
    budgeted_->set_execution_threads(0);
  }

  static QueryResult Run(Database* db, const std::string& sql) {
    auto result = db->Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult();
  }

  /// Unlimited-run peak for `sql`, used to size budgets relative to the
  /// actual working set instead of hard-coding byte counts.
  static int64_t UnlimitedPeak(const std::string& sql) {
    budgeted_->set_memory_budget(0);  // a previous sweep may have set one
    QueryResult r = Run(budgeted_, sql);
    return r.stats().mem_bytes_reserved_peak;
  }

  /// Runs `sql` under `budget` across partition counts and worker
  /// counts, requiring byte-identical results every time; returns the
  /// total spilled partitions observed.
  int64_t SweepAndCompare(const std::string& sql, int64_t budget,
                          const QueryResult& reference) {
    int64_t spilled = 0;
    for (size_t partitions : {2u, 4u, 8u}) {
      for (int threads : {1, 4}) {
        budgeted_->set_memory_budget(budget);
        budgeted_->set_spill_partitions(partitions);
        budgeted_->set_execution_threads(threads);
        std::string label = "P=" + std::to_string(partitions) +
                            " T=" + std::to_string(threads) +
                            " budget=" + std::to_string(budget);
        QueryResult got = Run(budgeted_, sql);
        ExpectIdentical(reference, got, label);
        spilled += got.stats().spill_partitions;
        if (got.stats().spill_partitions > 0) {
          EXPECT_GT(got.stats().spill_bytes_written, 0) << label;
          EXPECT_GT(got.stats().spill_bytes_read, 0) << label;
        }
        EXPECT_GT(got.stats().mem_bytes_reserved_peak, 0) << label;
      }
    }
    return spilled;
  }

  static Database* ref_;
  static Database* budgeted_;
};

Database* SpillExecTest::ref_ = nullptr;
Database* SpillExecTest::budgeted_ = nullptr;

// A join whose build side dominates the working set and whose result is
// one row: shrinking the budget *must* push build partitions to disk.
const char kBuildHeavyJoin[] =
    "SELECT COUNT(*), SUM(l_quantity) FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey";

// An aggregation with one group per order: the group table dominates,
// so a sub-working-set budget must snapshot partitions to disk. The
// double SUM makes float accumulation order observable.
const char kGroupHeavyAgg[] =
    "SELECT l_orderkey, COUNT(*), SUM(l_quantity), "
    "SUM(l_extendedprice * (1.0 - l_discount)) "
    "FROM lineitem GROUP BY l_orderkey";

TEST_F(SpillExecTest, JoinSpillsAndStaysByteIdentical) {
  QueryResult reference = Run(ref_, kBuildHeavyJoin);
  int64_t peak = UnlimitedPeak(kBuildHeavyJoin);
  ASSERT_GT(peak, 0);
  int64_t spilled =
      SweepAndCompare(kBuildHeavyJoin, std::max<int64_t>(peak / 4, 1 << 16),
                      reference);
  EXPECT_GT(spilled, 0) << "budget " << peak / 4
                        << " never forced a build partition to disk";
}

TEST_F(SpillExecTest, AggregateSpillsAndStaysByteIdentical) {
  QueryResult reference = Run(ref_, kGroupHeavyAgg);
  int64_t peak = UnlimitedPeak(kGroupHeavyAgg);
  ASSERT_GT(peak, 0);
  // A grouped aggregation's budget must at least cover its own result
  // chunk (the output is not spillable); headroom beyond that is what
  // spilling trades away, so grant the result plus one chunk's worth.
  int64_t result_bytes = static_cast<int64_t>(reference.data().MemoryBytes());
  int64_t budget =
      std::max<int64_t>(peak / 4, result_bytes + (int64_t{64} << 10));
  int64_t spilled = SweepAndCompare(kGroupHeavyAgg, budget, reference);
  EXPECT_GT(spilled, 0) << "budget " << budget
                        << " never snapshotted an aggregation partition";
}

// Keys on dictionary-encoded string columns. The aggregate hashes and
// compares l_shipmode through its codes; the join matches o_orderstatus
// against l_linestatus, two columns with different dictionaries. Spill
// files hold decoded strings that reload re-encodes, so reloaded
// partitions must meet in-memory ones byte for byte.
const char kEncodedKeyAgg[] =
    "SELECT l_orderkey, l_shipmode, COUNT(*), SUM(l_quantity) "
    "FROM lineitem GROUP BY l_orderkey, l_shipmode";
const char kEncodedKeyJoin[] =
    "SELECT COUNT(*), SUM(l_quantity) FROM orders, lineitem "
    "WHERE o_orderkey = l_orderkey AND o_orderstatus = l_linestatus";

TEST_F(SpillExecTest, EncodedStringKeysSpillAndStayByteIdentical) {
  auto lineitem = budgeted_->catalog().GetTable("lineitem");
  ASSERT_TRUE(lineitem.ok());
  const Schema& schema = (*lineitem)->schema();
  for (const char* column : {"l_shipmode", "l_linestatus"}) {
    ASSERT_TRUE(
        (*lineitem)->column(*schema.FieldIndex(column)).is_dictionary())
        << column;
  }

  // The aggregate's result (one row per group, not spillable) is most of
  // its working set, so its budget is the result plus room for about one
  // partition; a quarter of the peak would not even hold the result. The
  // scan's blocks are views that charge nothing, so that room is all the
  // aggregate's.
  QueryResult agg = Run(ref_, kEncodedKeyAgg);
  const int64_t agg_budget =
      static_cast<int64_t>(agg.data().MemoryBytes()) + (int64_t{128} << 10);
  QueryResult join = Run(ref_, kEncodedKeyJoin);
  const int64_t join_budget =
      std::max<int64_t>(UnlimitedPeak(kEncodedKeyJoin) / 4, 1 << 16);

  EXPECT_GT(SweepAndCompare(kEncodedKeyAgg, agg_budget, agg), 0)
      << "budget " << agg_budget << " never spilled the aggregate";
  EXPECT_GT(SweepAndCompare(kEncodedKeyJoin, join_budget, join), 0)
      << "budget " << join_budget << " never spilled the join";
}

// Small-domain BIGINT, DATE and dictionary keys: the groups come from
// direct-indexed arrays (a span of 7 line numbers, 7 residues from -3 to
// 3, 3 flags: 256 slots; 90 ship dates), in memory and in a budgeted
// run alike, until a partition spills; from then on the budgeted run
// hashes every row to route it, and the tables it rebuilds or reloads
// set their arrays up afresh. Both must agree byte for byte,
// first-appearance group order included.
const char kIntegerKeyAgg[] =
    "SELECT l_linenumber, l_suppkey % 7 - 3, l_returnflag, COUNT(*), "
    "SUM(l_quantity), SUM(l_extendedprice * (1.0 - l_discount)) "
    "FROM lineitem GROUP BY l_linenumber, l_suppkey % 7 - 3, l_returnflag";
const char kDateKeyAgg[] =
    "SELECT l_shipdate, COUNT(*), SUM(l_extendedprice) FROM lineitem "
    "WHERE l_shipdate BETWEEN DATE '1995-01-01' AND DATE '1995-03-31' "
    "GROUP BY l_shipdate";

TEST_F(SpillExecTest, SmallIntegerKeysStayByteIdenticalUnderBudget) {
  for (const char* sql : {kIntegerKeyAgg, kDateKeyAgg}) {
    SCOPED_TRACE(sql);
    QueryResult reference = Run(ref_, sql);
    ASSERT_GT(reference.num_rows(), 50u);
    const int64_t budget =
        static_cast<int64_t>(reference.data().MemoryBytes()) +
        (int64_t{64} << 10);
    SweepAndCompare(sql, budget, reference);
  }
}

// MIN and MAX over the NULL literal yield a BOOLEAN column of NULLs
// (an untyped NULL evaluates as BOOLEAN), so the query passes the chunk
// verifier (AGORA_VERIFY) and spools its finalized groups under a
// budget that spills, at one and four threads.
const char kNullLiteralAgg[] =
    "SELECT l_orderkey, MIN(NULL), MAX(NULL), COUNT(NULL), COUNT(*) "
    "FROM lineitem GROUP BY l_orderkey";

TEST_F(SpillExecTest, NullLiteralAggregatesVerifyAndSpill) {
  struct VerifyOn {
    bool was = VerificationEnabled();
    VerifyOn() { SetVerificationEnabled(true); }
    ~VerifyOn() { SetVerificationEnabled(was); }
  } verify_on;
  QueryResult reference = Run(ref_, kNullLiteralAgg);
  ASSERT_GT(reference.num_rows(), 1000u);
  EXPECT_EQ(reference.schema().field(1).type, TypeId::kBool);
  for (size_t r = 0; r < reference.num_rows(); ++r) {
    ASSERT_TRUE(reference.Get(r, 1).is_null()) << r;
    ASSERT_TRUE(reference.Get(r, 2).is_null()) << r;
    ASSERT_EQ(reference.Get(r, 3).int64_value(), 0) << r;
  }
  for (int threads : {1, 4}) {
    budgeted_->set_execution_threads(threads);
    ExpectIdentical(reference, Run(budgeted_, kNullLiteralAgg),
                    "unbudgeted T=" + std::to_string(threads));
  }
  const int64_t budget =
      static_cast<int64_t>(reference.data().MemoryBytes()) +
      (int64_t{16} << 10);
  EXPECT_GT(SweepAndCompare(kNullLiteralAgg, budget, reference), 0)
      << "budget " << budget << " never spilled the aggregate";
}

TEST_F(SpillExecTest, TpchQueriesByteIdenticalUnderBudget) {
  // A budgeted join runs in spill mode and publishes no join filter, so
  // this also checks the filtered reference against the filter-free run.
  const std::pair<const char*, std::string> queries[] = {
      {"Q1", TpchQ1()},   {"Q3", TpchQ3()},   {"Q5", TpchQ5()},
      {"Q6", TpchQ6()},   {"Q10", TpchQ10()}, {"Q12", TpchQ12()},
      {"Q14", TpchQ14()}};
  for (const auto& [name, sql] : queries) {
    SCOPED_TRACE(name);
    QueryResult reference = Run(ref_, sql);
    int64_t peak = UnlimitedPeak(sql);
    ASSERT_GT(peak, 0);
    SweepAndCompare(sql, std::max<int64_t>(peak / 3, 1 << 16), reference);
  }
}

TEST_F(SpillExecTest, InfeasibleBudgetFailsGracefullyAndEngineSurvives) {
  // 16 KiB is below a single lineitem chunk: not feasible even with
  // every partition spilled. The query must fail with a Status — no
  // abort, no crash — and the engine must serve the next query.
  budgeted_->set_memory_budget(16 << 10);
  auto rejections = [] {
    return budgeted_->metrics().CounterValue("mem_budget_rejections_total");
  };
  const double rejections_before = rejections();
  auto result = budgeted_->Execute(kGroupHeavyAgg);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
      << result.status().ToString();
  EXPECT_NE(result.status().ToString().find("memory budget exceeded"),
            std::string::npos)
      << result.status().ToString();
  // Counted exactly once: the failed execution's own counters carry the
  // rejection into the registry, nothing else adds it.
  EXPECT_EQ(rejections(), rejections_before + 1);
  // Same engine, budget lifted: the query runs fine.
  budgeted_->set_memory_budget(0);
  QueryResult ok = Run(budgeted_, kGroupHeavyAgg);
  QueryResult reference = Run(ref_, kGroupHeavyAgg);
  ExpectIdentical(reference, ok, "post-failure recovery");
}

// A predicate-free scan's blocks are views that charge the tracker
// nothing; the result that copies them does. A result larger than the
// budget must fail the query, whichever collector (serial or morsel,
// one worker or four) gathers it.
const char kWideScan[] =
    "SELECT l_orderkey, l_partkey, l_extendedprice, l_shipdate, l_shipmode "
    "FROM lineitem";

TEST_F(SpillExecTest, ResultLargerThanBudgetFailsTheQuery) {
  QueryResult reference = Run(ref_, kWideScan);
  const int64_t result_bytes =
      static_cast<int64_t>(reference.data().MemoryBytes());
  ASSERT_GT(result_bytes, int64_t{256} << 10);
  auto rejections = [] {
    return budgeted_->metrics().CounterValue("mem_budget_rejections_total");
  };
  for (int threads : {1, 4}) {
    SCOPED_TRACE("T=" + std::to_string(threads));
    budgeted_->set_execution_threads(threads);
    budgeted_->set_memory_budget(result_bytes / 2);
    const double rejections_before = rejections();
    auto result = budgeted_->Execute(kWideScan);
    ASSERT_FALSE(result.ok()) << "held " << result_bytes
                              << " bytes under a budget of "
                              << result_bytes / 2;
    EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted)
        << result.status().ToString();
    EXPECT_EQ(rejections(), rejections_before + 1);
    // Room for the result: the same query succeeds.
    budgeted_->set_memory_budget(2 * result_bytes);
    ExpectIdentical(reference, Run(budgeted_, kWideScan), "roomy budget");
  }
}

TEST_F(SpillExecTest, RootReservationReturnsToZero) {
  ASSERT_EQ(budgeted_->memory_tracker()->reserved(), 0);
  QueryResult reference = Run(ref_, kGroupHeavyAgg);
  int64_t result_bytes = static_cast<int64_t>(reference.data().MemoryBytes());
  int64_t peak = UnlimitedPeak(kGroupHeavyAgg);
  {
    // Half the unlimited peak with two partitions: tight enough that the
    // aggregation sheds a partition, roomy enough to hold the result
    // (whose accumulation is the feasibility floor of any budget).
    budgeted_->set_spill_partitions(2);
    budgeted_->set_memory_budget(
        std::max<int64_t>(peak / 2, result_bytes + (int64_t{64} << 10)));
    QueryResult held = Run(budgeted_, kGroupHeavyAgg);
    EXPECT_GT(held.num_rows(), 0u);
  }
  // Every charge is owned by RAII holders inside operators or result
  // chunks; with the result gone the engine root must read exactly zero
  // (a leak here means some owner forgot its tracker).
  EXPECT_EQ(budgeted_->memory_tracker()->reserved(), 0);
  EXPECT_GT(budgeted_->memory_tracker()->peak(), 0);
}

TEST_F(SpillExecTest, SpillTempFilesAreCleanedUp) {
  std::string dir = MakeScratchDir("exec");
  {
    Database db;
    TpchOptions options;
    options.scale_factor = 0.005;
    ASSERT_TRUE(GenerateTpch(options, &db.catalog()).ok());
    db.set_spill_dir(dir);
    QueryResult unlimited = Run(&db, kBuildHeavyJoin);
    db.set_memory_budget(
        std::max<int64_t>(unlimited.stats().mem_bytes_reserved_peak / 4,
                          1 << 16));
    QueryResult got = Run(&db, kBuildHeavyJoin);
    EXPECT_GT(got.stats().spill_partitions, 0);
    ExpectIdentical(unlimited, got, "spill-dir run");
  }
  // The SpillManager dies with the database and unlinks every temp file
  // — success path and error path alike.
  EXPECT_EQ(CountSpillFiles(dir), 0u);
  std::filesystem::remove_all(dir);
}

TEST_F(SpillExecTest, MetricsExposeSpillCounters) {
  int64_t peak = UnlimitedPeak(kBuildHeavyJoin);
  budgeted_->set_memory_budget(std::max<int64_t>(peak / 4, 1 << 16));
  QueryResult got = Run(budgeted_, kBuildHeavyJoin);
  ASSERT_GT(got.stats().spill_partitions, 0);
  std::string snapshot = budgeted_->MetricsSnapshot();
  EXPECT_NE(snapshot.find("spill_partitions_total"), std::string::npos);
  EXPECT_NE(snapshot.find("spill_bytes_written_total"), std::string::npos);
  EXPECT_NE(snapshot.find("spill_bytes_read_total"), std::string::npos);
  EXPECT_NE(snapshot.find("mem_bytes_reserved_peak"), std::string::npos);
}

// ---------------------------------------------------------------------
// Spill-mode hash join, shape by shape
// ---------------------------------------------------------------------

// jp, the probe side, has more rows than one morsel (65,536), so the
// unlimited 4-thread run probes on morsels while every budgeted run
// probes serially. Its key k is i, NULL every 53rd row. jb, the build
// side, holds every 50th key below 300,000 twice (NULL every 31st row),
// so most probe rows match nothing and a matching row matches twice.
// k2 makes a two-key join (a third of the key pairs agree on it); v
// and w make a residual that keeps about half of the matches.
constexpr int kJoinProbeRows = 70000;
constexpr int kJoinBuildRows = 12000;

std::vector<std::string> SpillJoinTables() {
  std::vector<std::string> sql = {
      "CREATE TABLE jp (i BIGINT, k BIGINT, k2 BIGINT, g BIGINT, v DOUBLE)",
      "CREATE TABLE jb (j BIGINT, k BIGINT, k2 BIGINT, w DOUBLE)"};
  for (int begin = 0; begin < kJoinProbeRows; begin += 10000) {
    std::string rows = "INSERT INTO jp VALUES ";
    for (int i = begin; i < begin + 10000; ++i) {
      rows += (i > begin ? ", (" : "(") + std::to_string(i) + ", " +
              (i % 53 == 0 ? "NULL" : std::to_string(i)) + ", " +
              std::to_string(i % 3) + ", " + std::to_string(i % 100) + ", " +
              std::to_string(i % 1000) + ".5)";
    }
    sql.push_back(std::move(rows));
  }
  std::string rows = "INSERT INTO jb VALUES ";
  for (int j = 0; j < kJoinBuildRows; ++j) {
    rows += (j > 0 ? ", (" : "(") + std::to_string(j) + ", " +
            (j % 31 == 0 ? "NULL" : std::to_string(j % 6000 * 50)) + ", " +
            std::to_string(j % 3) + ", " + std::to_string(j % 997) + ".25)";
  }
  sql.push_back(std::move(rows));
  return sql;
}

// None of them has an ORDER BY: the order of the rows is part of what
// a budget must not change. The LEFT JOIN keeps 700 probe rows, among
// them NULL keys and keys jb lacks.
const char kResidualJoin[] =
    "SELECT jp.i, jb.j, jb.w FROM jp, jb WHERE jp.k = jb.k AND jp.v < jb.w";
const char kLeftJoin[] =
    "SELECT jp.i, jp.k, jb.j, jb.w FROM jp LEFT JOIN jb ON jp.k = jb.k "
    "WHERE jp.g = 0";
const char kTwoKeyJoin[] =
    "SELECT jp.i, jb.j, jb.k2 FROM jp, jb "
    "WHERE jp.k = jb.k AND jp.k2 = jb.k2";

class SpillJoinTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    setenv("AGORA_THREADS", "4", 0);
    ref_ = new Database();
    budgeted_ = new Database();
    for (const std::string& sql : SpillJoinTables()) {
      for (Database* db : {ref_, budgeted_}) {
        auto done = db->Execute(sql);
        ASSERT_TRUE(done.ok()) << done.status().ToString();
      }
    }
  }
  static void TearDownTestSuite() {
    delete budgeted_;
    delete ref_;
    budgeted_ = nullptr;
    ref_ = nullptr;
  }

  static QueryResult Run(Database* db, const std::string& sql) {
    auto result = db->Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult();
  }

  static Database* ref_;
  static Database* budgeted_;
};

Database* SpillJoinTest::ref_ = nullptr;
Database* SpillJoinTest::budgeted_ = nullptr;

// Every shape at P in {1, 2, 8} partitions and 1 or 4 threads: first
// under 1 GiB, where nothing spills, then down a ladder of budgets from
// a fraction of the unlimited run's peak, 15% lower a step, until every
// partition spills (all P hold build rows). With P > 1 the ladder must
// pass a budget that spills some partitions but not all. Where each
// regime starts depends on memory accounting the join does not own, so
// the ladder finds it instead of a hard-coded byte count. Every run must
// succeed, match the unlimited 4-thread run cell for cell, doubles bit
// for bit, and count the same joined rows, chain steps and table
// entries; the one-key joins count a key bitmap for every build.
TEST_F(SpillJoinTest, BudgetedJoinsMatchUnlimitedCellForCell) {
  for (const char* sql : {kResidualJoin, kLeftJoin, kTwoKeyJoin}) {
    SCOPED_TRACE(sql);
    ref_->set_execution_threads(4);
    QueryResult reference = Run(ref_, sql);
    ASSERT_GT(reference.num_rows(), 500u);
    ref_->set_execution_threads(1);
    ExpectIdentical(reference, Run(ref_, sql), "unlimited, 1 thread", true);
    const ExecStats& want = reference.stats();
    budgeted_->set_memory_budget(0);
    budgeted_->set_execution_threads(1);
    const int64_t peak = Run(budgeted_, sql).stats().mem_bytes_reserved_peak;
    ASSERT_GT(peak, 0);
    // Where each ladder starts, in tenths of the peak: low enough to
    // spill, high enough that P > 1 spills part of the build first.
    const std::pair<size_t, int64_t> ladders[] = {{1, 6}, {2, 7}, {8, 5}};
    for (const auto& [partitions, tenths] : ladders) {
      const int64_t all = static_cast<int64_t>(partitions);
      for (int threads : {1, 4}) {
        budgeted_->set_spill_partitions(partitions);
        budgeted_->set_execution_threads(threads);
        // Returns the run's spilled partition count, or -1 on failure.
        auto check = [&](int64_t budget) -> int64_t {
          budgeted_->set_memory_budget(budget);
          const std::string label =
              "P=" + std::to_string(partitions) +
              " T=" + std::to_string(threads) +
              " budget=" + std::to_string(budget);
          auto got = budgeted_->Execute(sql);
          EXPECT_TRUE(got.ok()) << label << ": " << got.status().ToString();
          if (!got.ok()) return -1;
          ExpectIdentical(reference, *got, label, true);
          const ExecStats& s = got->stats();
          EXPECT_EQ(s.rows_joined, want.rows_joined) << label;
          EXPECT_EQ(s.probe_calls, want.probe_calls) << label;
          EXPECT_EQ(s.hash_table_entries, want.hash_table_entries) << label;
          // One BIGINT key: the resident build and every reloaded
          // partition each take a key bitmap. Two keys take Bloom filters.
          EXPECT_EQ(s.join_filters_exact,
                    sql == kTwoKeyJoin ? 0 : 1 + s.spill_partitions)
              << label;
          return s.spill_partitions;
        };
        EXPECT_EQ(check(int64_t{1} << 30), 0) << "1 GiB spilled";
        bool some = false;
        int64_t spilled = 0;
        for (int64_t budget = peak * tenths / 10; budget > (16 << 10);
             budget = budget * 85 / 100) {
          spilled = check(budget);
          some |= spilled > 0 && spilled < all;
          if (spilled < 0 || spilled == all) break;
        }
        EXPECT_EQ(spilled, all) << "P=" << partitions << " T=" << threads
                                << ": no budget spilled every partition";
        EXPECT_EQ(some, partitions > 1)
            << "P=" << partitions << " T=" << threads;
      }
    }
  }
  budgeted_->set_memory_budget(0);
  budgeted_->set_spill_partitions(8);
  budgeted_->set_execution_threads(0);
  ref_->set_execution_threads(0);
}

// ---------------------------------------------------------------------
// Spill-mode hash aggregate over several morsels
// ---------------------------------------------------------------------

// SF 0.05 lineitem holds about 300,000 rows, five morsels of 65,536, so
// the unlimited 4-thread run folds a partial per morsel on several
// workers and merges the partials in morsel order. Q1 and the `% 7`
// query fold many rows into a few groups, so their double sums show the
// addition tree. The l_partkey query has 10,000 groups, nearly all in
// every morsel, with double SUM/AVG/STDDEV and string MIN/MAX over a
// dictionary column and over a CASE, whose strings are flat. Because
// its groups recur in every morsel, a shed partition's partial and
// merged groups both matter on reload, and the resident partial makes
// the drain hold more than a reload does, so a budget can spill every
// partition and still reload each. Its HAVING keeps about one part in
// 25, an exact test on integral sums, so the result stays small next to
// the group table. The l_linenumber query's small integer key takes
// direct group ids.
const char kModSevenAgg[] =
    "SELECT l_orderkey % 7, SUM(l_extendedprice * 0.1) FROM lineitem "
    "GROUP BY l_orderkey % 7";
const char kPartKeyAgg[] =
    "SELECT l_partkey, SUM(l_extendedprice), AVG(l_discount), "
    "STDDEV(l_quantity * 1.5), MIN(l_shipmode), "
    "MAX(CASE WHEN l_quantity > 25 THEN l_shipmode ELSE l_returnflag END) "
    "FROM lineitem GROUP BY l_partkey HAVING SUM(l_quantity) > 1100";
const char kLineNumberAgg[] =
    "SELECT l_linenumber, COUNT(*), "
    "SUM(l_extendedprice * (1 - l_discount)) "
    "FROM lineitem GROUP BY l_linenumber";

/// One budget ladder of SpillAggTest: the spill partition count P and
/// where the ladder starts, in tenths of the l_partkey query's peak (low
/// enough to spill, high enough that P > 1 spills part of the groups
/// first).
struct AggLadder {
  size_t partitions;
  int64_t tenths;
};

// Also names the ctest cases (".../P8"): a printed value without spaces
// keeps them readable in ctest's timing data, which schedules the slowest
// first.
void PrintTo(const AggLadder& ladder, std::ostream* os) {
  *os << "P" << ladder.partitions;
}

class SpillAggTest : public ::testing::TestWithParam<AggLadder> {
 protected:
  static constexpr size_t kHighCardinality = 2;  // index of kPartKeyAgg

  /// Generates the databases, then runs each query unlimited at 4
  /// threads (the reference, checked against 1 thread) and measures the
  /// l_partkey query's peak, once for every ladder of the suite.
  static void SetUpTestSuite() {
    setenv("AGORA_THREADS", "4", 0);
    references_ = new std::vector<QueryResult>();
    TpchOptions options;
    options.scale_factor = 0.05;
    ref_ = new Database();
    ASSERT_TRUE(GenerateTpch(options, &ref_->catalog()).ok());
    budgeted_ = new Database();
    ASSERT_TRUE(GenerateTpch(options, &budgeted_->catalog()).ok());
    for (const std::string& sql : Queries()) {
      ref_->set_execution_threads(4);
      references_->push_back(Run(ref_, sql));
      ASSERT_GT(references_->back().num_rows(), 3u) << sql;
      ref_->set_execution_threads(1);
      ExpectIdentical(references_->back(), Run(ref_, sql),
                      sql + ": unlimited, 1 thread", true);
    }
    ref_->set_execution_threads(0);
    auto lineitem = ref_->catalog().GetTable("lineitem");
    ASSERT_TRUE(lineitem.ok());
    ASSERT_GT((*lineitem)->num_rows(), 4 * kMorselRows);
    budgeted_->set_memory_budget(0);
    budgeted_->set_execution_threads(1);
    peak_ = Run(budgeted_, Queries()[kHighCardinality])
                .stats()
                .mem_bytes_reserved_peak;
    budgeted_->set_execution_threads(0);
  }
  static void TearDownTestSuite() {
    delete references_;
    delete budgeted_;
    delete ref_;
    references_ = nullptr;
    budgeted_ = nullptr;
    ref_ = nullptr;
  }

  static std::vector<std::string> Queries() {
    return {TpchQ1(), kModSevenAgg, kPartKeyAgg, kLineNumberAgg};
  }

  static QueryResult Run(Database* db, const std::string& sql) {
    auto result = db->Execute(sql);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? std::move(*result) : QueryResult();
  }

  static Database* ref_;
  static Database* budgeted_;
  static std::vector<QueryResult>* references_;
  static int64_t peak_;
};

Database* SpillAggTest::ref_ = nullptr;
Database* SpillAggTest::budgeted_ = nullptr;
std::vector<QueryResult>* SpillAggTest::references_ = nullptr;
int64_t SpillAggTest::peak_ = 0;

// Every query at the ladder's P partitions and 1 or 4 threads: first
// under 1 GiB, where nothing spills, then down a ladder of budgets from
// a fraction of the l_partkey query's unlimited peak, 15% lower a step,
// until every partition of that query spills; with P > 1 the ladder must
// pass a budget that spills some of its partitions but not all. Every
// run must succeed and match the unlimited 4-thread run cell for cell,
// doubles bit for bit.
TEST_P(SpillAggTest, BudgetedAggregatesMatchUnlimitedCellForCell) {
  const std::vector<std::string> queries = Queries();
  ASSERT_EQ(references_->size(), queries.size());
  ASSERT_GT(peak_, 0);
  const auto [partitions, tenths] = GetParam();
  const int64_t all = static_cast<int64_t>(partitions);
  for (int threads : {1, 4}) {
    budgeted_->set_spill_partitions(partitions);
    budgeted_->set_execution_threads(threads);
    // Runs every query; returns how many partitions the l_partkey
    // query spilled, or -1 when it failed.
    auto check = [&](int64_t budget) -> int64_t {
      budgeted_->set_memory_budget(budget);
      int64_t spilled = -1;
      for (size_t q = 0; q < queries.size(); ++q) {
        const std::string label =
            queries[q] + " P=" + std::to_string(partitions) +
            " T=" + std::to_string(threads) +
            " budget=" + std::to_string(budget);
        auto got = budgeted_->Execute(queries[q]);
        EXPECT_TRUE(got.ok()) << label << ": " << got.status().ToString();
        if (!got.ok()) continue;
        ExpectIdentical((*references_)[q], *got, label, true);
        if (budget == int64_t{1} << 30) {
          EXPECT_EQ(got->stats().spill_partitions, 0) << label;
        }
        if (q == kHighCardinality) spilled = got->stats().spill_partitions;
      }
      return spilled;
    };
    check(int64_t{1} << 30);
    bool some = false;
    int64_t spilled = 0;
    for (int64_t budget = peak_ * tenths / 10; budget > (16 << 10);
         budget = budget * 85 / 100) {
      spilled = check(budget);
      some |= spilled > 0 && spilled < all;
      if (spilled < 0 || spilled == all) break;
    }
    EXPECT_EQ(spilled, all) << "P=" << partitions << " T=" << threads
                            << ": no budget spilled every partition";
    EXPECT_EQ(some, partitions > 1)
        << "P=" << partitions << " T=" << threads;
  }
  budgeted_->set_memory_budget(0);
  budgeted_->set_spill_partitions(8);
  budgeted_->set_execution_threads(0);
}

// One instance per ladder, so ctest runs the three in parallel.
INSTANTIATE_TEST_SUITE_P(Ladders, SpillAggTest,
                         ::testing::Values(AggLadder{1, 3}, AggLadder{2, 3},
                                           AggLadder{8, 3}));

}  // namespace
}  // namespace agora
