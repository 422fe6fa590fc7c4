// Inter-query concurrency tests (ctest -L concurrent): N threads of
// mixed SELECTs byte-compared against serial ground truth, SELECTs
// racing catalog DDL (DROP/CREATE TABLE, CREATE INDEX rebuilds),
// metrics-counter consistency under concurrent execution, embedded DML
// and SELECTs from many threads with no lock of the caller's own, and
// unit coverage of the engine's deadline-bounded reader/writer lock.
// The TSan tree race-checks this suite (ctest -L concurrent).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/mutex.h"
#include "engine/database.h"

namespace agora {
namespace {

// ---------------------------------------------------------------------------
// Fixture: one Database seeded with two joinable tables. All rows are
// derived from the row index, so ground truth is deterministic.

class ConcurrentQueryTest : public ::testing::Test {
 protected:
  void SetUp() override {
    db_ = std::make_unique<Database>();
    Run("CREATE TABLE points (id BIGINT, bucket BIGINT, weight DOUBLE, "
        "tag VARCHAR)");
    Run("CREATE TABLE buckets (id BIGINT, name VARCHAR)");
    for (int b = 0; b < 8; ++b) {
      Run("INSERT INTO buckets VALUES (" + std::to_string(b) + ", 'bucket-" +
          std::to_string(b) + "')");
    }
    // Batched inserts keep setup fast while producing a few thousand rows.
    for (int batch = 0; batch < 40; ++batch) {
      std::string sql = "INSERT INTO points VALUES ";
      for (int i = 0; i < 50; ++i) {
        int id = batch * 50 + i;
        if (i > 0) sql += ", ";
        sql += "(" + std::to_string(id) + ", " + std::to_string(id % 8) +
               ", " + std::to_string(id) + ".25, 'tag-" +
               std::to_string(id % 5) + "')";
      }
      Run(sql);
    }
  }

  QueryResult Run(const std::string& sql) {
    auto result = db_->Execute(sql);
    EXPECT_TRUE(result.ok()) << sql << ": " << result.status().ToString();
    return result.ok() ? std::move(result).value() : QueryResult();
  }

  // Renders every row (no truncation) so comparisons are byte-exact.
  std::string Render(const QueryResult& result) {
    return result.ToString(1 << 20);
  }

  std::unique_ptr<Database> db_;
};

// The core tentpole claim: N threads of mixed SELECTs produce exactly
// the bytes serial execution produces, query for query.
TEST_F(ConcurrentQueryTest, MixedSelectsMatchSerialGroundTruth) {
  const std::vector<std::string> queries = {
      "SELECT bucket, COUNT(*), SUM(weight) FROM points "
      "GROUP BY bucket ORDER BY bucket",
      "SELECT id, tag FROM points WHERE id >= 500 AND id < 560 ORDER BY id",
      "SELECT b.name, COUNT(*) FROM points p JOIN buckets b ON p.bucket = "
      "b.id GROUP BY b.name ORDER BY b.name",
      "SELECT COUNT(*) FROM points WHERE weight > 1000.0",
  };
  std::vector<std::string> expected;
  for (const std::string& q : queries) expected.push_back(Render(Run(q)));

  constexpr int kThreads = 8;
  constexpr int kIterations = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kIterations; ++i) {
        size_t pick = static_cast<size_t>(t + i) % queries.size();
        auto result = db_->Execute(queries[pick]);
        if (!result.ok() || Render(*result) != expected[pick]) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// A SELECT racing DROP TABLE + CREATE TABLE must either complete against
// the snapshot it bound (full count), see the recreated empty table
// (zero count), or fail cleanly with a binder/NotFound error. Anything
// else — a crash, a torn count, an internal error — is a bug.
TEST_F(ConcurrentQueryTest, SelectRacesDropAndRecreate) {
  Run("CREATE TABLE victim (v BIGINT)");
  std::string fill = "INSERT INTO victim VALUES (0)";
  for (int i = 1; i < 64; ++i) fill += ", (" + std::to_string(i) + ")";
  Run(fill);

  std::atomic<bool> stop{false};
  std::atomic<int> anomalies{0};
  std::thread ddl([&] {
    for (int i = 0; i < 60; ++i) {
      auto dropped = db_->Execute("DROP TABLE victim");
      EXPECT_TRUE(dropped.ok()) << dropped.status().ToString();
      auto created = db_->Execute("CREATE TABLE victim (v BIGINT)");
      EXPECT_TRUE(created.ok()) << created.status().ToString();
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto result = db_->Execute("SELECT COUNT(*) FROM victim");
        if (result.ok()) {
          int64_t count = result->Get(0, 0).int64_value();
          if (count != 0 && count != 64) {
            anomalies.fetch_add(1, std::memory_order_relaxed);
          }
        } else if (result.status().code() != StatusCode::kNotFound &&
                   result.status().code() != StatusCode::kBindError) {
          anomalies.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  ddl.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(anomalies.load(), 0);
}

// Point SELECTs (which may plan through the hash index) racing repeated
// CREATE INDEX rebuilds on the same column: every result must match
// ground truth exactly — readers probe either the old index snapshot,
// the new one, or none, and all three agree on a static table.
TEST_F(ConcurrentQueryTest, SelectRacesIndexRebuild) {
  const std::string query =
      "SELECT id, tag FROM points WHERE id = 1234 ORDER BY id";
  std::string expected = Render(Run(query));

  std::atomic<bool> stop{false};
  std::atomic<int> mismatches{0};
  std::thread builder([&] {
    for (int i = 0; i < 40; ++i) {
      auto built = db_->Execute("CREATE INDEX points_id ON points (id)");
      EXPECT_TRUE(built.ok()) << built.status().ToString();
      std::this_thread::yield();
    }
    stop.store(true, std::memory_order_release);
  });
  std::vector<std::thread> readers;
  for (int t = 0; t < 4; ++t) {
    readers.emplace_back([&] {
      while (!stop.load(std::memory_order_acquire)) {
        auto result = db_->Execute(query);
        if (!result.ok() || Render(*result) != expected) {
          mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  builder.join();
  for (auto& th : readers) th.join();
  EXPECT_EQ(mismatches.load(), 0);
}

// Engine-wide counters stay exact under concurrency: queries_total
// advances by exactly one per query, statements_total by one per
// statement, and rows_scanned_total by exactly the sum of the per-query
// stats the same executions reported.
TEST_F(ConcurrentQueryTest, MetricsCountersStayConsistent) {
  constexpr int kThreads = 6;
  constexpr int kPerThread = 10;
  const std::string query = "SELECT COUNT(*) FROM points WHERE id >= 0";

  const double queries_before = db_->metrics().CounterValue("queries_total");
  const double scanned_before =
      db_->metrics().CounterValue("rows_scanned_total");
  const double statements_before =
      db_->metrics().CounterValue("statements_total");

  std::atomic<int64_t> scanned_by_queries{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kPerThread; ++i) {
        auto result = db_->Execute(query);
        ASSERT_TRUE(result.ok()) << result.status().ToString();
        scanned_by_queries.fetch_add(result->stats().rows_scanned,
                                     std::memory_order_relaxed);
      }
    });
  }
  for (auto& th : threads) th.join();

  const double executed = kThreads * kPerThread;
  EXPECT_DOUBLE_EQ(db_->metrics().CounterValue("queries_total"),
                   queries_before + executed);
  EXPECT_DOUBLE_EQ(db_->metrics().CounterValue("statements_total"),
                   statements_before + executed);
  EXPECT_DOUBLE_EQ(db_->metrics().CounterValue("rows_scanned_total"),
                   scanned_before +
                       static_cast<double>(scanned_by_queries.load()));
}

// ---------------------------------------------------------------------------
// DeadlineSharedLock unit coverage.

TEST(DeadlineSharedLock, ReadersShareTheLock) {
  DeadlineSharedLock lock;
  lock.LockShared();
  // A second reader must get in while the first still holds.
  std::atomic<bool> second_in{false};
  std::thread reader([&] {
    lock.LockShared();
    second_in.store(true, std::memory_order_release);
    lock.UnlockShared();
  });
  reader.join();
  EXPECT_TRUE(second_in.load());
  lock.UnlockShared();
}

TEST(DeadlineSharedLock, WriterExcludedWhileReaderHolds) {
  DeadlineSharedLock lock;
  lock.LockShared();
  // The competing writer runs on its own thread (as in production), which
  // also keeps each thread's acquisitions balanced for the thread-safety
  // analysis.
  std::atomic<bool> writer_got_in{false};
  std::thread writer([&] {
    const bool ok = lock.TryLockUntil(std::chrono::steady_clock::now() +
                                      std::chrono::milliseconds(20));
    if (ok) {
      writer_got_in.store(true, std::memory_order_release);
      lock.Unlock();
    }
  });
  writer.join();
  EXPECT_FALSE(writer_got_in.load());
  lock.UnlockShared();
  // Free now: the exclusive side must succeed immediately.
  const bool acquired = lock.TryLockUntil(std::chrono::steady_clock::now() +
                                          std::chrono::milliseconds(20));
  EXPECT_TRUE(acquired);
  if (acquired) lock.Unlock();
}

TEST(DeadlineSharedLock, WaitingWriterBlocksNewReaders) {
  DeadlineSharedLock lock;
  lock.LockShared();
  std::thread writer([&] {
    // Blocks until the reader below releases.
    lock.Lock();
    lock.Unlock();
  });
  // Give the writer time to register its claim, then verify writer
  // preference: a new reader with a deadline times out behind it.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  std::atomic<bool> late_reader_got_in{false};
  std::thread late_reader([&] {
    const bool ok =
        lock.TryLockSharedUntil(std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(20));
    if (ok) {
      late_reader_got_in.store(true, std::memory_order_release);
      lock.UnlockShared();
    }
  });
  late_reader.join();
  EXPECT_FALSE(late_reader_got_in.load());
  lock.UnlockShared();
  writer.join();
  // With the writer gone, readers get in again.
  const bool acquired =
      lock.TryLockSharedUntil(std::chrono::steady_clock::now() +
                              std::chrono::milliseconds(20));
  EXPECT_TRUE(acquired);
  if (acquired) lock.UnlockShared();
}

TEST(DeadlineSharedLock, TimedOutWriterLeavesNoResidue) {
  DeadlineSharedLock lock;
  lock.LockShared();
  // Writer times out behind the reader...
  std::atomic<bool> writer_got_in{false};
  std::thread writer([&] {
    const bool ok = lock.TryLockUntil(std::chrono::steady_clock::now() +
                                      std::chrono::milliseconds(10));
    if (ok) {
      writer_got_in.store(true, std::memory_order_release);
      lock.Unlock();
    }
  });
  writer.join();
  EXPECT_FALSE(writer_got_in.load());
  // ...and must not leave a phantom waiting claim that blocks readers.
  std::atomic<bool> second_reader_got_in{false};
  std::thread second_reader([&] {
    const bool ok =
        lock.TryLockSharedUntil(std::chrono::steady_clock::now() +
                                std::chrono::milliseconds(20));
    if (ok) {
      second_reader_got_in.store(true, std::memory_order_release);
      lock.UnlockShared();
    }
  });
  second_reader.join();
  EXPECT_TRUE(second_reader_got_in.load());
  lock.UnlockShared();
}

// ---------------------------------------------------------------------------
// The engine lock inside Database::Execute.

// Four threads run two-row transfer UPDATEs, INSERTs, SUMs and point
// reads on one Database with no lock of their own. Each transfer is one
// statement, so every SUM a reader sees must equal the starting total;
// transfers only add deltas, so the final table must equal a serial
// replay of every thread's writes in any order.
TEST(EngineLock, DmlAndSelectsFromManyThreadsNeedNoCallerLock) {
  constexpr int kAccounts = 64;
  constexpr int kStartBalance = 1000;
  constexpr int kThreads = 4;
  constexpr int kOpsPerThread = 60;
  const std::string total = std::to_string(kAccounts * kStartBalance);

  auto seed = [&](Database* db) {
    ASSERT_TRUE(
        db->Execute("CREATE TABLE accounts (id BIGINT, balance BIGINT)").ok());
    std::string fill = "INSERT INTO accounts VALUES ";
    for (int i = 0; i < kAccounts; ++i) {
      if (i > 0) fill += ", ";
      fill += "(" + std::to_string(i) + ", " +
              std::to_string(kStartBalance) + ")";
    }
    ASSERT_TRUE(db->Execute(fill).ok());
  };
  Database db;
  seed(&db);

  // Every thread's write statements, fixed up front from its seed.
  std::vector<std::vector<std::string>> writes(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    std::mt19937 rng(static_cast<uint32_t>(t + 1));
    for (int i = 0; i < kOpsPerThread; ++i) {
      if (i % 5 == 4) {
        // New accounts open empty, so the total is unchanged.
        writes[t].push_back("INSERT INTO accounts VALUES (" +
                            std::to_string(1000 + t * kOpsPerThread + i) +
                            ", 0)");
        continue;
      }
      const int from = static_cast<int>(rng() % kAccounts);
      const int to = (from + 1 + static_cast<int>(rng() % (kAccounts - 1))) %
                     kAccounts;
      const std::string amount = std::to_string(1 + rng() % 50);
      writes[t].push_back(
          "UPDATE accounts SET balance = balance + CASE WHEN id = " +
          std::to_string(from) + " THEN -" + amount + " ELSE " + amount +
          " END WHERE id IN (" + std::to_string(from) + ", " +
          std::to_string(to) + ")");
    }
  }

  std::atomic<int> failures{0};
  std::atomic<int> bad_sums{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kOpsPerThread; ++i) {
        if (!db.Execute(writes[t][i]).ok()) failures.fetch_add(1);
        auto sum = db.Execute("SELECT SUM(balance) FROM accounts");
        if (!sum.ok()) {
          failures.fetch_add(1);
        } else if (sum->Get(0, 0).ToString() != total) {
          bad_sums.fetch_add(1);
        }
        auto point = db.Execute("SELECT balance FROM accounts WHERE id = " +
                                std::to_string((t * 17 + i) % kAccounts));
        if (!point.ok() || point->num_rows() != 1) failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(bad_sums.load(), 0);

  Database serial;
  seed(&serial);
  for (const auto& thread_writes : writes) {
    for (const std::string& sql : thread_writes) {
      ASSERT_TRUE(serial.Execute(sql).ok()) << sql;
    }
  }
  const std::string final_rows = "SELECT id, balance FROM accounts ORDER BY id";
  auto got = db.Execute(final_rows);
  auto want = serial.Execute(final_rows);
  ASSERT_TRUE(got.ok() && want.ok());
  EXPECT_EQ(got->num_rows(), static_cast<size_t>(kAccounts) +
                                 kThreads * (kOpsPerThread / 5));
  EXPECT_EQ(got->ToString(1 << 20), want->ToString(1 << 20));
}

// The parsed statement, not its leading keyword, picks the side of the
// engine lock: EXPLAIN wrapping anything but a SELECT is not a read,
// and it must fail without executing the wrapped statement (an
// "explained" INSERT must never mutate storage).
TEST(EngineLock, ExplainNonSelectIsRejectedWithoutExecuting) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (a BIGINT)").ok());
  for (const std::string& sql :
       {std::string("EXPLAIN INSERT INTO t VALUES (1)"),
        std::string("EXPLAIN ANALYZE DELETE FROM t"),
        std::string("EXPLAIN DROP TABLE t")}) {
    auto result = db.Execute(sql);
    ASSERT_FALSE(result.ok()) << sql;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument) << sql;
  }
  // Nothing was inserted and the table still exists.
  auto count = db.Execute("SELECT COUNT(*) FROM t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(count.value().Get(0, 0).ToString(), "0");
}

}  // namespace
}  // namespace agora
