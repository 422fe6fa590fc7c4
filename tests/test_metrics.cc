// Observability-layer tests (ctest -L metrics): MetricsRegistry snapshot
// round-trips, MetricSpan self-time accounting, thread-count invariance
// of exported counters, EXPLAIN ANALYZE profile output and its
// no-double-count guarantee, and the docs/METRICS.md drift check.

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "engine/database.h"
#include "tpch/tpch.h"

namespace agora {
namespace {

// ---------------------------------------------------------------------------
// MetricsRegistry

TEST(MetricsRegistry, CountersAndGaugesRoundTrip) {
  MetricsRegistry registry;
  registry.Add("rows_scanned_total", 100.0);
  registry.Add("rows_scanned_total", 23.0);
  registry.Add("operator_busy_seconds_total", "Scan", 0.5);
  registry.Add("operator_busy_seconds_total", "HashJoin", 0.25);
  registry.SetGauge("last_query_seconds", 0.125);
  registry.SetGauge("last_query_seconds", 0.5);  // last write wins

  EXPECT_DOUBLE_EQ(registry.CounterValue("rows_scanned_total"), 123.0);
  EXPECT_DOUBLE_EQ(
      registry.CounterValue("operator_busy_seconds_total", "Scan"), 0.5);
  EXPECT_DOUBLE_EQ(
      registry.CounterValue("operator_busy_seconds_total", "HashJoin"), 0.25);
  EXPECT_DOUBLE_EQ(registry.CounterValue("absent_total"), 0.0);
  EXPECT_DOUBLE_EQ(registry.GaugeValue("last_query_seconds"), 0.5);

  std::vector<std::string> names = registry.Names();
  EXPECT_NE(std::find(names.begin(), names.end(), "rows_scanned_total"),
            names.end());
  EXPECT_NE(
      std::find(names.begin(), names.end(), "operator_busy_seconds_total"),
      names.end());
  EXPECT_NE(std::find(names.begin(), names.end(), "last_query_seconds"),
            names.end());

  registry.Reset();
  EXPECT_DOUBLE_EQ(registry.CounterValue("rows_scanned_total"), 0.0);
  EXPECT_TRUE(registry.Names().empty());
}

TEST(MetricsRegistry, JsonSnapshotIsWellFormed) {
  MetricsRegistry registry;
  registry.Add("queries_total", 7.0);
  registry.Add("query_seconds_total", 1.5);
  registry.Add("operator_rows_total", "Scan", 4096.0);
  registry.SetGauge("execution_threads", 8.0);

  std::string json = registry.Snapshot(MetricsFormat::kJson);
  // Structural validity: balanced braces, no trailing comma artifacts.
  int depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') --depth;
    ASSERT_GE(depth, 0) << json;
  }
  EXPECT_EQ(depth, 0) << json;
  EXPECT_EQ(json.find(",\n  }"), std::string::npos) << json;
  EXPECT_EQ(json.find(", }"), std::string::npos) << json;
  // Exact value round-trip through the text.
  EXPECT_NE(json.find("\"queries_total\": 7"), std::string::npos) << json;
  EXPECT_NE(json.find("\"query_seconds_total\": 1.5"), std::string::npos)
      << json;
  EXPECT_NE(json.find("\"operator_rows_total\": {\"Scan\": 4096}"),
            std::string::npos)
      << json;
  EXPECT_NE(json.find("\"execution_threads\": 8"), std::string::npos) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\""), std::string::npos) << json;
}

TEST(MetricsRegistry, PrometheusSnapshotIsWellFormed) {
  MetricsRegistry registry;
  registry.Add("queries_total", 3.0);
  registry.Add("operator_busy_seconds_total", "Scan", 0.125);
  registry.SetGauge("last_query_rows", 42.0);

  std::string text = registry.Snapshot(MetricsFormat::kPrometheus);
  EXPECT_NE(text.find("# TYPE agora_queries_total counter"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("agora_queries_total 3"), std::string::npos) << text;
  EXPECT_NE(
      text.find("agora_operator_busy_seconds_total{op=\"Scan\"} 0.125"),
      std::string::npos)
      << text;
  EXPECT_NE(text.find("# TYPE agora_last_query_rows gauge"),
            std::string::npos)
      << text;
  EXPECT_NE(text.find("agora_last_query_rows 42"), std::string::npos) << text;

  // Every sample line: <name>[{op="..."}] <value> — name charset and a
  // parseable float value.
  std::istringstream lines(text);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#') continue;
    size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    std::string name = line.substr(0, space);
    ASSERT_EQ(name.rfind("agora_", 0), size_t{0}) << line;
    size_t err = 0;
    (void)std::stod(line.substr(space + 1), &err);
    EXPECT_EQ(space + 1 + err, line.size()) << line;
  }
}

// ---------------------------------------------------------------------------
// MetricSpan

void BusyWait(std::chrono::microseconds d) {
  auto until = std::chrono::steady_clock::now() + d;
  while (std::chrono::steady_clock::now() < until) {
  }
}

TEST(MetricSpan, NestedSpansRecordSelfTime) {
  std::vector<OpTiming> timings;
  MetricSpan* top = nullptr;
  {
    MetricSpan outer(&timings, &top, 0);
    outer.AddRows(10);
    {
      MetricSpan inner(&timings, &top, 1);
      inner.AddRows(4);
      BusyWait(std::chrono::microseconds(2000));
    }
    // Outer does almost nothing itself.
  }
  EXPECT_EQ(top, nullptr);  // stack fully unwound
  ASSERT_GE(timings.size(), size_t{2});
  EXPECT_EQ(timings[0].rows_out, 10);
  EXPECT_EQ(timings[0].invocations, 1);
  EXPECT_EQ(timings[1].rows_out, 4);
  EXPECT_EQ(timings[1].invocations, 1);
  // Inner did ~2ms of work; outer's SELF time excludes it entirely.
  EXPECT_GE(timings[1].busy_ns, int64_t{1'000'000});
  EXPECT_LT(timings[0].busy_ns, timings[1].busy_ns);
}

TEST(MetricSpan, DisabledSpanIsNoOp) {
  MetricSpan* top = nullptr;
  std::vector<OpTiming> timings;
  {
    MetricSpan disabled_by_id(&timings, &top, -1);
    MetricSpan disabled_by_vec(nullptr, &top, 0);
    disabled_by_id.AddRows(5);
  }
  EXPECT_TRUE(timings.empty());
  EXPECT_EQ(top, nullptr);
}

TEST(MetricSpan, AddChildTimeSubtractsExternalWork) {
  std::vector<OpTiming> timings;
  MetricSpan* top = nullptr;
  {
    MetricSpan span(&timings, &top, 0);
    BusyWait(std::chrono::microseconds(1000));
    // Pretend a parallel section did the last ~1ms on worker threads.
    span.AddChildTime(50'000'000);  // far more than elapsed: clamps to 0
  }
  ASSERT_EQ(timings.size(), size_t{1});
  EXPECT_EQ(timings[0].busy_ns, 0);
}

// ---------------------------------------------------------------------------
// Engine integration

class MetricsEngineTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Multi-threaded global pool even on single-core CI (must precede the
    // first lazy ThreadPool::Global() construction).
    setenv("AGORA_THREADS", "8", 0);
    db_ = new Database();
    TpchOptions options;
    options.scale_factor = 0.002;  // ~12k lineitems: above the morsel floor
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

Database* MetricsEngineTest::db_ = nullptr;

constexpr const char* kAggSql =
    "SELECT l_returnflag, COUNT(*) AS n, SUM(l_quantity) AS q "
    "FROM lineitem GROUP BY l_returnflag ORDER BY l_returnflag";

constexpr const char* kJoinSql =
    "SELECT o_orderpriority, COUNT(*) AS n FROM orders, lineitem "
    "WHERE l_orderkey = o_orderkey AND l_quantity < 10 "
    "GROUP BY o_orderpriority ORDER BY o_orderpriority";

TEST_F(MetricsEngineTest, QueryResultCarriesProfile) {
  QueryResult result = RunAt(0, kJoinSql);
  ASSERT_FALSE(result.profile().empty());
  // Pre-order: a root at depth 0, every child deeper than 0.
  EXPECT_EQ(result.profile()[0].depth, 0);
  int64_t total_busy = 0;
  bool saw_scan = false;
  for (const OperatorProfileNode& node : result.profile()) {
    EXPECT_GE(node.busy_ns, 0);
    EXPECT_GE(node.invocations, 0);
    total_busy += node.busy_ns;
    saw_scan = saw_scan || node.name == "Scan";
  }
  EXPECT_TRUE(saw_scan);
  EXPECT_GT(total_busy, 0);
}

/// The counters and the per-operator rows/invocations are part of the
/// deterministic execution contract: identical at every thread count
/// (only busy_ns, which is wall time, may move).
TEST_F(MetricsEngineTest, ProfileCountersThreadInvariant) {
  for (const char* sql : {kAggSql, kJoinSql}) {
    QueryResult at1 = RunAt(1, sql);
    QueryResult at8 = RunAt(8, sql);
    const ExecStats& a = at1.stats();
    const ExecStats& b = at8.stats();
    EXPECT_EQ(a.rows_scanned, b.rows_scanned) << sql;
    EXPECT_EQ(a.rows_joined, b.rows_joined) << sql;
    EXPECT_EQ(a.probe_calls, b.probe_calls) << sql;
    EXPECT_EQ(a.rows_aggregated, b.rows_aggregated) << sql;
    EXPECT_EQ(a.bytes_materialized, b.bytes_materialized) << sql;
    ASSERT_EQ(at1.profile().size(), at8.profile().size()) << sql;
    for (size_t i = 0; i < at1.profile().size(); ++i) {
      const OperatorProfileNode& n1 = at1.profile()[i];
      const OperatorProfileNode& n8 = at8.profile()[i];
      EXPECT_EQ(n1.name, n8.name) << sql;
      EXPECT_EQ(n1.depth, n8.depth) << sql;
      EXPECT_EQ(n1.rows_out, n8.rows_out) << sql << " op " << n1.name;
      EXPECT_EQ(n1.invocations, n8.invocations) << sql << " op " << n1.name;
    }
  }
}

TEST_F(MetricsEngineTest, ExplainAnalyzePrintsProfileTree) {
  QueryResult result = RunAt(0, std::string("EXPLAIN ANALYZE ") + kJoinSql);
  ASSERT_EQ(result.num_rows(), size_t{1});
  std::string text = result.Get(0, 0).ToString();
  EXPECT_NE(text.find("[analyze] rows="), std::string::npos) << text;
  EXPECT_NE(text.find("per-operator profile"), std::string::npos) << text;
  EXPECT_NE(text.find("%"), std::string::npos) << text;
  EXPECT_NE(text.find("HashJoin"), std::string::npos) << text;
  EXPECT_NE(text.find("calls="), std::string::npos) << text;
  EXPECT_NE(text.find("[analyze] totals: rows_scanned="), std::string::npos)
      << text;
}

/// Strips the timing columns ("  12.345 ms   67.8%") from an EXPLAIN
/// ANALYZE output, leaving only the deterministic parts.
std::string StripTimings(const std::string& text) {
  std::istringstream lines(text);
  std::string line, out;
  while (std::getline(lines, line)) {
    size_t ms = line.find(" ms ");
    size_t pct = line.find("%");
    if (ms != std::string::npos && pct != std::string::npos && ms < pct) {
      // "[analyze]   Name   0.123 ms   45.6%  rows=..." — cut the middle.
      size_t num_start = line.find_last_not_of("0123456789. ", ms);
      out += line.substr(0, num_start + 1) + line.substr(pct + 1);
    } else {
      out += line;
    }
    out += '\n';
  }
  return out;
}

/// Regression: every EXPLAIN ANALYZE executes in a fresh per-query
/// context, so running the same analysis back to back must report
/// identical counters (no accumulation), while the engine-wide registry
/// counters grow exactly linearly (recorded exactly once).
TEST_F(MetricsEngineTest, BackToBackExplainAnalyzeDoesNotDoubleCount) {
  const std::string sql = std::string("EXPLAIN ANALYZE ") + kAggSql;
  auto scanned = [] {
    return db_->metrics().CounterValue("rows_scanned_total");
  };
  const double scanned0 = scanned();
  QueryResult first = RunAt(0, sql);
  const double scanned1 = scanned();
  QueryResult second = RunAt(0, sql);
  const double scanned2 = scanned();

  const double delta1 = scanned1 - scanned0;
  const double delta2 = scanned2 - scanned1;
  EXPECT_GT(delta1, 0);
  EXPECT_EQ(delta1, delta2);  // recorded exactly once per run

  std::string text1 = StripTimings(first.Get(0, 0).ToString());
  std::string text2 = StripTimings(second.Get(0, 0).ToString());
  EXPECT_EQ(text1, text2);
}

/// Every row of the counter table is exported under its registry name,
/// and from an empty registry (as on a fresh Database) one query's
/// exported values equal that query's own QueryResult::stats().
TEST_F(MetricsEngineTest, SnapshotCoversAllCountersAndIsResettable) {
  db_->metrics().Reset();
  QueryResult result = RunAt(0, kJoinSql);
  const MetricsRegistry& metrics = db_->metrics();
  std::string json = db_->MetricsSnapshot(MetricsFormat::kJson);
  std::string prom = db_->MetricsSnapshot(MetricsFormat::kPrometheus);
  for (const ExecCounter& c : kExecCounters) {
    const double exported = c.merge == CounterMerge::kMax
                                ? metrics.GaugeValue(c.metric)
                                : metrics.CounterValue(c.metric);
    EXPECT_EQ(exported, static_cast<double>(result.stats().*c.member))
        << c.metric;
    EXPECT_NE(json.find(std::string("\"") + c.metric + "\""),
              std::string::npos)
        << "JSON missing " << c.metric;
    EXPECT_NE(prom.find(std::string("agora_") + c.metric), std::string::npos)
        << "Prometheus missing " << c.metric;
  }
  // The per-query series outside the table are registered too.
  for (const char* name :
       {"queries_total", "statements_total", "query_seconds_total",
        "joules_proxy_total", "operator_busy_seconds_total",
        "operator_rows_total", "operator_invocations_total"}) {
    EXPECT_NE(json.find(std::string("\"") + name + "\""), std::string::npos)
        << "JSON missing " << name;
    EXPECT_NE(prom.find(std::string("agora_") + name), std::string::npos)
        << "Prometheus missing " << name;
  }
  EXPECT_GT(result.stats().rows_scanned, 0);
  EXPECT_EQ(metrics.CounterValue("queries_total"), 1.0);
  EXPECT_EQ(metrics.CounterValue("statements_total"), 1.0);
  EXPECT_EQ(metrics.CounterValue("joules_proxy_total"),
            result.stats().JoulesProxy());
  EXPECT_GT(metrics.CounterValue("operator_rows_total", "Scan"), 0.0);

  db_->metrics().Reset();
  EXPECT_TRUE(metrics.Names().empty());
}

// ---------------------------------------------------------------------------
// Docs drift

/// Every metric name the engine registers must appear in docs/METRICS.md
/// (the metrics-doc-drift lint rule enforces the same from the sources).
TEST_F(MetricsEngineTest, DocsListEveryRegisteredMetricName) {
  RunAt(0, kJoinSql);
  std::ifstream docs(std::string(AGORA_SOURCE_DIR) + "/docs/METRICS.md");
  ASSERT_TRUE(docs.is_open()) << "docs/METRICS.md not found";
  std::stringstream buffer;
  buffer << docs.rdbuf();
  const std::string text = buffer.str();
  for (const std::string& name : db_->metrics().Names()) {
    EXPECT_NE(text.find(name), std::string::npos)
        << "metric '" << name << "' is not documented in docs/METRICS.md";
  }
}

}  // namespace
}  // namespace agora
