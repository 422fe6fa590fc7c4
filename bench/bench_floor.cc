// Floor — the per-row cost of the simplest statements, embedded, on one
// thread. A vectorized engine should spend close to memory speed on a
// count, a sum, a selective scan or a small-domain GROUP BY; this binary
// measures how close AgoraDB gets.
//
// The tables have the shape of perfbench's mixed_rw workload: 200 k
// accounts over 16 branches and 800 k events over four kinds, with
// uniformly random account ids (so zone maps prune nothing). TPC-H Q6
// and Q14 at SF 0.05 ride along as the two scan-dominated TPC-H queries.
// join_filter joins events to the accounts of one branch, so the events
// scan carries the join's pushed key filter from a selective build side.
// kind_eq and kind_in count events by their dictionary-encoded kind,
// tested once per dictionary entry and then per row by code.
//
// For each statement the binary prints and writes to BENCH_floor.json
// the median latency, ns per base-table row and the scan-side counters
// (chunks_emitted, blocks_read, hash_table_lookups, the join filter's
// kind and drops); see docs/BENCH_SCHEMA.md. --smoke shrinks the tables and the repetitions
// to a CI-sized check that the binary runs and its answers are right.
// Either way it exits 1 when a statement without a WHERE clause
// materializes more than its result rows account for: such a scan emits
// views of the table and copies nothing.

#include "bench/bench_common.h"

#include <algorithm>
#include <iterator>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.h"

#ifndef AGORA_BUILD_TYPE
#define AGORA_BUILD_TYPE "unknown"
#endif

namespace agora {
namespace {

using bench::MustExecute;

constexpr int64_t kBranches = 16;
constexpr int64_t kJoinBranch = 3;  // the accounts join_filter keeps
constexpr const char* kKinds[] = {"deposit", "withdrawal", "fee",
                                  "interest"};

/// The mixed_rw-shaped tables and the totals their answers are checked
/// against. point_eq selects the events of account `range_lo`;
/// event_totals those of accounts [range_lo, range_hi], per kind;
/// join_filter those of the accounts in branch kJoinBranch; kind_eq and
/// kind_in count events per kind (kind_rows).
struct FloorData {
  Database db;
  int64_t accounts = 0;
  int64_t events = 0;
  int64_t amount_sum = 0;
  int64_t range_lo = 0;
  int64_t range_hi = 0;
  int64_t point_rows = 0;
  int64_t point_amount = 0;
  int64_t range_rows[std::size(kKinds)] = {};
  int64_t range_amount[std::size(kKinds)] = {};
  int64_t join_rows = 0;
  int64_t join_amount = 0;
  int64_t kind_rows[std::size(kKinds)] = {};
};

Status LoadFloorData(int64_t accounts, int64_t events, FloorData* data) {
  data->range_lo = accounts / 2;
  data->range_hi = accounts / 2 + 999;
  Database* db = &data->db;
  AGORA_RETURN_IF_ERROR(
      db->Execute("CREATE TABLE accounts (id BIGINT, owner VARCHAR, "
                  "branch BIGINT, balance BIGINT)")
          .status());
  AGORA_RETURN_IF_ERROR(
      db->Execute("CREATE TABLE events (id BIGINT, account BIGINT, "
                  "kind VARCHAR, amount BIGINT)")
          .status());
  AGORA_ASSIGN_OR_RETURN(auto account_table,
                         db->catalog().GetTable("accounts"));
  AGORA_ASSIGN_OR_RETURN(auto event_table, db->catalog().GetTable("events"));
  Rng rng(1);
  std::vector<int64_t> branch_of(accounts + 1);
  for (int64_t id = 1; id <= accounts; ++id) {
    const int64_t balance = rng.Uniform(1000, 10000);
    branch_of[id] = rng.Uniform(0, kBranches - 1);
    AGORA_RETURN_IF_ERROR(account_table->AppendRow(
        {Value::Int64(id), Value::String("owner#" + std::to_string(id)),
         Value::Int64(branch_of[id]), Value::Int64(balance)}));
  }
  for (int64_t id = 1; id <= events; ++id) {
    const int64_t amount = rng.Uniform(1, 1000);
    const int64_t account = rng.Uniform(1, accounts);
    const int64_t kind = rng.Uniform(0, 3);
    data->amount_sum += amount;
    data->kind_rows[kind]++;
    if (account == data->range_lo) {
      data->point_rows++;
      data->point_amount += amount;
    }
    if (account >= data->range_lo && account <= data->range_hi) {
      data->range_rows[kind]++;
      data->range_amount[kind] += amount;
    }
    if (branch_of[account] == kJoinBranch) {
      data->join_rows++;
      data->join_amount += amount;
    }
    AGORA_RETURN_IF_ERROR(event_table->AppendRow(
        {Value::Int64(id), Value::Int64(account),
         Value::String(kKinds[kind]), Value::Int64(amount)}));
  }
  data->accounts = accounts;
  data->events = events;
  return Status::OK();
}

struct FloorQuery {
  std::string name;
  std::string sql;
  Database* db;
  int64_t base_rows;  // rows of the table the statement scans
};

/// True when `q` has no WHERE clause: every block passes whole, so its
/// scan emits views of the table and materializes nothing.
bool PredicateFree(const FloorQuery& q) {
  return q.sql.find(" WHERE ") == std::string::npos;
}

/// Above a predicate-free scan only three operators copy rows into
/// bytes_materialized: the aggregate's output, a projection and a sort,
/// each once over the result. Measured: count, sum, group_kind and
/// group_mod50 materialize 2 result copies, branch_totals (ORDER BY) 3;
/// a scan that copies its blocks gives thousands (COUNT: 720,018 bytes
/// for a 9-byte result).
constexpr int64_t kMaxResultCopies = 3;

struct FloorResult {
  double median_ms = 0;
  double min_ms = 0;
  double ns_per_row = 0;
  int64_t result_rows = 0;
  int64_t chunks_emitted = 0;
  int64_t blocks_read = 0;
  int64_t hash_table_lookups = 0;
  int64_t bytes_materialized = 0;
  int64_t result_bytes = 0;
  int64_t join_filters_exact = 0;
  int64_t bloom_filtered_rows = 0;
};

FloorResult Measure(const FloorQuery& q, int reps) {
  QueryResult warm = MustExecute(q.db, q.sql);  // also the counters
  FloorResult r;
  r.result_rows = static_cast<int64_t>(warm.num_rows());
  r.chunks_emitted = warm.stats().chunks_emitted;
  r.blocks_read = warm.stats().blocks_read;
  r.hash_table_lookups = warm.stats().hash_table_lookups;
  r.bytes_materialized = warm.stats().bytes_materialized;
  r.result_bytes = static_cast<int64_t>(warm.data().MemoryBytes());
  r.join_filters_exact = warm.stats().join_filters_exact;
  r.bloom_filtered_rows = warm.stats().bloom_filtered_rows;
  std::vector<double> samples;
  for (int i = 0; i < reps; ++i) {
    Timer timer;
    QueryResult result = MustExecute(q.db, q.sql);
    samples.push_back(timer.ElapsedSeconds() * 1000.0);
  }
  std::sort(samples.begin(), samples.end());
  r.median_ms = samples[samples.size() / 2];
  r.min_ms = samples.front();
  r.ns_per_row = r.median_ms * 1e6 / static_cast<double>(q.base_rows);
  return r;
}

/// Aborts the run when a checked answer is wrong.
void Expect(bool ok, const std::string& what) {
  if (ok) return;
  std::printf("[floor] FAILURE: %s\n", what.c_str());
  std::exit(1);
}

/// kind_eq and kind_in: events of one kind, and of two.
constexpr const char* kKindEqSql =
    "SELECT COUNT(*) FROM events WHERE kind = 'fee'";
constexpr const char* kKindInSql =
    "SELECT COUNT(*) FROM events WHERE kind IN ('fee', 'interest')";

/// Events of the accounts in branch kJoinBranch: the accounts scan keeps
/// one branch in 16, so the join pushes its key filter into the events
/// scan.
std::string JoinFilterSql() {
  return "SELECT COUNT(*), SUM(e.amount) FROM events e JOIN accounts a "
         "ON e.account = a.id WHERE a.branch = " +
         std::to_string(kJoinBranch);
}

void CheckAnswers(FloorData* data) {
  Database* db = &data->db;
  QueryResult count = MustExecute(db, "SELECT COUNT(*) FROM events");
  Expect(count.num_rows() == 1 &&
             count.data().column(0).GetInt64(0) == data->events,
         "COUNT(*) over events");
  QueryResult sum = MustExecute(db, "SELECT SUM(amount) FROM events");
  Expect(sum.num_rows() == 1 &&
             sum.data().column(0).GetInt64(0) == data->amount_sum,
         "SUM(amount) over events");
  QueryResult branches = MustExecute(
      db, "SELECT branch, COUNT(*) FROM accounts GROUP BY branch");
  int64_t accounts = 0;
  for (size_t r = 0; r < branches.num_rows(); ++r) {
    accounts += branches.data().column(1).GetInt64(r);
  }
  Expect(branches.num_rows() <= static_cast<size_t>(kBranches) &&
             accounts == data->accounts,
         "accounts over all branches");
  QueryResult buckets = MustExecute(
      db, "SELECT account % 50, COUNT(*) FROM events GROUP BY account % 50");
  int64_t events = 0;
  for (size_t r = 0; r < buckets.num_rows(); ++r) {
    events += buckets.data().column(1).GetInt64(r);
  }
  Expect(buckets.num_rows() == 50 && events == data->events,
         "events over all account % 50 buckets");

  // The selective scans, whose leading range takes the one-pass kernel.
  const std::string lo = std::to_string(data->range_lo);
  const std::string hi = std::to_string(data->range_hi);
  QueryResult point =
      MustExecute(db, "SELECT id, amount FROM events WHERE account = " + lo);
  int64_t point_amount = 0;
  for (size_t r = 0; r < point.num_rows(); ++r) {
    point_amount += point.data().column(1).GetInt64(r);
  }
  Expect(static_cast<int64_t>(point.num_rows()) == data->point_rows &&
             point_amount == data->point_amount,
         "events of account " + lo);
  QueryResult kinds = MustExecute(
      db, "SELECT kind, COUNT(*), SUM(amount) FROM events WHERE account "
          "BETWEEN " + lo + " AND " + hi + " GROUP BY kind");
  int64_t kinds_seen = 0;
  for (size_t k = 0; k < std::size(kKinds); ++k) {
    kinds_seen += data->range_rows[k] > 0 ? 1 : 0;
  }
  Expect(static_cast<int64_t>(kinds.num_rows()) == kinds_seen,
         "kinds of the events of accounts " + lo + ".." + hi);
  for (size_t r = 0; r < kinds.num_rows(); ++r) {
    const std::string kind = kinds.data().column(0).GetString(r);
    size_t k = 0;
    while (k < std::size(kKinds) && kind != kKinds[k]) ++k;
    Expect(k < std::size(kKinds) &&
               kinds.data().column(1).GetInt64(r) == data->range_rows[k] &&
               kinds.data().column(2).GetInt64(r) == data->range_amount[k],
           "totals of " + kind + " events of accounts " + lo + ".." + hi);
  }

  // The string conjuncts over the encoded kind (kKinds[2] is 'fee',
  // kKinds[3] 'interest').
  QueryResult fees = MustExecute(db, kKindEqSql);
  Expect(fees.num_rows() == 1 &&
             fees.data().column(0).GetInt64(0) == data->kind_rows[2],
         "events of kind 'fee'");
  QueryResult fees_interest = MustExecute(db, kKindInSql);
  Expect(fees_interest.num_rows() == 1 &&
             fees_interest.data().column(0).GetInt64(0) ==
                 data->kind_rows[2] + data->kind_rows[3],
         "events of kind 'fee' or 'interest'");

  // The join whose key filter the events scan applies.
  QueryResult joined = MustExecute(db, JoinFilterSql());
  Expect(joined.num_rows() == 1 &&
             joined.data().column(0).GetInt64(0) == data->join_rows &&
             joined.data().column(1).GetInt64(0) == data->join_amount,
         "events of the accounts of branch " + std::to_string(kJoinBranch));
}

/// TPC-H Q6 and Q14 must return what the general comparison kernel
/// returns: the same statements with the l_shipdate range written under
/// NOT, so nothing folds into the one-pass range. Same rows in the same
/// order, so the sums agree to the bit.
void CheckTpchAnswers(Database* tpch) {
  const std::pair<std::string, std::string> cases[] = {
      {TpchQ6(),
       "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem "
       "WHERE l_discount BETWEEN 0.05 AND 0.07 "
       "AND NOT (l_shipdate < DATE '1994-01-01') "
       "AND NOT (l_shipdate >= DATE '1995-01-01') AND l_quantity < 24"},
      {TpchQ14(),
       "SELECT 100.00 * SUM(CASE WHEN p_type LIKE 'PROMO%' "
       "THEN l_extendedprice * (1 - l_discount) ELSE 0.0 END) "
       "/ SUM(l_extendedprice * (1 - l_discount)) AS promo_revenue "
       "FROM lineitem, part WHERE l_partkey = p_partkey "
       "AND NOT (l_shipdate < DATE '1995-09-01') "
       "AND NOT (l_shipdate >= DATE '1995-10-01')"}};
  const char* names[] = {"TPC-H Q6", "TPC-H Q14"};
  for (size_t q = 0; q < std::size(cases); ++q) {
    QueryResult got = MustExecute(tpch, cases[q].first);
    QueryResult want = MustExecute(tpch, cases[q].second);
    Expect(got.num_rows() == 1 && want.num_rows() == 1 &&
               !want.Get(0, 0).is_null() &&
               got.Get(0, 0).Compare(want.Get(0, 0)) == 0,
           std::string(names[q]) + " against the general kernel");
  }
}

}  // namespace
}  // namespace agora

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      std::printf("usage: %s [--smoke]\n", argv[0]);
      return 2;
    }
  }
  const int64_t accounts = smoke ? 20000 : 200000;
  const int64_t events = smoke ? 80000 : 800000;
  const double sf = smoke ? 0.01 : 0.05;
  const int reps = smoke ? 3 : 21;

  agora::bench::PrintClaim(
      "Floor: per-row cost of scans, counts and small groups",
      "one node is enough for 'small data' (panel §3.3.1) only if the "
      "engine's cost per row is near memory speed",
      "ns per row close to the cost of reading the columns once; a "
      "selective scan emits about one chunk per kChunkSize survivors");

  agora::FloorData data;
  agora::Status loaded = agora::LoadFloorData(accounts, events, &data);
  AGORA_CHECK(loaded.ok()) << loaded.ToString();
  data.db.set_execution_threads(1);
  agora::CheckAnswers(&data);
  agora::Database* tpch = agora::bench::GetTpchDatabase(sf);
  tpch->set_execution_threads(1);
  agora::CheckTpchAnswers(tpch);
  auto lineitem = tpch->catalog().GetTable("lineitem");
  AGORA_CHECK(lineitem.ok()) << lineitem.status().ToString();
  const auto lineitem_rows = static_cast<int64_t>((*lineitem)->num_rows());

  const std::string lo = std::to_string(data.range_lo);
  const std::string hi = std::to_string(data.range_hi);
  const std::vector<agora::FloorQuery> queries = {
      {"count", "SELECT COUNT(*) FROM events", &data.db, events},
      {"sum", "SELECT SUM(amount) FROM events", &data.db, events},
      {"point_eq", "SELECT id, amount FROM events WHERE account = " + lo,
       &data.db, events},
      {"event_totals",
       "SELECT kind, COUNT(*) AS n, SUM(amount) AS total FROM events WHERE "
       "account BETWEEN " + lo + " AND " + hi +
           " GROUP BY kind ORDER BY kind",
       &data.db, events},
      {"group_kind",
       "SELECT kind, COUNT(*) AS n, SUM(amount) AS total FROM events "
       "GROUP BY kind",
       &data.db, events},
      {"branch_totals",
       "SELECT branch, COUNT(*) AS n, SUM(balance) AS total FROM accounts "
       "GROUP BY branch ORDER BY branch",
       &data.db, accounts},
      {"group_mod50",
       "SELECT account % 50 AS g, COUNT(*) AS n, SUM(amount) AS total "
       "FROM events GROUP BY account % 50",
       &data.db, events},
      {"join_filter", agora::JoinFilterSql(), &data.db, events},
      {"kind_eq", agora::kKindEqSql, &data.db, events},
      {"kind_in", agora::kKindInSql, &data.db, events},
      {"tpch_q6", agora::TpchQ6(), tpch, lineitem_rows},
      {"tpch_q14", agora::TpchQ14(), tpch, lineitem_rows},
  };

  const char* path = "BENCH_floor.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::printf("[floor] cannot open %s for writing\n", path);
    return 1;
  }
  std::fprintf(out, "{\n  \"experiment\": \"floor\",\n");
  std::fprintf(out, "  \"hardware_threads\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"build_type\": \"%s\",\n", AGORA_BUILD_TYPE);
  std::fprintf(out, "  \"execution_threads\": 1,\n");
  std::fprintf(out, "  \"smoke\": %s,\n", smoke ? "true" : "false");
  std::fprintf(out, "  \"accounts\": %lld,\n  \"events\": %lld,\n",
               static_cast<long long>(accounts),
               static_cast<long long>(events));
  std::fprintf(out, "  \"tpch_sf\": %g,\n  \"repetitions\": %d,\n", sf,
               reps);
  std::fprintf(out, "  \"results\": [\n");
  bool materialized_ok = true;
  for (size_t i = 0; i < queries.size(); ++i) {
    const agora::FloorQuery& q = queries[i];
    const agora::FloorResult r = agora::Measure(q, reps);
    if (agora::PredicateFree(q) &&
        r.bytes_materialized > agora::kMaxResultCopies * r.result_bytes) {
      std::printf(
          "[floor] FAILURE: %s materialized %lld bytes, more than %lld "
          "copies of its %lld result bytes\n",
          q.name.c_str(), static_cast<long long>(r.bytes_materialized),
          static_cast<long long>(agora::kMaxResultCopies),
          static_cast<long long>(r.result_bytes));
      materialized_ok = false;
    }
    std::printf(
        "[floor] %-14s %8.3f ms  %6.2f ns/row  rows=%lld chunks=%lld "
        "blocks=%lld lookups=%lld exact_filters=%lld filtered=%lld "
        "materialized=%lld result_bytes=%lld\n",
        q.name.c_str(), r.median_ms, r.ns_per_row,
        static_cast<long long>(r.result_rows),
        static_cast<long long>(r.chunks_emitted),
        static_cast<long long>(r.blocks_read),
        static_cast<long long>(r.hash_table_lookups),
        static_cast<long long>(r.join_filters_exact),
        static_cast<long long>(r.bloom_filtered_rows),
        static_cast<long long>(r.bytes_materialized),
        static_cast<long long>(r.result_bytes));
    std::fprintf(
        out,
        "    {\"query\": \"%s\", \"base_rows\": %lld, \"median_ms\": %.4f, "
        "\"min_ms\": %.4f, \"ns_per_row\": %.3f, \"result_rows\": %lld, "
        "\"chunks_emitted\": %lld, \"blocks_read\": %lld, "
        "\"hash_table_lookups\": %lld, \"bytes_materialized\": %lld, "
        "\"join_filters_exact\": %lld, \"bloom_filtered_rows\": %lld}%s\n",
        q.name.c_str(), static_cast<long long>(q.base_rows), r.median_ms,
        r.min_ms, r.ns_per_row, static_cast<long long>(r.result_rows),
        static_cast<long long>(r.chunks_emitted),
        static_cast<long long>(r.blocks_read),
        static_cast<long long>(r.hash_table_lookups),
        static_cast<long long>(r.bytes_materialized),
        static_cast<long long>(r.join_filters_exact),
        static_cast<long long>(r.bloom_filtered_rows),
        i + 1 < queries.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("[floor] written to %s%s\n", path,
              smoke ? " (smoke run complete)" : "");
  return materialized_ok ? 0 : 1;
}
