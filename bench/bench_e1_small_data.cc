// E1 — "small data is enough": a single core runs TPC-H-class analytics
// comfortably; latency scales ~linearly with scale factor.
//
// Paper quote (SIGMOD'25 panel, §3.3.1): "a MacBook can comfortably run
// TPC-H scale factor 1000: 'small data' is enough for most applications".
//
// We sweep the scale factor and run Q1/Q3/Q5/Q6 on one core, then print a
// per-query rows/sec figure and the implied single-core time at SF 1000.
// A second dimension sweeps the morsel-execution worker count (--threads,
// default 1,2,4,8) and lands the scaling curve in BENCH_e1.json; results
// are byte-identical at every thread count, only latency moves.

#include "bench/bench_common.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "common/thread_pool.h"

namespace agora {
namespace {

using bench::GetTpchDatabase;
using bench::MustExecute;

// Engine-wide memory budget for the measured databases (bytes; 0 =
// unlimited). Set by --mem-budget=; under a budget the blocking
// operators run the spill-capable path, so the sweep measures the cost
// of governed execution at identical results.
int64_t g_mem_budget = 0;

/// Parses "64m"-style byte sizes (optional k/m/g suffix, powers of 1024).
int64_t ParseByteSize(const char* text) {
  char* end = nullptr;
  long long value = std::strtoll(text, &end, 10);
  if (end == text || value < 0) return 0;
  int64_t scale = 1;
  if (*end == 'k' || *end == 'K') scale = int64_t{1} << 10;
  if (*end == 'm' || *end == 'M') scale = int64_t{1} << 20;
  if (*end == 'g' || *end == 'G') scale = int64_t{1} << 30;
  return static_cast<int64_t>(value) * scale;
}

const char* QueryName(int q) {
  switch (q) {
    case 1:
      return "Q1";
    case 3:
      return "Q3";
    case 5:
      return "Q5";
    case 6:
      return "Q6";
    case 10:
      return "Q10";
    case 12:
      return "Q12";
    default:
      return "Q14";
  }
}

std::string QuerySql(int q) {
  switch (q) {
    case 1:
      return TpchQ1();
    case 3:
      return TpchQ3();
    case 5:
      return TpchQ5();
    case 6:
      return TpchQ6();
    case 10:
      return TpchQ10();
    case 12:
      return TpchQ12();
    default:
      return TpchQ14();
  }
}

// Args: {query number, scale factor * 1000, worker threads}.
void BM_TpchQuery(benchmark::State& state) {
  int query = static_cast<int>(state.range(0));
  double sf = static_cast<double>(state.range(1)) / 1000.0;
  int threads = static_cast<int>(state.range(2));
  Database* db = GetTpchDatabase(sf);
  db->set_memory_budget(g_mem_budget);
  db->set_execution_threads(threads);
  auto lineitem = db->catalog().GetTable("lineitem");
  int64_t lineitem_rows =
      lineitem.ok() ? static_cast<int64_t>((*lineitem)->num_rows()) : 0;

  std::string sql = QuerySql(query);
  int64_t result_rows = 0;
  for (auto _ : state) {
    QueryResult result = MustExecute(db, sql);
    result_rows = static_cast<int64_t>(result.num_rows());
    benchmark::DoNotOptimize(result_rows);
  }
  db->set_execution_threads(0);
  state.counters["sf"] = sf;
  state.counters["threads"] = static_cast<double>(threads);
  state.counters["lineitem_rows"] = static_cast<double>(lineitem_rows);
  state.counters["result_rows"] = static_cast<double>(result_rows);
  // Lineitems processed per second at this scale (headline metric);
  // scaled by iterations so the rate is per-iteration-correct.
  state.counters["Mrows_per_s"] = benchmark::Counter(
      static_cast<double>(lineitem_rows) *
          static_cast<double>(state.iterations()) / 1e6,
      benchmark::Counter::kIsRate);
  state.SetLabel(std::string(QueryName(query)) + "/t" +
                 std::to_string(threads));
}

BENCHMARK(BM_TpchQuery)
    ->ArgsProduct({{1, 3, 5, 6, 10, 12, 14}, {10, 20, 50, 100}, {1, 4}})
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);

/// Median-of-k wall-clock latency for one query at one worker count.
double MeasureLatencyMs(Database* db, const std::string& sql, int threads) {
  db->set_execution_threads(threads);
  MustExecute(db, sql);  // warm-up (tables cached, pool spun up)
  std::vector<double> samples;
  for (int i = 0; i < 5; ++i) {
    Timer timer;
    MustExecute(db, sql);
    samples.push_back(timer.ElapsedSeconds() * 1000.0);
  }
  db->set_execution_threads(0);
  std::sort(samples.begin(), samples.end());
  return samples[samples.size() / 2];
}

/// Hash-kernel and expression-engine health figures for one query, from
/// an instrumented run (see docs/BENCH_SCHEMA.md for the exact
/// definitions).
struct HashKernelStats {
  double ht_load_factor = 0.0;       // entries / slots
  double ht_probes_per_lookup = 0.0; // probe_steps / lookups
  double bloom_hit_rate = 0.0;       // filtered / checked
  int64_t expr_rows_evaluated = 0;   // rows through non-leaf expr kernels
  int64_t mem_bytes_reserved_peak = 0;  // query tracker high-water mark
  int64_t spill_partitions = 0;         // partitions parked on disk
  int64_t spill_bytes_written = 0;      // spill volume (write side)
  int64_t bytes_materialized = 0;       // bytes of chunks operators built
};

HashKernelStats CollectHashStats(Database* db, const std::string& sql,
                                 int threads) {
  db->set_execution_threads(threads);
  QueryResult result = MustExecute(db, sql);
  db->set_execution_threads(0);
  const ExecStats& s = result.stats();
  HashKernelStats h;
  h.expr_rows_evaluated = s.expr_rows_evaluated;
  h.mem_bytes_reserved_peak = s.mem_bytes_reserved_peak;
  h.spill_partitions = s.spill_partitions;
  h.spill_bytes_written = s.spill_bytes_written;
  h.bytes_materialized = s.bytes_materialized;
  if (s.hash_table_slots > 0) {
    h.ht_load_factor = static_cast<double>(s.hash_table_entries) /
                       static_cast<double>(s.hash_table_slots);
  }
  if (s.hash_table_lookups > 0) {
    h.ht_probes_per_lookup = static_cast<double>(s.hash_table_probe_steps) /
                             static_cast<double>(s.hash_table_lookups);
  }
  if (s.bloom_checked_rows > 0) {
    h.bloom_hit_rate = static_cast<double>(s.bloom_filtered_rows) /
                       static_cast<double>(s.bloom_checked_rows);
  }
  return h;
}

/// Median wall time, in ms, of three GenerateTpch runs at `sf`, each
/// into a fresh database (the load, not the cached sweep database).
double GenerateMs(double sf) {
  std::vector<double> ms;
  for (int i = 0; i < 3; ++i) {
    Database db;
    TpchOptions options;
    options.scale_factor = sf;
    Timer timer;
    Status s = GenerateTpch(options, &db.catalog());
    ms.push_back(timer.ElapsedSeconds() * 1000.0);
    AGORA_CHECK(s.ok()) << s.ToString();
  }
  std::sort(ms.begin(), ms.end());
  return ms[1];
}

/// Runs the query × scale × thread sweep and writes BENCH_e1.json.
void WriteScalingJson(const std::vector<int>& thread_counts,
                      const std::vector<double>& scales,
                      const std::vector<int>& queries) {
  const char* path = "BENCH_e1.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::printf("[E1] cannot open %s for writing; skipping JSON\n", path);
    return;
  }

  std::fprintf(out, "{\n  \"experiment\": \"e1_small_data\",\n");
  std::fprintf(out, "  \"pool_threads\": %zu,\n",
               ThreadPool::Global()->size());
  std::fprintf(out, "  \"mem_budget_bytes\": %lld,\n",
               static_cast<long long>(g_mem_budget));
  std::fprintf(out, "  \"generation\": [");
  for (size_t i = 0; i < scales.size(); ++i) {
    const double ms = GenerateMs(scales[i]);
    std::printf("[E1] generate SF %g: %.1f ms (median of 3)\n", scales[i], ms);
    std::fprintf(out, "%s{\"scale_factor\": %g, \"generate_ms\": %.1f}",
                 i == 0 ? "" : ", ", scales[i], ms);
  }
  std::fprintf(out, "],\n");
  std::fprintf(out, "  \"results\": [\n");
  bool first = true;
  for (double sf : scales) {
    Database* db = GetTpchDatabase(sf);
    db->set_memory_budget(g_mem_budget);
    for (int q : queries) {
      std::string sql = QuerySql(q);
      double base_ms = 0.0;
      for (int threads : thread_counts) {
        double ms = MeasureLatencyMs(db, sql, threads);
        if (threads == thread_counts.front()) base_ms = ms;
        HashKernelStats hs = CollectHashStats(db, sql, threads);
        // Expression throughput: kernel-rows per wall second. Counts
        // every row flowing through a non-leaf expression kernel, so a
        // selective fused filter (fewer kernel rows per scanned row)
        // and a faster engine both move it.
        double expr_mrows_per_s =
            ms > 0.0 ? static_cast<double>(hs.expr_rows_evaluated) /
                           (ms / 1000.0) / 1e6
                     : 0.0;
        if (threads == thread_counts.front()) {
          std::printf("[E1] expr throughput %s SF %g: %lld kernel rows, "
                      "%.1f Mrows/s\n",
                      QueryName(q), sf,
                      static_cast<long long>(hs.expr_rows_evaluated),
                      expr_mrows_per_s);
        }
        if (!first) std::fprintf(out, ",\n");
        first = false;
        std::fprintf(out,
                     "    {\"query\": \"%s\", \"scale_factor\": %g, "
                     "\"threads\": %d, \"latency_ms\": %.4f, "
                     "\"speedup_vs_1t\": %.3f, "
                     "\"ht_load_factor\": %.4f, "
                     "\"ht_probes_per_lookup\": %.4f, "
                     "\"bloom_hit_rate\": %.4f, "
                     "\"expr_rows_evaluated\": %lld, "
                     "\"expr_mrows_per_s\": %.2f, "
                     "\"mem_bytes_reserved_peak\": %lld, "
                     "\"spill_partitions\": %lld, "
                     "\"spill_bytes_written\": %lld, "
                     "\"bytes_materialized\": %lld}",
                     QueryName(q), sf, threads, ms,
                     ms > 0.0 ? base_ms / ms : 0.0, hs.ht_load_factor,
                     hs.ht_probes_per_lookup, hs.bloom_hit_rate,
                     static_cast<long long>(hs.expr_rows_evaluated),
                     expr_mrows_per_s,
                     static_cast<long long>(hs.mem_bytes_reserved_peak),
                     static_cast<long long>(hs.spill_partitions),
                     static_cast<long long>(hs.spill_bytes_written),
                     static_cast<long long>(hs.bytes_materialized));
      }
    }
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::printf("[E1] thread-scaling sweep written to %s\n", path);
}

/// Cell-for-cell equality of two results, doubles by bit pattern;
/// prints the first difference.
bool SameCells(const QueryResult& a, const QueryResult& b) {
  if (a.num_rows() != b.num_rows() || a.num_columns() != b.num_columns()) {
    std::printf("[E1] shapes differ: %zux%zu vs %zux%zu\n", a.num_rows(),
                a.num_columns(), b.num_rows(), b.num_columns());
    return false;
  }
  for (size_t r = 0; r < a.num_rows(); ++r) {
    for (size_t c = 0; c < a.num_columns(); ++c) {
      Value va = a.Get(r, c);
      Value vb = b.Get(r, c);
      bool same = va.is_null() == vb.is_null();
      if (same && !va.is_null() && va.type() == TypeId::kDouble) {
        const double da = va.AsDouble(), db = vb.AsDouble();
        same = std::memcmp(&da, &db, sizeof(da)) == 0;
      } else if (same && !va.is_null()) {
        same = va.Compare(vb) == 0;
      }
      if (!same) {
        std::printf("[E1] cell (%zu,%zu) differs: %s vs %s\n", r, c,
                    va.ToString().c_str(), vb.ToString().c_str());
        return false;
      }
    }
  }
  return true;
}

/// Smoke check for budgeted execution: measure Q5's unlimited peak,
/// rerun it with a quarter of that budget, and require that some join
/// or aggregation partition spilled and that the result matches the
/// unlimited one cell for cell; then require the same match of Q1 at
/// SF 0.05 under 1 GiB and under a quarter of its peak. Proves the
/// spill path is alive in CI without a separate binary.
void SmokeSpillCheck(double sf) {
  Database* db = GetTpchDatabase(sf);
  std::string sql = TpchQ5();
  db->set_memory_budget(0);
  QueryResult unlimited = MustExecute(db, sql);
  int64_t peak = unlimited.stats().mem_bytes_reserved_peak;
  int64_t budget = std::max<int64_t>(peak / 4, int64_t{1} << 16);
  db->set_memory_budget(budget);
  QueryResult budgeted = MustExecute(db, sql);
  db->set_memory_budget(g_mem_budget);
  const ExecStats& s = budgeted.stats();
  std::printf(
      "[E1] spill Q5 SF %g: budget=%lld peak=%lld partitions=%lld "
      "written=%lld read=%lld rows=%zu (unlimited rows=%zu)\n",
      sf, static_cast<long long>(budget), static_cast<long long>(peak),
      static_cast<long long>(s.spill_partitions),
      static_cast<long long>(s.spill_bytes_written),
      static_cast<long long>(s.spill_bytes_read), budgeted.num_rows(),
      unlimited.num_rows());
  if (s.spill_partitions == 0) {
    std::printf("[E1] spill FAILURE: a quarter of the peak spilled nothing\n");
    std::exit(1);
  }
  if (!SameCells(unlimited, budgeted)) {
    std::printf("[E1] spill FAILURE: budgeted result diverged\n");
    std::exit(1);
  }

  // Q1 at SF 0.05, where lineitem spans several morsels: a budgeted
  // aggregate must fold and merge them as the unlimited run does, both
  // when nothing spills (1 GiB) and under a quarter of the peak.
  db = GetTpchDatabase(0.05);
  sql = TpchQ1();
  db->set_memory_budget(0);
  unlimited = MustExecute(db, sql);
  peak = unlimited.stats().mem_bytes_reserved_peak;
  for (int64_t q1_budget : {int64_t{1} << 30, peak / 4}) {
    db->set_memory_budget(q1_budget);
    QueryResult got = MustExecute(db, sql);
    std::printf("[E1] spill Q1 SF 0.05: budget=%lld partitions=%lld\n",
                static_cast<long long>(q1_budget),
                static_cast<long long>(got.stats().spill_partitions));
    if (!SameCells(unlimited, got)) {
      std::printf("[E1] spill FAILURE: budgeted Q1 diverged\n");
      std::exit(1);
    }
  }
  db->set_memory_budget(g_mem_budget);
}

}  // namespace
}  // namespace agora

int main(int argc, char** argv) {
  // --threads=a,b,c selects the worker counts for the scaling sweep.
  // --sf=a,b,c selects the scale factors.
  // --mem-budget=N[k|m|g] runs the scaling sweep under an engine memory
  // budget (spill-capable execution; results are identical, only
  // latency and the spill counters in BENCH_e1.json move). The
  // google-benchmark sweep is skipped then: it runs its own fixed
  // scale factors up to SF 0.1, ignoring --sf, and one budget cannot
  // fit them all.
  // --smoke shrinks the run to a CI-sized check: SF 0.01, Q1/Q3/Q5,
  // one thread, no gbench sweep — it exists to prove the binary runs,
  // BENCH_e1.json comes out well-formed, and the spill path is alive.
  std::vector<int> thread_counts = {1, 2, 4, 8};
  std::vector<double> scales = {0.01, 0.05, 0.1};
  bool smoke = false;
  bool sf_set = false;
  bool threads_set = false;
  int out_argc = 1;
  for (int i = 1; i < argc; ++i) {
    const char* threads_prefix = "--threads=";
    const char* sf_prefix = "--sf=";
    const char* budget_prefix = "--mem-budget=";
    if (std::strncmp(argv[i], threads_prefix, std::strlen(threads_prefix)) ==
        0) {
      thread_counts.clear();
      for (const char* p = argv[i] + std::strlen(threads_prefix);
           *p != '\0';) {
        int n = std::atoi(p);
        if (n > 0) thread_counts.push_back(n);
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
      if (thread_counts.empty()) thread_counts = {1};
      threads_set = true;
    } else if (std::strncmp(argv[i], sf_prefix, std::strlen(sf_prefix)) ==
               0) {
      scales.clear();
      sf_set = true;
      for (const char* p = argv[i] + std::strlen(sf_prefix); *p != '\0';) {
        double sf = std::atof(p);
        if (sf > 0.0) scales.push_back(sf);
        while (*p != '\0' && *p != ',') ++p;
        if (*p == ',') ++p;
      }
      if (scales.empty()) scales = {0.01};
    } else if (std::strncmp(argv[i], budget_prefix,
                            std::strlen(budget_prefix)) == 0) {
      agora::g_mem_budget =
          agora::ParseByteSize(argv[i] + std::strlen(budget_prefix));
    } else if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else {
      argv[out_argc++] = argv[i];  // pass everything else to gbench
    }
  }
  argc = out_argc;
  std::vector<int> queries = {1, 3, 5, 6, 10, 12, 14};
  if (smoke) {
    // CI-sized defaults; explicit --threads / --sf still win.
    if (!threads_set) thread_counts = {1};
    if (!sf_set) scales = {0.01};
    queries = {1, 3, 5};
  }
  // Size the shared pool for the largest requested sweep point unless the
  // user pinned it; must happen before the first query builds the pool.
  int max_threads = 1;
  for (int t : thread_counts) max_threads = std::max(max_threads, t);
  setenv("AGORA_THREADS", std::to_string(max_threads).c_str(), 0);

  agora::bench::PrintClaim(
      "E1: small data is enough (TPC-H on one core)",
      "\"a MacBook can comfortably run TPC-H scale factor 1000: 'small "
      "data' is enough\" (panel §3.3.1)",
      "latency grows ~linearly in SF; per-query Mrows/s stays roughly "
      "flat, so extrapolating any row to SF1000 (~6B lineitems) lands in "
      "minutes on one core — parallel morsel execution divides the "
      "single-core time by the scaling factor in BENCH_e1.json");
  benchmark::Initialize(&argc, argv);
  if (!smoke && agora::g_mem_budget > 0) {
    std::printf("[E1] --mem-budget given: skipping the google-benchmark "
                "sweep (its fixed scale factors ignore --sf)\n");
  } else if (!smoke) {
    benchmark::RunSpecifiedBenchmarks();
  }

  agora::WriteScalingJson(thread_counts, scales, queries);

  if (smoke) {
    agora::SmokeSpillCheck(scales.front());
    std::printf("[E1] smoke run complete\n");
    benchmark::Shutdown();
    return 0;
  }

  // Post-run extrapolation using a quick Q6 measurement at SF 0.1.
  agora::Database* db = agora::bench::GetTpchDatabase(0.1);
  auto lineitem = db->catalog().GetTable("lineitem");
  double rows = static_cast<double>((*lineitem)->num_rows());
  db->set_execution_threads(1);
  agora::Timer timer;
  agora::bench::MustExecute(db, agora::TpchQ6());
  double seconds = timer.ElapsedSeconds();
  db->set_execution_threads(0);
  double rows_per_s = rows / seconds;
  double sf1000_rows = 6.0012e9;
  std::printf(
      "\n[E1 verdict] Q6 scans %.2f Mrows/s single-core; "
      "SF1000 (~6.0B lineitems) => ~%.1f minutes for a full Q6 scan on "
      "ONE core (parallelism divides this) — consistent with the claim.\n",
      rows_per_s / 1e6, sf1000_rows / rows_per_s / 60.0);
  benchmark::Shutdown();
  return 0;
}
