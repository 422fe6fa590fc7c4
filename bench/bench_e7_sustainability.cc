// E7 — sustainability-aware benchmarking: report resource footprint
// (bytes moved, rows touched, an energy proxy) alongside latency, because
// the latency ranking and the resource ranking of plans can differ.
//
// Paper quote (SIGMOD'25, §4.1, Pınar Tözün): expand our benchmarking
// tradition to "systematic benchmarking (not only for throughput/latency
// but also for sustainability)" and treat resource-efficiency as
// fundamental, not a nice-to-have.

#include <algorithm>
#include <vector>

#include "bench/bench_common.h"
#include "common/thread_pool.h"

namespace agora {
namespace {

using bench::GetTpchDatabase;
using bench::MustExecute;

constexpr double kSf = 0.05;

struct Workload {
  const char* name;
  std::string sql;
  bool zone_maps;  // physical knob toggled to create latency/energy splits
};

std::vector<Workload>* GetWorkloads() {
  static auto* workloads = new std::vector<Workload>{
      {"Q1 full-scan aggregate", TpchQ1(), true},
      {"Q6 selective scan (+zonemaps)", TpchQ6(), true},
      {"Q6 selective scan (no zonemaps)", TpchQ6(), false},
      {"Q3 3-way join", TpchQ3(), true},
      {"Q5 6-way join", TpchQ5(), true},
  };
  return workloads;
}

/// Databases over the same TPC-H data, but with lineitem physically
/// clustered by l_shipdate so zone maps have something to prune — the
/// zone-map on/off pair then shows a latency AND energy split.
Database* GetDbFor(bool zone_maps) {
  static std::unique_ptr<Database> zm_db, no_zm_db;
  std::unique_ptr<Database>& slot = zone_maps ? zm_db : no_zm_db;
  if (slot == nullptr) {
    DatabaseOptions options;
    options.physical.enable_zone_maps = zone_maps;
    slot = std::make_unique<Database>(options);
    Database* source = GetTpchDatabase(kSf);
    for (const std::string& name : source->catalog().TableNames()) {
      auto table = source->catalog().GetTable(name);
      AGORA_CHECK(table.ok());
      if (name == "lineitem") {
        static std::shared_ptr<Table> clustered;
        if (clustered == nullptr) {
          size_t shipdate = *(*table)->schema().FindField("l_shipdate");
          clustered = (*table)->SortedCopy("lineitem", shipdate);
          clustered->BuildZoneMaps();
        }
        AGORA_CHECK(slot->catalog().RegisterTable(clustered).ok());
      } else {
        AGORA_CHECK(slot->catalog().RegisterTable(*table).ok());
      }
    }
  }
  return slot.get();
}

void BM_QueryWithResourceAccounting(benchmark::State& state) {
  const Workload& workload =
      (*GetWorkloads())[static_cast<size_t>(state.range(0))];
  Database* db = GetDbFor(workload.zone_maps);
  ExecStats stats;
  for (auto _ : state) {
    QueryResult result = MustExecute(db, workload.sql);
    stats = result.stats();
    benchmark::DoNotOptimize(result.num_rows());
  }
  state.counters["MB_materialized"] =
      static_cast<double>(stats.bytes_materialized) / (1024.0 * 1024.0);
  state.counters["rows_scanned"] = static_cast<double>(stats.rows_scanned);
  state.counters["rows_joined"] = static_cast<double>(stats.rows_joined);
  state.counters["joules_proxy"] = stats.JoulesProxy();
  state.SetLabel(workload.name);
}

BENCHMARK(BM_QueryWithResourceAccounting)
    ->DenseRange(0, 4)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.05);

/// One operator class's aggregated share of a workload.
struct ClassRow {
  std::string op_class;
  int64_t busy_ns = 0;
  int64_t rows = 0;
};

/// Collapses a per-operator profile (which may contain several Scans,
/// Joins, ...) into per-class totals, largest busy time first.
std::vector<ClassRow> ByOperatorClass(
    const std::vector<OperatorProfileNode>& profile) {
  std::map<std::string, ClassRow> by_class;
  for (const OperatorProfileNode& node : profile) {
    ClassRow& row = by_class[node.name];
    row.op_class = node.name;
    row.busy_ns += node.busy_ns;
    row.rows += node.rows_out;
  }
  std::vector<ClassRow> rows;
  for (auto& [name, row] : by_class) rows.push_back(std::move(row));
  std::sort(rows.begin(), rows.end(), [](const ClassRow& a, const ClassRow& b) {
    return a.busy_ns > b.busy_ns;
  });
  return rows;
}

/// Runs every workload (warm-up + median-of-5) and writes BENCH_e7.json:
/// per workload the latency, resource counters and joules proxy, plus the
/// per-operator-class attribution — each class's busy-time share of the
/// query and the slice of the energy proxy that share attributes to it.
/// Schema documented in docs/BENCH_SCHEMA.md.
void WriteE7Json() {
  const char* path = "BENCH_e7.json";
  std::FILE* out = std::fopen(path, "w");
  if (out == nullptr) {
    std::printf("[E7] cannot open %s for writing; skipping JSON\n", path);
    return;
  }
  std::fprintf(out, "{\n  \"experiment\": \"e7_sustainability\",\n");
  std::fprintf(out, "  \"scale_factor\": %g,\n", kSf);
  std::fprintf(out, "  \"pool_threads\": %zu,\n",
               ThreadPool::Global()->size());
  std::fprintf(out, "  \"results\": [\n");
  bool first = true;
  for (const Workload& workload : *GetWorkloads()) {
    Database* db = GetDbFor(workload.zone_maps);
    MustExecute(db, workload.sql);  // warm-up
    std::vector<double> samples;
    QueryResult last;
    for (int i = 0; i < 5; ++i) {
      Timer timer;
      last = MustExecute(db, workload.sql);
      samples.push_back(timer.ElapsedSeconds() * 1000.0);
    }
    std::sort(samples.begin(), samples.end());
    const double median_ms = samples[samples.size() / 2];
    const ExecStats& stats = last.stats();
    const double joules = stats.JoulesProxy();
    std::vector<ClassRow> classes = ByOperatorClass(last.profile());
    int64_t total_busy_ns = 0;
    for (const ClassRow& row : classes) total_busy_ns += row.busy_ns;

    if (!first) std::fprintf(out, ",\n");
    first = false;
    std::fprintf(out,
                 "    {\"workload\": \"%s\", \"zone_maps\": %s, "
                 "\"latency_ms\": %.4f, \"mb_materialized\": %.3f, "
                 "\"rows_scanned\": %lld, \"rows_joined\": %lld, "
                 "\"joules_proxy\": %.6f,\n     \"operators\": [",
                 workload.name, workload.zone_maps ? "true" : "false",
                 median_ms,
                 static_cast<double>(stats.bytes_materialized) /
                     (1024.0 * 1024.0),
                 static_cast<long long>(stats.rows_scanned),
                 static_cast<long long>(stats.rows_joined), joules);
    for (size_t c = 0; c < classes.size(); ++c) {
      const ClassRow& row = classes[c];
      const double share =
          total_busy_ns > 0
              ? static_cast<double>(row.busy_ns) / total_busy_ns
              : 0.0;
      std::fprintf(out,
                   "%s\n      {\"class\": \"%s\", \"busy_ms\": %.4f, "
                   "\"share\": %.4f, \"rows\": %lld, "
                   "\"joules_attributed\": %.6f}",
                   c == 0 ? "" : ",", row.op_class.c_str(),
                   static_cast<double>(row.busy_ns) / 1e6, share,
                   static_cast<long long>(row.rows), joules * share);
    }
    std::fprintf(out, "]}");

    // Console attribution table mirroring the JSON.
    std::printf("[E7] %-32s %8.2f ms  %8.4f J-proxy\n", workload.name,
                median_ms, joules);
    for (const ClassRow& row : classes) {
      const double share =
          total_busy_ns > 0
              ? static_cast<double>(row.busy_ns) / total_busy_ns
              : 0.0;
      std::printf("[E7]   %-16s %8.2f ms  %5.1f%%  %8.4f J-proxy\n",
                  row.op_class.c_str(),
                  static_cast<double>(row.busy_ns) / 1e6, 100.0 * share,
                  joules * share);
    }
  }
  std::fprintf(out, "\n  ]\n}\n");
  std::fclose(out);
  std::printf("[E7] per-operator attribution written to %s\n", path);
}

}  // namespace
}  // namespace agora

int main(int argc, char** argv) {
  agora::bench::PrintClaim(
      "E7: sustainability-aware benchmarking (resource proxy vs latency)",
      "Tözün (§4.1): benchmark \"not only for throughput/latency but also "
      "for sustainability\" — resource-efficiency as a first-class metric",
      "every row reports MB materialized, rows touched and a joules proxy "
      "next to latency; Q6-with-zonemaps wins BOTH latency and energy over "
      "Q6-without (pruning saves data movement), while join-heavy Q3 can "
      "cost more energy per ms than scan-heavy Q1 — latency alone "
      "misranks plans for efficiency");
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  agora::WriteE7Json();
  benchmark::Shutdown();
  return 0;
}
