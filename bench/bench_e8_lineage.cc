// E8 — data provenance: row-level lineage capture through a
// filter-join-aggregate query has bounded overhead, and backward tracing
// an output row returns exactly its contributing base rows.
//
// Paper context (SIGMOD'25 panel §3.3.1 and §4.2): the community's "deep
// systems knowledge offers unique insights into challenges like data
// provenance, security"; Battle argues we should know how our outputs
// are used — provenance is the mechanism.

#include "bench/bench_common.h"
#include "lineage/lineage.h"

namespace agora {
namespace e8 {

constexpr double kSf = 0.02;

struct LineagePipelineResult {
  AnnotatedRelation result;
};

/// Runs orders JOIN lineitem -> filter -> GROUP BY o_orderpriority with
/// SUM(l_extendedprice), with or without lineage capture.
Result<AnnotatedRelation> RunPipeline(bool capture) {
  Database* db = bench::GetTpchDatabase(kSf);
  auto orders = db->catalog().GetTable("orders");
  auto lineitem = db->catalog().GetTable("lineitem");
  AGORA_CHECK(orders.ok() && lineitem.ok());

  // Filter: o_orderdate >= 1995-01-01 (bound against orders schema).
  size_t orderdate = *(*orders)->schema().FindField("o_orderdate");
  ExprPtr pred = MakeCompare(
      CompareOp::kGe,
      MakeColumnRef(orderdate, TypeId::kDate, "o_orderdate"),
      MakeLiteral(Value::Date(MakeDate(1995, 1, 1))));

  AGORA_ASSIGN_OR_RETURN(AnnotatedRelation o,
                         LineageScan(**orders, pred, capture));
  AGORA_ASSIGN_OR_RETURN(AnnotatedRelation l,
                         LineageScan(**lineitem, nullptr, capture));
  size_t okey = *(*orders)->schema().FindField("o_orderkey");
  size_t lkey = *(*lineitem)->schema().FindField("l_orderkey");
  AGORA_ASSIGN_OR_RETURN(AnnotatedRelation joined,
                         LineageJoin(o, l, okey, lkey, capture));

  size_t priority =
      *joined.schema.FindField("o_orderpriority");
  size_t price = *joined.schema.FindField("l_extendedprice");
  AggregateSpec sum;
  sum.func = AggFunc::kSum;
  sum.arg = MakeColumnRef(price, TypeId::kDouble, "l_extendedprice");
  sum.result_type = TypeId::kDouble;
  sum.name = "total";
  return LineageAggregate(joined, {priority}, {sum}, capture);
}

void BM_LineageCapture(benchmark::State& state) {
  bool capture = state.range(0) == 1;
  size_t groups = 0;
  size_t lineage_refs = 0;
  for (auto _ : state) {
    auto result = RunPipeline(capture);
    AGORA_CHECK(result.ok()) << result.status().ToString();
    groups = result->num_rows();
    lineage_refs = 0;
    for (const TableLineage& t : result->lineage) {
      lineage_refs += t.rows.size();
    }
    benchmark::DoNotOptimize(groups);
  }
  state.counters["groups"] = static_cast<double>(groups);
  state.counters["lineage_refs"] = static_cast<double>(lineage_refs);
  state.SetLabel(capture ? "lineage capture ON" : "lineage capture OFF");
}

// The database is generated before any case runs (main), so neither
// mode pays for it; the medians of ten repetitions are what EXPERIMENTS.md
// records.
BENCHMARK(BM_LineageCapture)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond)
    ->MinTime(0.2)
    ->Repetitions(10)
    ->ReportAggregatesOnly(true);

/// Backward tracing latency: once captured, answering "which base rows
/// produced this aggregate?" is a lookup.
void BM_BackwardTrace(benchmark::State& state) {
  static AnnotatedRelation* result = nullptr;
  if (result == nullptr) {
    auto r = RunPipeline(true);
    AGORA_CHECK(r.ok());
    result = new AnnotatedRelation(std::move(*r));
  }
  size_t total = 0;
  size_t row = 0;
  for (auto _ : state) {
    auto trace = TraceRow(*result, row % result->num_rows(), "orders");
    AGORA_CHECK(trace.ok());
    total += trace->size();
    ++row;
    benchmark::DoNotOptimize(total);
  }
  state.SetLabel("trace one aggregate output to base rows");
}

BENCHMARK(BM_BackwardTrace)->Unit(benchmark::kMicrosecond);

void PrintVerdict() {
  auto result = RunPipeline(true);
  AGORA_CHECK(result.ok());
  Database* db = bench::GetTpchDatabase(kSf);
  auto lineitem = db->catalog().GetTable("lineitem");
  size_t price_col = *(*lineitem)->schema().FindField("l_extendedprice");
  // Recompute group 0's SUM from its traced lineitem rows.
  auto trace = TraceRow(*result, 0, "lineitem");
  AGORA_CHECK(trace.ok());
  double recomputed = 0;
  for (const LineageRef& ref : *trace) {
    recomputed +=
        (*lineitem)->column(price_col).GetDouble(static_cast<size_t>(ref.row));
  }
  double reported = result->data.column(1).GetDouble(0);
  std::printf(
      "\n[E8 verdict] group '%s': SUM reported %.2f, recomputed from %zu "
      "traced base rows %.2f -> %s\n",
      result->data.column(0).GetString(0).c_str(), reported, trace->size(),
      recomputed,
      std::abs(reported - recomputed) < 1e-6 * std::abs(reported)
          ? "EXACT"
          : "MISMATCH");

  // Every group's SUM against the same query in SQL (groups may come out
  // in another order; DOUBLE sums may add in another order).
  QueryResult sql = bench::MustExecute(
      db,
      "SELECT o_orderpriority, SUM(l_extendedprice) FROM orders JOIN "
      "lineitem ON o_orderkey = l_orderkey WHERE o_orderdate >= "
      "'1995-01-01' GROUP BY o_orderpriority");
  double worst = 0;
  size_t matched = 0;
  for (size_t r = 0; r < result->num_rows(); ++r) {
    for (size_t s = 0; s < sql.num_rows(); ++s) {
      if (sql.Get(s, 0).ToString() != result->data.column(0).GetString(r)) {
        continue;
      }
      const double a = result->data.column(1).GetDouble(r);
      const double b = sql.Get(s, 1).AsDouble();
      worst = std::max(worst, std::abs(a - b) / std::abs(b));
      ++matched;
    }
  }
  const bool agree = matched == result->num_rows() &&
                     sql.num_rows() == result->num_rows() && worst <= 1e-9;
  std::printf(
      "[E8 vs SQL] %zu of %zu groups matched, largest relative SUM "
      "difference %.1e -> %s\n",
      matched, sql.num_rows(), worst, agree ? "AGREE" : "DISAGREE");
}

}  // namespace e8
}  // namespace agora

int main(int argc, char** argv) {
  agora::bench::PrintClaim(
      "E8: row-level provenance capture and backward tracing",
      "provenance is a core database capability for the AI era: \"data "
      "provenance, security, and novel data abstractions\" (§3.3.1); "
      "Battle (§4.2) on knowing how outputs are used",
      "capturing why-provenance through scan->join->aggregate costs a "
      "bounded constant factor (<5x) over capture-off execution, and "
      "backward-tracing an output group to its exact contributing base "
      "rows is then effectively free");
  benchmark::Initialize(&argc, argv);
  agora::bench::GetTpchDatabase(agora::e8::kSf);
  benchmark::RunSpecifiedBenchmarks();

  // Correctness spotlight: recompute one group's SUM from its trace.
  agora::e8::PrintVerdict();
  benchmark::Shutdown();
  return 0;
}
