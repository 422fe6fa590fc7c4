// perfbench driver: runs one workload against an AgoraDB HTTP server
// started in this process on a loopback port, and prints one JSON
// result line on stdout (progress goes to stderr).
//
//   perfbench_driver --workload tpch_olap --seed 1 --seconds 10 --trace 0
//                    [--trace-out spans.json]
//
// Phases: set-up (load the data and start the server), reference
// answers and oracle checks, a warm-up, the timed closed loop in slices
// with a throwaway set-up after each one (setup_s is the median of all
// set-ups), and with --trace 1 a serial replay of the workload's read
// statements, one span per engine layer. The process runs pinned to one
// CPU, and end-to-end times are scaled to a reference host speed by a
// fixed kernel run between requests (see "Host speed" below). --trace 0
// reports the end-to-end metrics, --trace 1 the per-layer ones; both
// runs send the same traffic. See perfbench/README.md.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <variant>
#include <vector>

#include <sched.h>

#include "engine/database.h"
#include "server/http_client.h"
#include "server/json_util.h"
#include "server/query_handler.h"
#include "server/server.h"
#include "sql/parser.h"
#include "workloads.h"

namespace perfbench {
namespace {

using agora::Status;
using Clock = std::chrono::steady_clock;

/// Set-ups per run: one before the timed loop, and one after each of
/// the loop's kSetupRepeats - 1 slices, so that they are spread over
/// the run rather than bunched into its first seconds.
constexpr int kSetupRepeats = 8;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string trace_out;
};

double Ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

Clock::duration Seconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}

/// One timed interval at a layer boundary. A root span (parent 0) is
/// one request; its children share its id as their parent.
struct Span {
  std::string name;
  std::string detail;  // statement class, or the layer's own counts
  Clock::time_point start;
  Clock::duration length;
  uint64_t id;
  uint64_t parent;
  int thread;
};

/// Spans of one thread, kept in memory until the run ends. Disabled
/// logs record nothing.
class SpanLog {
 public:
  SpanLog(int thread, bool enabled) : thread_(thread), enabled_(enabled) {}

  uint64_t Add(std::string name, std::string detail, Clock::time_point start,
               Clock::time_point end, uint64_t parent) {
    if (!enabled_) return 0;
    const uint64_t id = (static_cast<uint64_t>(thread_ + 1) << 40) | ++count_;
    spans_.push_back({std::move(name), std::move(detail), start, end - start,
                      id, parent, thread_});
    return id;
  }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  int thread_;
  bool enabled_;
  uint64_t count_ = 0;
  std::vector<Span> spans_;
};

// ---------------------------------------------------------------------------
// Host speed. The shared host runs the same code up to 1.6x slower, in
// spells that last from seconds to minutes, and a slow spell often
// covers a whole run. Every end-to-end time is therefore scaled to a
// reference host speed: multiplied by kReferenceKernelMs over the time
// a fixed reference kernel, compiled into this driver and so the same
// on every commit, takes on the same CPU at about the same moment. The
// process is pinned to one CPU so that the kernel and the engine share
// it.

/// The reference kernel's time on an unloaded 4-vCPU Xeon (Sapphire
/// Rapids) host, where the bounds in BENCHMARK.json were fixed.
constexpr double kReferenceKernelMs = 2.0;

/// How often a client runs the reference kernel between requests.
constexpr auto kKernelInterval = std::chrono::milliseconds(50);

std::atomic<uint64_t> kernel_sink{0};  // keeps the kernel's work alive

/// Runs the reference kernel once and returns its wall time: random
/// read-modify-writes into a 1 MiB table, a scan of a 2 MiB column and
/// number formatting, the kinds of work the engine does.
double ReferenceKernelMs() {
  thread_local std::vector<uint64_t> table(1 << 17);
  thread_local std::vector<double> column(1 << 18, 1.5);
  const Clock::time_point start = Clock::now();
  uint64_t x = 0x9E3779B97F4A7C15ull, acc = 0;
  for (int i = 0; i < 60000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    uint64_t& slot = table[x & (table.size() - 1)];
    acc += slot;
    slot = x;
  }
  double sum = 0;
  for (double v : column) sum += v;
  char buf[32];
  for (int i = 0; i < 3000; ++i) {
    acc += static_cast<uint64_t>(
        std::snprintf(buf, sizeof(buf), "%.17g", sum * i + 0.1));
  }
  kernel_sink.store(acc + static_cast<uint64_t>(sum),
                    std::memory_order_relaxed);
  return Ms(Clock::now() - start);
}

/// Pins the process, and every thread it starts from now on, to the
/// CPU it runs on. One client sends one request at a time and every
/// query runs on one worker, so one CPU is all the run uses at once.
void PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

// ---------------------------------------------------------------------------

/// One answered request.
struct Sample {
  size_t kind;  // statement class
  double ms;    // round-trip latency
};

/// What one client saw during one phase.
struct ClientStats {
  std::vector<Sample> samples;  // one per 200 response
  std::vector<double> kernel_ms;  // reference kernel runs between requests
  int64_t attempted = 0;
  int64_t failed = 0;  // transport errors and non-200 responses
  int64_t wrong = 0;   // 200 responses that failed the workload's check
  double response_bytes = 0;
  std::string first_error;
};

void Note(ClientStats* stats, const std::string& error) {
  if (stats->first_error.empty()) stats->first_error = error;
}

/// Closed loop: one request at a time on one keep-alive connection,
/// until `until`.
void RunClient(Workload* workload, int client, int port,
               Clock::time_point until, uint64_t* next, SpanLog* log,
               ClientStats* stats) {
  agora::HttpClient http("127.0.0.1", port);
  const std::vector<std::string> classes = workload->classes();
  Clock::time_point kernel_due = Clock::now();
  while (Clock::now() < until) {
    if (Clock::now() >= kernel_due) {
      stats->kernel_ms.push_back(ReferenceKernelMs());
      kernel_due = Clock::now() + kKernelInterval;
    }
    const Request request = workload->Next(client, (*next)++);
    const std::string body =
        "{\"sql\": " + agora::JsonQuote(request.sql) + "}";
    const Clock::time_point start = Clock::now();
    auto response = http.Post("/query", body);
    const Clock::time_point end = Clock::now();
    ++stats->attempted;
    if (!response.ok() || response->status != 200) {
      ++stats->failed;
      Note(stats, response.ok() ? "HTTP " + std::to_string(response->status) +
                                      " " + response->body
                                : response.status().ToString());
      continue;
    }
    const Status check = workload->Check(client, request, response->body);
    if (!check.ok()) {
      ++stats->wrong;
      Note(stats, check.ToString());
    }
    stats->samples.push_back({request.kind, Ms(end - start)});
    stats->response_bytes += static_cast<double>(response->body.size());
    log->Add("request", classes[request.kind], start, end, 0);
  }
}

/// Runs every client of `workload` for `seconds`, continuing each
/// client's request sequence from `next` and adding to its `stats`.
void RunPhase(Workload* workload, int port, double seconds,
              std::vector<uint64_t>* next, std::vector<SpanLog>* logs,
              std::vector<ClientStats>* stats) {
  const Clock::time_point until = Clock::now() + Seconds(seconds);
  std::vector<std::thread> threads;
  for (int c = 0; c < workload->clients(); ++c) {
    threads.emplace_back(RunClient, workload, c, port, until, &(*next)[c],
                         &(*logs)[c], &(*stats)[c]);
  }
  for (std::thread& t : threads) t.join();
}

/// Nearest-rank quantile; `values` must be non-empty.
double Quantile(std::vector<double> values, double q) {
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<size_t>(rank, 1, values.size()) - 1];
}

double Median(std::vector<double> values) { return Quantile(values, 0.5); }

/// A database loaded with the workload's data, served on a loopback
/// port.
struct Served {
  std::unique_ptr<agora::Database> db;
  std::unique_ptr<agora::HttpServer> server;
};

/// Loads a fresh database and starts its server; appends the time this
/// took, scaled to the reference host speed by the median of five
/// reference kernel runs just before, to `setup_s`.
Status SetUp(Workload* workload, Served* served, std::vector<double>* setup_s) {
  served->server.reset();
  served->db.reset();
  const int clients = workload->clients();
  std::vector<double> kernel_ms;
  for (int i = 0; i < 5; ++i) kernel_ms.push_back(ReferenceKernelMs());
  const double scale = kReferenceKernelMs / Median(kernel_ms);
  const Clock::time_point start = Clock::now();
  served->db = std::make_unique<agora::Database>();
  served->db->set_execution_threads(workload->execution_threads());
  AGORA_RETURN_IF_ERROR(workload->Load(served->db.get()));
  agora::ServerOptions options;
  options.port = 0;
  options.query_timeout_ms = 0;
  options.max_concurrent_queries = std::max(4, clients);
  options.max_queued_queries = std::max(16, 4 * clients);
  served->server =
      std::make_unique<agora::HttpServer>(served->db.get(), options);
  AGORA_RETURN_IF_ERROR(served->server->Start());
  setup_s->push_back(
      std::chrono::duration<double>(Clock::now() - start).count() * scale);
  return Status::OK();
}

/// The geometric mean, over the classes with samples, of each class's
/// 10th-percentile latency, so each statement class weighs the same
/// whatever its latency or share of the traffic. The 10th percentile
/// rather than the median: slow spells shorter than the run move the
/// median with their share of it, the 10th percentile hardly at all.
double ClassP10GeoMean(const std::vector<std::vector<double>>& by_class) {
  double log_sum = 0;
  int classes = 0;
  for (const std::vector<double>& samples : by_class) {
    if (samples.empty()) continue;
    log_sum += std::log(Quantile(samples, 0.1));
    ++classes;
  }
  return classes == 0 ? 0 : std::exp(log_sum / classes);
}

/// The program's own counters the traced run differences.
struct Counters {
  double handler_seconds = 0;  // server_request_seconds sum
  double handler_count = 0;
  double query_seconds = 0;
  double queries = 0;
  double rows_scanned = 0;
  double bytes_materialized = 0;

  static Counters Read(const agora::MetricsRegistry& m) {
    Counters c;
    c.handler_seconds = m.HistogramSum("server_request_seconds");
    c.handler_count =
        static_cast<double>(m.HistogramCount("server_request_seconds"));
    c.query_seconds = m.CounterValue("query_seconds_total");
    c.queries = m.CounterValue("queries_total");
    c.rows_scanned = m.CounterValue("rows_scanned_total");
    c.bytes_materialized = m.CounterValue("bytes_materialized_total");
    return c;
  }
};

/// Mean time per replayed statement in each engine layer.
struct Layers {
  double parse_ms = 0;
  double plan_ms = 0;  // bind + optimize
  double execute_ms = 0;  // physical planning, operators, collection
  double operator_ms = 0;  // operator self time, summed over workers
  double serialize_ms = 0;
};

/// Replays the workload's read statements serially through the engine's
/// layer entry points, with a span around each call, for at least one
/// pass and until `seconds` have passed.
Status Replay(Workload* workload, agora::Database* db, double seconds,
              SpanLog* log, Layers* layers) {
  const std::vector<Request> reads = workload->ReplaySet();
  const std::vector<std::string> classes = workload->classes();
  const Clock::time_point until = Clock::now() + Seconds(seconds);
  double parse = 0, plan = 0, execute = 0, operators = 0, serialize = 0;
  int64_t n = 0;
  do {
    for (const Request& request : reads) {
      const Clock::time_point t0 = Clock::now();
      AGORA_ASSIGN_OR_RETURN(agora::Statement statement,
                             agora::ParseStatement(request.sql));
      const Clock::time_point t1 = Clock::now();
      auto* select = std::get_if<agora::SelectStatement>(&statement.node);
      if (select == nullptr) {
        return Status::InvalidArgument("replay needs a SELECT: " +
                                       request.sql);
      }
      AGORA_ASSIGN_OR_RETURN(agora::LogicalOpPtr logical,
                             db->PlanSelect(*select));
      const Clock::time_point t2 = Clock::now();
      AGORA_ASSIGN_OR_RETURN(agora::QueryResult result,
                             db->ExecutePlan(logical));
      const Clock::time_point t3 = Clock::now();
      const std::string json =
          agora::QueryHandler::SerializeResultJson(result);
      const Clock::time_point t4 = Clock::now();
      AGORA_RETURN_IF_ERROR(workload->Check(0, request, json));

      int64_t operator_ns = 0;
      for (const agora::OperatorProfileNode& node : result.profile()) {
        operator_ns += node.busy_ns;
      }
      parse += Ms(t1 - t0);
      plan += Ms(t2 - t1);
      execute += Ms(t3 - t2);
      operators += static_cast<double>(operator_ns) / 1e6;
      serialize += Ms(t4 - t3);
      ++n;
      const uint64_t root =
          log->Add("replay", classes[request.kind], t0, t4, 0);
      log->Add("parse", "", t0, t1, root);
      log->Add("plan", "", t1, t2, root);
      log->Add("execute",
               "operator_self_ms=" +
                   std::to_string(static_cast<double>(operator_ns) / 1e6) +
                   " rows=" + std::to_string(result.num_rows()),
               t2, t3, root);
      log->Add("serialize", "bytes=" + std::to_string(json.size()), t3, t4,
               root);
    }
  } while (Clock::now() < until);
  const auto count = static_cast<double>(n);
  *layers = {parse / count,     plan / count,      execute / count,
             operators / count, serialize / count};
  return Status::OK();
}

/// Chrome trace-event JSON (chrome://tracing, Perfetto).
Status WriteTrace(const std::string& path, const std::vector<SpanLog>& logs,
                  Clock::time_point origin) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return Status::IoError("cannot write " + path);
  std::fprintf(out, "{\"traceEvents\": [");
  bool first = true;
  for (const SpanLog& log : logs) {
    for (const Span& span : log.spans()) {
      std::string name, detail;
      agora::AppendJsonString(&name, span.name);
      agora::AppendJsonString(&detail, span.detail);
      std::fprintf(
          out,
          "%s\n{\"name\": %s, \"ph\": \"X\", \"pid\": 1, \"tid\": %d, "
          "\"ts\": %.3f, \"dur\": %.3f, \"args\": {\"id\": %llu, "
          "\"parent\": %llu, \"detail\": %s}}",
          first ? "" : ",", name.c_str(), span.thread,
          Ms(span.start - origin) * 1e3, Ms(span.length) * 1e3,
          static_cast<unsigned long long>(span.id),
          static_cast<unsigned long long>(span.parent), detail.c_str());
      first = false;
    }
  }
  std::fprintf(out, "\n]}\n");
  return std::fclose(out) == 0 ? Status::OK()
                               : Status::IoError("cannot write " + path);
}

class Report {
 public:
  void Add(const char* name, double value, const char* unit) {
    char buf[160];
    std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, "
                  "\"unit\": \"%s\"}",
                  metrics_.empty() ? "" : ", ", name, value, unit);
    metrics_ += buf;
  }
  void Print(bool correct, int64_t attempted, int64_t failed) const {
    std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<long long>(attempted),
                static_cast<long long>(failed), metrics_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string metrics_;
};

int Fail(const char* what, const Status& status) {
  std::fprintf(stderr, "[perfbench] %s failed: %s\n", what,
               status.ToString().c_str());
  return 1;
}

int Run(const Args& args) {
  std::unique_ptr<Workload> workload = MakeWorkload(args.workload, args.seed);
  if (workload == nullptr) {
    std::fprintf(stderr, "[perfbench] unknown workload '%s'\n",
                 args.workload.c_str());
    return 2;
  }
  const Clock::time_point origin = Clock::now();
  const int clients = workload->clients();

  // The served database stays up for the whole run; the set-ups between
  // slices of the timed loop build throwaway copies.
  Served served;
  std::vector<double> setup_s;
  Status set_up = SetUp(workload.get(), &served, &setup_s);
  if (!set_up.ok()) return Fail("set-up", set_up);
  agora::Database* db = served.db.get();
  const int port = served.server->port();
  Status prepared = workload->Prepare(db);
  if (!prepared.ok()) return Fail("reference answers", prepared);

  std::vector<uint64_t> next(clients, 0);
  std::vector<SpanLog> idle, logs;
  for (int c = 0; c <= clients; ++c) {  // the last log is the replay's
    idle.emplace_back(c, false);
    logs.emplace_back(c, args.trace);
  }
  std::vector<ClientStats> warmup(clients), timed(clients);
  RunPhase(workload.get(), port, std::min(3.0, 0.15 * args.seconds), &next,
           &idle, &warmup);
  const Counters before = Counters::Read(db->metrics());
  const int slices = kSetupRepeats - 1;
  for (int s = 0; s < slices; ++s) {
    RunPhase(workload.get(), port, args.seconds / slices, &next, &logs,
             &timed);
    Served spare;
    set_up = SetUp(workload.get(), &spare, &setup_s);
    if (!set_up.ok()) return Fail("set-up", set_up);
  }
  const Counters after = Counters::Read(db->metrics());
  served.server->Stop();

  Layers layers;
  if (args.trace) {
    Status replayed = Replay(workload.get(), db,
                             std::max(1.0, 0.2 * args.seconds),
                             &logs[clients], &layers);
    if (!replayed.ok()) return Fail("layer replay", replayed);
  }

  // Totals; warm-up errors count too.
  bool correct = true;
  int64_t attempted = 0, failed = 0;
  std::string first_error;
  std::vector<std::vector<double>> by_class(workload->classes().size());
  std::vector<double> kernel_ms;
  double completed = 0, response_bytes = 0, latency_sum_ms = 0;
  for (const std::vector<ClientStats>* phase : {&warmup, &timed}) {
    for (const ClientStats& c : *phase) {
      attempted += c.attempted;
      failed += c.failed;
      correct = correct && c.wrong == 0;
      if (first_error.empty()) first_error = c.first_error;
    }
  }
  for (const ClientStats& c : timed) {
    kernel_ms.insert(kernel_ms.end(), c.kernel_ms.begin(), c.kernel_ms.end());
    for (const Sample& sample : c.samples) {
      by_class[sample.kind].push_back(sample.ms);
      latency_sum_ms += sample.ms;
    }
    completed += static_cast<double>(c.samples.size());
    response_bytes += c.response_bytes;
  }
  Status finished = workload->Finish(db);
  if (!finished.ok()) {
    correct = false;
    if (first_error.empty()) first_error = finished.ToString();
  }
  if (!first_error.empty()) {
    std::fprintf(stderr, "[perfbench] first error: %s\n",
                 first_error.c_str());
  }
  const std::vector<std::string> classes = workload->classes();
  for (size_t k = 0; k < classes.size(); ++k) {
    if (by_class[k].empty()) continue;
    std::fprintf(stderr,
                 "[perfbench] %-18s n=%-6zu p10 %9.3f  p50 %9.3f  p90 %9.3f ms\n",
                 classes[k].c_str(), by_class[k].size(),
                 Quantile(by_class[k], 0.1), Quantile(by_class[k], 0.5),
                 Quantile(by_class[k], 0.9));
  }
  if (completed == 0) {
    return Fail("timed phase", Status::Internal("no request completed"));
  }
  std::fprintf(stderr,
               "[perfbench] %-18s n=%-6zu p10 %9.3f  p50 %9.3f  p90 %9.3f ms\n",
               "reference kernel", kernel_ms.size(), Quantile(kernel_ms, 0.1),
               Quantile(kernel_ms, 0.5), Quantile(kernel_ms, 0.9));

  // The kernel's fast runs against the requests' fast runs: both are
  // taken when the host runs at its best during the loop.
  const double latency_p10_ms = ClassP10GeoMean(by_class);
  const double kernel_p10_ms = Quantile(kernel_ms, 0.1);
  Report report;
  if (!args.trace) {
    report.Add("latency_p10_ms",
               latency_p10_ms * kReferenceKernelMs / kernel_p10_ms, "ms");
    report.Add("setup_s", Median(setup_s), "s");
  } else {
    report.Add("unscaled_latency_p10_ms", latency_p10_ms, "ms");
    report.Add("ref_kernel_ms", kernel_p10_ms, "ms");
    const double selects = std::max(1.0, after.queries - before.queries);
    const double handled =
        std::max(1.0, after.handler_count - before.handler_count);
    const double request_ms = latency_sum_ms / completed;
    const double handler_ms =
        (after.handler_seconds - before.handler_seconds) / handled * 1e3;
    report.Add("request_ms", request_ms, "ms");
    report.Add("handler_ms", handler_ms, "ms");
    report.Add("outside_handler_ms", request_ms - handler_ms, "ms");
    report.Add("engine_exec_ms",
               (after.query_seconds - before.query_seconds) / selects * 1e3,
               "ms");
    report.Add("rows_scanned_per_select",
               (after.rows_scanned - before.rows_scanned) / selects, "rows");
    report.Add("bytes_materialized_per_select",
               (after.bytes_materialized - before.bytes_materialized) /
                   selects,
               "bytes");
    report.Add("response_kb", response_bytes / completed / 1024, "KiB");
    report.Add("parse_ms", layers.parse_ms, "ms");
    report.Add("plan_ms", layers.plan_ms, "ms");
    report.Add("execute_ms", layers.execute_ms, "ms");
    report.Add("operator_busy_ms", layers.operator_ms, "ms");
    report.Add("serialize_ms", layers.serialize_ms, "ms");
    if (!args.trace_out.empty()) {
      Status written = WriteTrace(args.trace_out, logs, origin);
      if (!written.ok()) return Fail("trace output", written);
    }
  }
  report.Print(correct, attempted, failed);
  return 0;
}

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload "
               "tpch_olap|wide_results|mixed_rw --seed N --seconds S "
               "--trace 0|1 [--trace-out FILE]\n");
  return 2;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  for (int i = 1; i + 1 < argc; i += 2) {
    const char* flag = argv[i];
    const char* value = argv[i + 1];
    if (std::strcmp(flag, "--workload") == 0) {
      args.workload = value;
    } else if (std::strcmp(flag, "--seed") == 0) {
      args.seed = std::strtoull(value, nullptr, 10);
    } else if (std::strcmp(flag, "--seconds") == 0) {
      args.seconds = std::atof(value);
    } else if (std::strcmp(flag, "--trace") == 0) {
      args.trace = std::atoi(value) != 0;
    } else if (std::strcmp(flag, "--trace-out") == 0) {
      args.trace_out = value;
    } else {
      return perfbench::Usage();
    }
  }
  if (argc % 2 == 0 || args.workload.empty() || args.seconds <= 0) {
    return perfbench::Usage();
  }
  perfbench::PinToCurrentCpu();
  return perfbench::Run(args);
}
