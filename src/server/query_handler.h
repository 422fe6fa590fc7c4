#ifndef AGORA_SERVER_QUERY_HANDLER_H_
#define AGORA_SERVER_QUERY_HANDLER_H_

// Route dispatch for the AgoraDB HTTP front end. The handler owns the
// request semantics — admission control, per-query deadlines, the
// Status -> HTTP error mapping and result serialization — while the
// socket mechanics live in server.cc. It is deliberately transport-free
// (HttpRequest in, HttpResponse out) so the whole API surface
// unit-tests without opening a port.
//
// The Database serializes statements itself: each Execute takes the
// shared side of the engine's reader/writer lock for a SELECT (bare or
// under EXPLAIN [ANALYZE]) and the exclusive side for everything else,
// waiting no longer than the request's deadline. The handler arms that
// deadline and the AdmissionController caps how many requests may hold
// or wait for the engine at once; everything beyond that is rejected
// immediately with 503 instead of piling onto the lock.

#include <atomic>
#include <chrono>
#include <string>

#include "engine/database.h"
#include "server/admission.h"
#include "server/http.h"

namespace agora {

/// Query-path tunables. ServerOptions::FromEnv() populates these from
/// AGORA_MAX_CONCURRENT_QUERIES / AGORA_QUERY_TIMEOUT_MS.
struct QueryHandlerOptions {
  /// Queries allowed to hold or contend for the engine at once.
  int max_concurrent_queries = 4;
  /// Additional queries allowed to block in admission behind those.
  int max_queued_queries = 16;
  /// Deadline applied when a request does not send "timeout_ms" (0 =
  /// no default deadline).
  int64_t default_timeout_ms = 0;
};

/// Stateless-per-request router over one embedded Database.
class QueryHandler {
 public:
  /// Largest "timeout_ms" a request may send (24 hours). Larger values
  /// are rejected with 400 before any conversion: the cast to an integer
  /// and the deadline arithmetic would overflow.
  static constexpr int64_t kMaxRequestTimeoutMs = 86'400'000;

  QueryHandler(Database* db, QueryHandlerOptions options)
      : db_(db),
        options_(options),
        admission_(options.max_concurrent_queries,
                   options.max_queued_queries) {}

  /// Dispatches one parsed request:
  ///   POST /query    {"sql": "...", "timeout_ms": n?}  -> rows as JSON
  ///   GET  /metrics  Prometheus text exposition
  ///   GET  /healthz  {"status": "ok"} (503 "draining" during drain)
  /// Unknown routes get 404; wrong methods get 405.
  HttpResponse Handle(const HttpRequest& request);

  /// Stops admitting queries (404/healthz/metrics stay served so
  /// operators can watch the drain).
  void BeginDrain();
  bool draining() const { return draining_.load(std::memory_order_acquire); }

  /// Blocks until all admitted queries finished, up to `timeout`.
  bool WaitIdle(std::chrono::milliseconds timeout) {
    return admission_.WaitIdle(timeout);
  }

  AdmissionController& admission() { return admission_; }

  /// HTTP status expressing `status` (which must be non-OK): client
  /// errors (parse/bind/type/invalid-argument/out-of-range) map to 400,
  /// NotFound to 404, conflicts to 409, DeadlineExceeded to 408,
  /// ResourceExhausted to 503, Unimplemented to 501, the rest to 500.
  static int HttpStatusForStatus(const Status& status);

  /// Canonical JSON rendering of a result: {"columns": [...], "rows":
  /// [...], "row_count": n}. Deterministic — no timings, no pointers —
  /// so tests can compare served bytes against embedded execution.
  static std::string SerializeResultJson(const QueryResult& result);

  /// JSON error document: {"error": {"status": "...", "message": ...}}.
  static HttpResponse MakeErrorResponse(int http_status, const Status& status);

 private:
  HttpResponse HandleQuery(const HttpRequest& request);
  HttpResponse HandleMetrics();
  HttpResponse HandleHealthz();

  Database* db_;
  QueryHandlerOptions options_;
  AdmissionController admission_;
  std::atomic<bool> draining_{false};
};

}  // namespace agora

#endif  // AGORA_SERVER_QUERY_HANDLER_H_
