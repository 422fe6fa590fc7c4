#ifndef AGORA_SERVER_QUERY_HANDLER_H_
#define AGORA_SERVER_QUERY_HANDLER_H_

// Route dispatch for the AgoraDB HTTP front end. The handler owns the
// request semantics — admission control, per-query deadlines, the
// Status -> HTTP error mapping and result serialization — while the
// socket mechanics live in server.cc. It is deliberately transport-free
// (HttpRequest in, HttpResponse out) so the whole API surface
// unit-tests without opening a port.
//
// The embedded Database runs read statements (SELECT, bare or under
// EXPLAIN [ANALYZE]) concurrently — the catalog hands queries shared_ptr snapshots under a
// reader lock — but data-mutating statements (INSERT/UPDATE/DELETE/COPY)
// mutate column storage in place and need exclusion. The handler
// provides it with a deadline-aware reader/writer lock: read statements
// take the shared side and truly overlap (the admission cap
// AGORA_MAX_CONCURRENT_QUERIES is real parallelism), writes take the
// exclusive side and serialize against everything. Each waiter is
// bounded by its own deadline. The AdmissionController caps how many
// requests may hold or wait for the engine at once; everything beyond
// that is rejected immediately with 503 instead of piling onto the
// lock.

#include <atomic>
#include <chrono>
#include <string>

#include "common/mutex.h"
#include "common/thread_annotations.h"
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
  /// Upper clamp on any requested timeout (0 = unclamped).
  int64_t max_timeout_ms = 0;
};

/// Reader/writer capability with deadline-bounded acquisition, built
/// from a mutex + condition variable (std::shared_mutex has no timed
/// acquisition). Its locking contract is machine-checked: the class is
/// an AGORA_CAPABILITY, every method carries the matching
/// acquire/release annotation, and the internal state is
/// AGORA_GUARDED_BY the inner mutex, so the clang `-Wthread-safety` leg
/// proves every acquisition/release pairing — including the timed-out
/// paths — instead of a comment asserting it.
///
/// Writer-preferring: once a writer is waiting, new readers queue
/// behind it, so a steady stream of SELECTs cannot starve DML. All
/// waits are deadline-bounded via the TryLock*Until variants; a waiter
/// that times out leaves no residue (a timed-out writer clears its
/// waiting claim and re-wakes queued readers).
class AGORA_CAPABILITY("mutex") DeadlineSharedLock {
 public:
  /// Exclusive side (write statements: DDL/DML/COPY).
  void Lock() AGORA_ACQUIRE();
  /// False iff the deadline passed before exclusivity was available.
  bool TryLockUntil(std::chrono::steady_clock::time_point deadline)
      AGORA_TRY_ACQUIRE(true);
  void Unlock() AGORA_RELEASE();

  /// Shared side (read statements: SELECT, plain or explained). Any number of
  /// holders; excluded only by a writer (held or waiting).
  void LockShared() AGORA_ACQUIRE_SHARED();
  /// False iff the deadline passed before the shared side was free.
  bool TryLockSharedUntil(std::chrono::steady_clock::time_point deadline)
      AGORA_TRY_ACQUIRE_SHARED(true);
  void UnlockShared() AGORA_RELEASE_SHARED();

 private:
  Mutex mu_;
  CondVar cv_;
  int readers_ AGORA_GUARDED_BY(mu_) = 0;   // active shared holders
  bool writer_ AGORA_GUARDED_BY(mu_) = false;  // exclusive holder present
  // Blocks new readers (writer preference).
  int writers_waiting_ AGORA_GUARDED_BY(mu_) = 0;
};

/// Scoped exclusive acquisition of a DeadlineSharedLock, optionally
/// bounded by a deadline. The constructor is annotated as an
/// unconditional acquire even though a deadline-bounded attempt can
/// fail: nothing is AGORA_GUARDED_BY the engine lock (it is a
/// statement-level exclusion contract, not a data guard), so a failed
/// acquisition can never legitimize a guarded access — but callers must
/// still branch on held() before doing engine work.
class AGORA_SCOPED_CAPABILITY DeadlineWriteGuard {
 public:
  DeadlineWriteGuard(DeadlineSharedLock& mu, bool has_deadline,
                     std::chrono::steady_clock::time_point deadline)
      AGORA_ACQUIRE(mu)
      AGORA_TS_SUPPRESS(
          "conditional deadline-bounded acquisition; held() gates use")
      : mu_(mu), held_(true) {
    if (has_deadline) {
      held_ = mu_.TryLockUntil(deadline);
    } else {
      mu_.Lock();
    }
  }
  ~DeadlineWriteGuard() AGORA_RELEASE()
      AGORA_TS_SUPPRESS("conditional release matching the constructor") {
    if (held_) mu_.Unlock();
  }

  DeadlineWriteGuard(const DeadlineWriteGuard&) = delete;
  DeadlineWriteGuard& operator=(const DeadlineWriteGuard&) = delete;

  /// False iff the deadline expired before exclusivity was available.
  bool held() const { return held_; }

 private:
  DeadlineSharedLock& mu_;
  bool held_;
};

/// Scoped shared acquisition of a DeadlineSharedLock; see
/// DeadlineWriteGuard for the held() contract.
class AGORA_SCOPED_CAPABILITY DeadlineReadGuard {
 public:
  DeadlineReadGuard(DeadlineSharedLock& mu, bool has_deadline,
                    std::chrono::steady_clock::time_point deadline)
      AGORA_ACQUIRE_SHARED(mu)
      AGORA_TS_SUPPRESS(
          "conditional deadline-bounded acquisition; held() gates use")
      : mu_(mu), held_(true) {
    if (has_deadline) {
      held_ = mu_.TryLockSharedUntil(deadline);
    } else {
      mu_.LockShared();
    }
  }
  ~DeadlineReadGuard() AGORA_RELEASE_GENERIC()
      AGORA_TS_SUPPRESS("conditional release matching the constructor") {
    if (held_) mu_.UnlockShared();
  }

  DeadlineReadGuard(const DeadlineReadGuard&) = delete;
  DeadlineReadGuard& operator=(const DeadlineReadGuard&) = delete;

  /// False iff the deadline expired before the shared side was free.
  bool held() const { return held_; }

 private:
  DeadlineSharedLock& mu_;
  bool held_;
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
  DeadlineSharedLock engine_mu_;  // reads shared, writes exclusive; see file comment
  std::atomic<bool> draining_{false};
};

}  // namespace agora

#endif  // AGORA_SERVER_QUERY_HANDLER_H_
