#ifndef AGORA_SERVER_SERVER_H_
#define AGORA_SERVER_SERVER_H_

// The AgoraDB network front end: a thread-per-connection HTTP/1.1
// listener over the transport-free parser (http.h) and router
// (query_handler.h). Thread-per-connection is deliberate — the engine
// executes one query at a time and parallelizes *inside* the query via
// the morsel pool, so connection threads spend their lives blocked on
// recv()/admission, and an event loop would buy nothing but complexity.
// The connection cap bounds thread count; admission control bounds how
// many of those threads may touch the engine.
//
// Shutdown protocol (SIGTERM in agora_serve): BeginDrain() closes the
// listen socket and flips the drain flag; connection threads notice at
// their next read timeout, finish any request already in flight, and
// exit. Stop() then waits for in-flight queries, joins every thread and
// returns — after which the caller can flush metrics and exit cleanly.

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <thread>

#include "common/mutex.h"
#include "common/thread_annotations.h"
#include "engine/database.h"
#include "server/http.h"
#include "server/query_handler.h"

namespace agora {

/// Listener + query-path tunables, each with an environment knob (see
/// docs/OPERATIONS.md for the full table).
struct ServerOptions {
  int port = 7878;              // AGORA_PORT (0 = ephemeral, tests)
  int max_connections = 64;     // AGORA_MAX_CONNECTIONS
  int max_concurrent_queries = 4;   // AGORA_MAX_CONCURRENT_QUERIES
  int max_queued_queries = 16;      // AGORA_MAX_QUEUED_QUERIES
  int64_t query_timeout_ms = 30000;  // AGORA_QUERY_TIMEOUT_MS (0 = none)
  HttpParserLimits limits;

  /// Read interval between drain-flag checks on idle connections; also
  /// the upper bound on how long drain waits for an idle connection.
  int poll_interval_ms = 200;

  /// Options with every AGORA_* server knob applied over the defaults.
  /// Malformed or out-of-range values fall back to the default (the
  /// server must come up under a bad env; docs/OPERATIONS.md lists the
  /// ranges).
  static ServerOptions FromEnv();

  QueryHandlerOptions handler_options() const {
    QueryHandlerOptions h;
    h.max_concurrent_queries = max_concurrent_queries;
    h.max_queued_queries = max_queued_queries;
    h.default_timeout_ms = query_timeout_ms;
    return h;
  }
};

/// One listening HTTP server over one embedded Database. The Database
/// must outlive the server. Start() returns once the socket is bound
/// and the accept thread is running.
class HttpServer {
 public:
  HttpServer(Database* db, ServerOptions options);
  ~HttpServer();

  HttpServer(const HttpServer&) = delete;
  HttpServer& operator=(const HttpServer&) = delete;

  /// Binds, listens and spawns the accept thread. IoError on bind
  /// failure (port in use, permission).
  Status Start();

  /// Port actually bound — differs from options.port when 0 was
  /// requested (tests bind ephemeral ports to avoid collisions).
  int port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Graceful-shutdown entry: closes the listener, rejects new queries,
  /// lets in-flight requests finish. Idempotent; returns immediately.
  void BeginDrain();

  /// BeginDrain() + wait for in-flight queries (bounded by
  /// `drain_timeout`) + join all threads. After Stop() the object is
  /// inert; the Database remains usable.
  void Stop(std::chrono::milliseconds drain_timeout =
                std::chrono::milliseconds(10000));

  QueryHandler& handler() { return handler_; }
  const ServerOptions& options() const { return options_; }

 private:
  /// One entry per live connection thread; `done` lets the accept loop
  /// reap finished threads so the list stays bounded by live
  /// connections, not by total connections served.
  struct ConnThread {
    std::thread thread;
    std::atomic<bool> done{false};
  };

  void AcceptLoop();
  void ServeConnection(int fd, ConnThread* self);
  void ReapFinished(bool join_all) AGORA_EXCLUDES(conn_mu_);

  Database* db_;
  ServerOptions options_;
  QueryHandler handler_;
  int listen_fd_ = -1;
  int port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<int> active_connections_{0};
  std::thread accept_thread_;
  Mutex conn_mu_;
  // The list structure is guarded; each ConnThread's fields are owned by
  // the connection thread itself (`done` is the atomic handshake).
  std::list<std::unique_ptr<ConnThread>> connections_
      AGORA_GUARDED_BY(conn_mu_);
};

}  // namespace agora

#endif  // AGORA_SERVER_SERVER_H_
