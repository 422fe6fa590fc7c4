// agora_serve: the AgoraDB network front end.
//
//   agora_serve [--port=N] [--tpch-sf=F] [--hybrid-docs=N]
//
// Boots one embedded engine with TPC-H (relational) and a synthetic
// hybrid document collection (keyword+vector+attributes) in the same
// catalog, then serves it over HTTP:
//
//   POST /query    {"sql": "...", "timeout_ms": n?} -> rows as JSON
//   GET  /metrics  Prometheus text exposition
//   GET  /healthz  liveness/drain probe
//
// All knobs come from the environment (AGORA_PORT, AGORA_MAX_CONNECTIONS,
// AGORA_MAX_CONCURRENT_QUERIES, AGORA_QUERY_TIMEOUT_MS, plus the engine
// knobs in docs/OPERATIONS.md); the flags above override for ad-hoc runs.
//
// SIGTERM/SIGINT triggers a graceful drain: stop accepting, finish
// in-flight queries, print a final metrics snapshot, exit 0.

#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "server/bootstrap.h"
#include "server/server.h"

namespace {

// Self-pipe: the signal handler may only do async-signal-safe work, so
// it writes one byte and main() blocks on the read end.
int g_signal_pipe[2] = {-1, -1};

void HandleShutdownSignal(int /*signo*/) {
  const char byte = 1;
  // Best effort: if the pipe is full a drain is already pending.
  [[maybe_unused]] ssize_t n = write(g_signal_pipe[1], &byte, 1);
}

bool ParseFlag(const char* arg, const char* name, std::string* value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) != 0 || arg[len] != '=') return false;
  *value = arg + len + 1;
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  agora::ServerOptions options = agora::ServerOptions::FromEnv();
  double tpch_sf = 0.01;
  size_t hybrid_docs = 2000;
  for (int i = 1; i < argc; ++i) {
    std::string value;
    if (ParseFlag(argv[i], "--port", &value)) {
      const long port = std::strtol(value.c_str(), nullptr, 10);
      if (port < 0 || port > 65535) {
        std::fprintf(stderr, "agora_serve: --port must be 0..65535\n");
        return 2;
      }
      options.port = static_cast<int>(port);
    } else if (ParseFlag(argv[i], "--tpch-sf", &value)) {
      tpch_sf = std::atof(value.c_str());
    } else if (ParseFlag(argv[i], "--hybrid-docs", &value)) {
      hybrid_docs = static_cast<size_t>(std::atoll(value.c_str()));
    } else {
      std::fprintf(stderr,
                   "usage: agora_serve [--port=N] [--tpch-sf=F] "
                   "[--hybrid-docs=N]\n");
      return 2;
    }
  }

  std::printf("[agora_serve] loading data: tpch sf=%.3f, hybrid docs=%zu\n",
              tpch_sf, hybrid_docs);
  auto data = agora::MakeServedData(tpch_sf, hybrid_docs);
  if (!data.ok()) {
    std::fprintf(stderr, "[agora_serve] bootstrap failed: %s\n",
                 data.status().ToString().c_str());
    return 1;
  }

  agora::HttpServer server(data->db(), options);
  agora::Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "[agora_serve] %s\n", started.ToString().c_str());
    return 1;
  }
  std::printf(
      "[agora_serve] listening on 127.0.0.1:%d "
      "(max_connections=%d, max_concurrent_queries=%d, timeout_ms=%lld)\n",
      server.port(), options.max_connections, options.max_concurrent_queries,
      static_cast<long long>(options.query_timeout_ms));
  std::fflush(stdout);

  if (pipe(g_signal_pipe) != 0) {
    std::fprintf(stderr, "[agora_serve] pipe(): %s\n", std::strerror(errno));
    return 1;
  }
  struct sigaction action {};
  action.sa_handler = HandleShutdownSignal;
  sigaction(SIGTERM, &action, nullptr);
  sigaction(SIGINT, &action, nullptr);
  signal(SIGPIPE, SIG_IGN);  // dead peers surface as send() errors

  // Block until a shutdown signal arrives.
  char byte = 0;
  while (read(g_signal_pipe[0], &byte, 1) < 0 && errno == EINTR) {
  }

  std::printf("[agora_serve] shutdown signal received; draining\n");
  std::fflush(stdout);
  server.Stop();

  // Final metrics flush: the scrape target is gone after exit, so the
  // last snapshot goes to stdout for the log collector.
  std::printf("[agora_serve] final metrics snapshot:\n%s",
              data->db()->MetricsSnapshot(agora::MetricsFormat::kPrometheus)
                  .c_str());
  std::printf("[agora_serve] drained; bye\n");
  return 0;
}
