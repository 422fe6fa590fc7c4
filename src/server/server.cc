#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace agora {

namespace {

/// Integer env knob in [lo, hi] with fallback: unset, malformed or
/// out-of-range values yield `fallback` so a bad environment degrades to
/// defaults instead of refusing to boot (or overflowing later). strtoll
/// saturates on overflow, which lands outside every range used here.
int64_t EnvInt(const char* name, int64_t fallback, int64_t lo, int64_t hi) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const long long v = std::strtoll(raw, &end, 10);
  if (end == raw || *end != '\0' || v < lo || v > hi) return fallback;
  return v;
}

/// A count knob: any value an int holds, from 0.
int EnvCount(const char* name, int fallback) {
  return static_cast<int>(
      EnvInt(name, fallback, 0, std::numeric_limits<int>::max()));
}

/// Puts `response` on the wire: its head, then its body straight from
/// the response (never copied behind the head), gathered by sendmsg()
/// until every byte is sent. Partial writes and EINTR resume where they
/// stopped; false on a dead peer.
bool SendResponse(int fd, const HttpResponse& response,
                  bool close_connection) {
  const std::string head = SerializeHttpHead(response, close_connection);
  iovec parts[2] = {
      {const_cast<char*>(head.data()), head.size()},
      {const_cast<char*>(response.body.data()), response.body.size()}};
  iovec* pending = parts;
  size_t count = 2;
  while (count > 0) {
    msghdr message{};
    message.msg_iov = pending;
    message.msg_iovlen = count;
    const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    auto sent = static_cast<size_t>(n);
    while (count > 0 && sent >= pending->iov_len) {
      sent -= pending->iov_len;
      ++pending;
      --count;
    }
    if (count > 0) {
      pending->iov_base = static_cast<char*>(pending->iov_base) + sent;
      pending->iov_len -= sent;
    }
  }
  return true;
}

bool HeaderValueIs(const HttpRequest& request, std::string_view name,
                   std::string_view expected) {
  const std::string* value = request.FindHeader(name);
  if (value == nullptr || value->size() != expected.size()) return false;
  for (size_t i = 0; i < expected.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>((*value)[i])) !=
        std::tolower(static_cast<unsigned char>(expected[i]))) {
      return false;
    }
  }
  return true;
}

}  // namespace

ServerOptions ServerOptions::FromEnv() {
  ServerOptions options;
  options.port =
      static_cast<int>(EnvInt("AGORA_PORT", options.port, 0, 65535));
  options.max_connections =
      EnvCount("AGORA_MAX_CONNECTIONS", options.max_connections);
  options.max_concurrent_queries =
      EnvCount("AGORA_MAX_CONCURRENT_QUERIES", options.max_concurrent_queries);
  options.max_queued_queries =
      EnvCount("AGORA_MAX_QUEUED_QUERIES", options.max_queued_queries);
  options.query_timeout_ms =
      EnvInt("AGORA_QUERY_TIMEOUT_MS", options.query_timeout_ms, 0,
             QueryHandler::kMaxRequestTimeoutMs);
  return options;
}

HttpServer::HttpServer(Database* db, ServerOptions options)
    : db_(db), options_(options), handler_(db, options.handler_options()) {}

HttpServer::~HttpServer() {
  if (running()) Stop();
}

Status HttpServer::Start() {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IoError(std::string("socket(): ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  // Loopback by default: AgoraDB speaks plaintext HTTP with no
  // authentication, so exposure beyond the host is an explicit
  // deployment decision (front it with a proxy; see docs/SERVER.md).
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<uint16_t>(options_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError("bind(port " + std::to_string(options_.port) +
                           "): " + std::strerror(err));
  }
  if (::listen(listen_fd_, 64) < 0) {
    const int err = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::IoError(std::string("listen(): ") + std::strerror(err));
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_len) == 0) {
    port_ = ntohs(bound.sin_port);
  } else {
    port_ = options_.port;
  }
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread(&HttpServer::AcceptLoop, this);
  return Status::OK();
}

void HttpServer::AcceptLoop() {
  while (!draining_.load(std::memory_order_acquire)) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      break;  // listener shut down (drain) or fatal; exit either way
    }
    ReapFinished(/*join_all=*/false);
    if (draining_.load(std::memory_order_acquire)) {
      ::close(fd);
      break;
    }
    if (active_connections_.load(std::memory_order_relaxed) >=
        options_.max_connections) {
      db_->metrics().Add("server_connections_rejected_total", 1.0);
      HttpResponse busy = QueryHandler::MakeErrorResponse(
          503, Status::ResourceExhausted(
                   "connection limit of " +
                   std::to_string(options_.max_connections) + " reached"));
      SendResponse(fd, busy, /*close_connection=*/true);
      ::close(fd);
      continue;
    }
    // Bounded read timeout: connection threads wake every poll interval
    // to notice drain instead of blocking in recv() forever.
    timeval tv{};
    tv.tv_sec = options_.poll_interval_ms / 1000;
    tv.tv_usec = (options_.poll_interval_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));

    db_->metrics().Add("server_connections_total", 1.0);
    auto conn = std::make_unique<ConnThread>();
    ConnThread* raw = conn.get();
    {
      MutexLock lock(conn_mu_);
      connections_.push_back(std::move(conn));
    }
    raw->thread =
        std::thread(&HttpServer::ServeConnection, this, fd, raw);
  }
}

void HttpServer::ServeConnection(int fd, ConnThread* self) {
  const int active = active_connections_.fetch_add(1) + 1;
  db_->metrics().SetGauge("server_connections_active", active);

  HttpRequestParser parser(options_.limits);
  char buf[4096];
  bool close_conn = false;
  while (!close_conn) {
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) break;  // peer closed (covers truncated frames)
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        // Idle poll tick: drop idle connections once draining.
        if (draining_.load(std::memory_order_acquire)) break;
        continue;
      }
      if (errno == EINTR) continue;
      break;
    }
    parser.Feed(buf, static_cast<size_t>(n));
    while (parser.state() == HttpRequestParser::State::kDone) {
      const HttpRequest& request = parser.request();
      // In-flight requests complete even during drain; the connection
      // just refuses to linger for another one.
      const bool want_close =
          draining_.load(std::memory_order_acquire) ||
          HeaderValueIs(request, "Connection", "close") ||
          (request.version == "HTTP/1.0" &&
           !HeaderValueIs(request, "Connection", "keep-alive"));
      const HttpResponse response = handler_.Handle(request);
      if (!SendResponse(fd, response, want_close)) {
        close_conn = true;
        break;
      }
      parser.ConsumeRequest();
      if (want_close) close_conn = true;
    }
    if (parser.state() == HttpRequestParser::State::kError) {
      db_->metrics().Add("server_http_errors_total", 1.0);
      const HttpResponse response = QueryHandler::MakeErrorResponse(
          parser.error_status(),
          Status::InvalidArgument(parser.error_message()));
      SendResponse(fd, response, /*close_connection=*/true);
      break;
    }
  }
  ::close(fd);
  const int remaining = active_connections_.fetch_sub(1) - 1;
  db_->metrics().SetGauge("server_connections_active", remaining);
  self->done.store(true, std::memory_order_release);
}

void HttpServer::ReapFinished(bool join_all) {
  MutexLock lock(conn_mu_);
  for (auto it = connections_.begin(); it != connections_.end();) {
    ConnThread& conn = **it;
    if (join_all || conn.done.load(std::memory_order_acquire)) {
      if (conn.thread.joinable()) conn.thread.join();
      it = connections_.erase(it);
    } else {
      ++it;
    }
  }
}

void HttpServer::BeginDrain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  handler_.BeginDrain();
  // Wake the accept thread: shutdown() makes a blocked accept() return
  // without racing the fd's lifetime (the fd closes in Stop()).
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void HttpServer::Stop(std::chrono::milliseconds drain_timeout) {
  if (!running_.exchange(false)) return;
  BeginDrain();
  if (accept_thread_.joinable()) accept_thread_.join();
  // In-flight queries get `drain_timeout` to finish; connection threads
  // notice the drain flag within one poll interval after that.
  handler_.WaitIdle(drain_timeout);
  ReapFinished(/*join_all=*/true);
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

}  // namespace agora
