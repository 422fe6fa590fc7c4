#ifndef AGORA_SERVER_HTTP_H_
#define AGORA_SERVER_HTTP_H_

// Minimal HTTP/1.1 wire layer for the AgoraDB server: an incremental
// request parser and a response-head serializer. Deliberately
// socket-free — the parser consumes byte ranges and the serializer
// produces a string (the server sends the body behind it unchanged), so
// the whole layer unit-tests without a network (tests/test_server.cc
// feeds it malformed and truncated frames directly).
//
// Scope: the subset the front end needs. Request line + headers +
// Content-Length bodies; no chunked transfer encoding, trailers, or
// continuation lines — requests using them are rejected with a clean
// 4xx/5xx rather than misparsed.

#include <cstddef>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace agora {

/// One parsed HTTP request.
struct HttpRequest {
  std::string method;   // "GET", "POST", ... (verbatim, case-sensitive)
  std::string target;   // request target, e.g. "/query"
  std::string version;  // "HTTP/1.1"
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;

  /// Case-insensitive header lookup; nullptr when absent.
  const std::string* FindHeader(std::string_view name) const;
};

/// One HTTP response under construction. SerializeHttpHead renders the
/// status line, the explicit headers and a computed Content-Length; the
/// body goes on the wire behind that head as is.
struct HttpResponse {
  int status = 200;
  std::vector<std::pair<std::string, std::string>> headers;
  std::string body;
};

/// Standard reason phrase for `status` ("OK", "Bad Request", ...).
std::string_view HttpReasonPhrase(int status);

/// Renders the head of `response` as an HTTP/1.1 message, up to and
/// including the blank line that ends it; the body follows it on the
/// wire. Appends Content-Length always and `Connection: close` when
/// `close_connection` is set.
std::string SerializeHttpHead(const HttpResponse& response,
                              bool close_connection);

/// Parser resource limits. Oversized frames fail with 431 (headers) or
/// 413 (body) instead of buffering without bound.
struct HttpParserLimits {
  size_t max_header_bytes = 16 * 1024;
  size_t max_body_bytes = 1 * 1024 * 1024;
};

/// Incremental HTTP/1.1 request parser. Feed() raw bytes as they arrive;
/// once it returns kDone, `request()` is complete and `ConsumeRequest()`
/// re-arms the parser for the next request on the same connection
/// (pipelined leftover bytes are retained). On kError, `error_status()`
/// is the HTTP status to answer before closing.
class HttpRequestParser {
 public:
  enum class State { kNeedMore, kDone, kError };

  explicit HttpRequestParser(HttpParserLimits limits = {})
      : limits_(limits) {}

  /// Appends `data` to the internal buffer and advances the parse.
  /// Idempotent after kDone/kError (extra bytes are buffered untouched).
  State Feed(const char* data, size_t size);

  State state() const { return state_; }
  const HttpRequest& request() const { return request_; }

  /// HTTP status describing the parse failure (400/413/431/505).
  int error_status() const { return error_status_; }
  const std::string& error_message() const { return error_message_; }

  /// Drops the completed request and restarts parsing at the first
  /// unconsumed byte (keep-alive reuse). Only valid in kDone.
  void ConsumeRequest();

 private:
  State Fail(int status, std::string message);
  /// Attempts to parse buffer_[0..) into request_; updates state_.
  void TryParse();

  HttpParserLimits limits_;
  std::string buffer_;
  size_t body_start_ = 0;      // offset of the body once headers parsed
  size_t content_length_ = 0;  // declared body size once headers parsed
  bool headers_done_ = false;
  HttpRequest request_;
  State state_ = State::kNeedMore;
  int error_status_ = 0;
  std::string error_message_;
};

}  // namespace agora

#endif  // AGORA_SERVER_HTTP_H_
