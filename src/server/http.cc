#include "server/http.h"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace agora {

namespace {

bool EqualsIgnoreCase(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (EqualsIgnoreCase(key, name)) return &value;
  }
  return nullptr;
}

std::string_view HttpReasonPhrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Payload Too Large";
    case 422: return "Unprocessable Entity";
    case 429: return "Too Many Requests";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    case 505: return "HTTP Version Not Supported";
    default: return "Unknown";
  }
}

std::string SerializeHttpHead(const HttpResponse& response,
                              bool close_connection) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " ";
  out += HttpReasonPhrase(response.status);
  out += "\r\n";
  for (const auto& [key, value] : response.headers) {
    out += key;
    out += ": ";
    out += value;
    out += "\r\n";
  }
  out += "Content-Length: " + std::to_string(response.body.size()) + "\r\n";
  if (close_connection) out += "Connection: close\r\n";
  out += "\r\n";
  return out;
}

HttpRequestParser::State HttpRequestParser::Fail(int status,
                                                std::string message) {
  state_ = State::kError;
  error_status_ = status;
  error_message_ = std::move(message);
  return state_;
}

HttpRequestParser::State HttpRequestParser::Feed(const char* data,
                                                 size_t size) {
  if (state_ == State::kError) return state_;
  buffer_.append(data, size);
  if (state_ == State::kDone) return state_;
  TryParse();
  return state_;
}

void HttpRequestParser::TryParse() {
  if (!headers_done_) {
    size_t header_end = buffer_.find("\r\n\r\n");
    if (header_end == std::string::npos) {
      if (buffer_.size() > limits_.max_header_bytes) {
        Fail(431, "request headers exceed " +
                      std::to_string(limits_.max_header_bytes) + " bytes");
      }
      return;  // need more bytes
    }
    if (header_end > limits_.max_header_bytes) {
      Fail(431, "request headers exceed " +
                    std::to_string(limits_.max_header_bytes) + " bytes");
      return;
    }
    // Request line.
    std::string_view head(buffer_.data(), header_end);
    size_t line_end = head.find("\r\n");
    std::string_view request_line =
        line_end == std::string_view::npos ? head : head.substr(0, line_end);
    size_t sp1 = request_line.find(' ');
    size_t sp2 =
        sp1 == std::string_view::npos ? sp1 : request_line.find(' ', sp1 + 1);
    if (sp1 == std::string_view::npos || sp2 == std::string_view::npos ||
        request_line.find(' ', sp2 + 1) != std::string_view::npos) {
      Fail(400, "malformed request line");
      return;
    }
    request_.method = std::string(request_line.substr(0, sp1));
    request_.target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
    request_.version = std::string(request_line.substr(sp2 + 1));
    if (request_.method.empty() || request_.target.empty() ||
        request_.target[0] != '/') {
      Fail(400, "malformed request line");
      return;
    }
    if (request_.version != "HTTP/1.1" && request_.version != "HTTP/1.0") {
      Fail(505, "unsupported HTTP version '" + request_.version + "'");
      return;
    }
    // Header fields.
    size_t pos = line_end == std::string_view::npos ? head.size()
                                                    : line_end + 2;
    while (pos < head.size()) {
      size_t eol = head.find("\r\n", pos);
      std::string_view line = eol == std::string_view::npos
                                  ? head.substr(pos)
                                  : head.substr(pos, eol - pos);
      pos = eol == std::string_view::npos ? head.size() : eol + 2;
      size_t colon = line.find(':');
      if (colon == std::string_view::npos || colon == 0) {
        Fail(400, "malformed header field");
        return;
      }
      request_.headers.emplace_back(std::string(Trim(line.substr(0, colon))),
                                    std::string(Trim(line.substr(colon + 1))));
    }
    // Body framing: Content-Length only; chunked bodies are out of scope
    // and rejected explicitly rather than misread.
    const std::string* te = request_.FindHeader("Transfer-Encoding");
    if (te != nullptr) {
      Fail(501, "Transfer-Encoding is not supported; use Content-Length");
      return;
    }
    content_length_ = 0;
    if (const std::string* cl = request_.FindHeader("Content-Length")) {
      char* end = nullptr;
      unsigned long long v = std::strtoull(cl->c_str(), &end, 10);
      if (end == cl->c_str() || *end != '\0') {
        Fail(400, "malformed Content-Length '" + *cl + "'");
        return;
      }
      if (v > limits_.max_body_bytes) {
        Fail(413, "request body of " + *cl + " bytes exceeds the " +
                      std::to_string(limits_.max_body_bytes) + "-byte limit");
        return;
      }
      content_length_ = static_cast<size_t>(v);
    }
    body_start_ = header_end + 4;
    headers_done_ = true;
  }
  if (buffer_.size() - body_start_ < content_length_) return;  // need body
  request_.body = buffer_.substr(body_start_, content_length_);
  state_ = State::kDone;
}

void HttpRequestParser::ConsumeRequest() {
  if (state_ != State::kDone) return;
  buffer_.erase(0, body_start_ + content_length_);
  body_start_ = 0;
  content_length_ = 0;
  headers_done_ = false;
  request_ = HttpRequest{};
  state_ = State::kNeedMore;
  if (!buffer_.empty()) TryParse();  // pipelined next request
}

}  // namespace agora
