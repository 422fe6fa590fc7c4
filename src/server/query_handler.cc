#include "server/query_handler.h"

#include <algorithm>
#include <charconv>
#include <vector>

#include "server/json_util.h"

namespace agora {

namespace {

/// One result column's typed buffers, read in place by the row loop.
struct ColumnCursor {
  TypeId type;
  const uint8_t* validity;
  const int64_t* ints;  // kBool, kInt64, kDate
  const double* doubles;
  const std::string* strings;  // flat strings, or dictionary entries
  const uint32_t* codes;       // dictionary form: row -> entry
  /// Dictionary form with at least as many rows as entries: each entry's
  /// JSON text, escaped once. Empty otherwise (escape per row).
  std::vector<std::string> escaped;
};

/// Appends row `row` of `col` as a JSON value.
void AppendCellJson(std::string* out, const ColumnCursor& col, size_t row) {
  if (col.validity[row] == 0) {
    out->append("null", 4);
    return;
  }
  char buf[32];
  switch (col.type) {
    case TypeId::kBool:
      out->append(col.ints[row] != 0 ? "true" : "false");
      break;
    case TypeId::kInt64: {
      const char* end =
          std::to_chars(buf, buf + sizeof(buf), col.ints[row]).ptr;
      out->append(buf, static_cast<size_t>(end - buf));
      break;
    }
    case TypeId::kDouble:
      AppendJsonDouble(out, col.doubles[row]);
      break;
    case TypeId::kDate: {
      buf[0] = '"';
      const size_t len = 1 + FormatDate(col.ints[row], buf + 1);
      buf[len] = '"';
      out->append(buf, len + 1);
      break;
    }
    case TypeId::kString:
      if (col.codes == nullptr) {
        AppendJsonString(out, col.strings[row]);
      } else if (col.escaped.empty()) {
        AppendJsonString(out, col.strings[col.codes[row]]);
      } else {
        out->append(col.escaped[col.codes[row]]);
      }
      break;
    case TypeId::kInvalid:
      out->append("null", 4);
      break;
  }
}

HttpResponse JsonResponse(int status, std::string body) {
  HttpResponse response;
  response.status = status;
  response.headers.emplace_back("Content-Type", "application/json");
  response.body = std::move(body);
  return response;
}

}  // namespace

int QueryHandler::HttpStatusForStatus(const Status& status) {
  switch (status.code()) {
    case StatusCode::kParseError:
    case StatusCode::kBindError:
    case StatusCode::kTypeError:
    case StatusCode::kInvalidArgument:
    case StatusCode::kOutOfRange:
      return 400;
    case StatusCode::kNotFound:
      return 404;
    case StatusCode::kAlreadyExists:
    case StatusCode::kAborted:
      return 409;
    case StatusCode::kDeadlineExceeded:
      return 408;
    case StatusCode::kResourceExhausted:
      return 503;
    case StatusCode::kUnimplemented:
      return 501;
    case StatusCode::kIoError:
    case StatusCode::kInternal:
    default:
      return 500;
  }
}

HttpResponse QueryHandler::MakeErrorResponse(int http_status,
                                             const Status& status) {
  std::string body = "{\"error\": {\"status\": ";
  AppendJsonString(&body, StatusCodeToString(status.code()));
  body += ", \"message\": ";
  AppendJsonString(&body, status.message());
  body += "}}\n";
  return JsonResponse(http_status, std::move(body));
}

std::string QueryHandler::SerializeResultJson(const QueryResult& result) {
  std::string out = "{\"columns\": [";
  const Schema& schema = result.schema();
  for (size_t i = 0; i < schema.num_fields(); ++i) {
    if (i > 0) out += ", ";
    out += "{\"name\": ";
    AppendJsonString(&out, schema.field(i).name);
    out += ", \"type\": ";
    AppendJsonString(&out, TypeIdToString(schema.field(i).type));
    out += "}";
  }
  out += "], \"rows\": [";
  // The cursors read each column's typed buffers in place; a constant
  // column (one physical row) is expanded once so every cursor is flat,
  // and a dictionary column is escaped once per entry, not per row.
  // `bytes` sizes the body so it is not regrown: row brackets and
  // separators, then each column's widest text (a string column's actual
  // lengths, a BIGINT column's widest value).
  const size_t rows = result.num_rows();
  std::vector<ColumnVector> columns(result.data().columns());
  std::vector<ColumnCursor> cursors;
  cursors.reserve(columns.size());
  size_t bytes = 64 + rows * (6 + 2 * columns.size());
  for (ColumnVector& col : columns) {
    col.FlattenConstant();
    ColumnCursor cursor{col.type(), col.validity_data(), nullptr, nullptr,
                        nullptr, nullptr, {}};
    size_t widest = 5;  // null, true, false
    switch (col.type()) {
      case TypeId::kDouble:
        cursor.doubles = col.double_data();
        widest = 24;  // -d.dddddddddddddddde-308
        break;
      case TypeId::kString:
        widest = 0;
        if (col.is_dictionary()) {
          const std::vector<std::string>& entries =
              col.dictionary().entries();
          cursor.strings = entries.data();
          cursor.codes = col.codes_data();
          if (rows >= entries.size()) {
            cursor.escaped.resize(entries.size());
            for (size_t e = 0; e < entries.size(); ++e) {
              AppendJsonString(&cursor.escaped[e], entries[e]);
              widest = std::max(widest, cursor.escaped[e].size());
            }
            widest = std::max<size_t>(widest, 4);
          } else {
            for (size_t row = 0; row < rows; ++row) {
              bytes += cursor.validity[row] != 0
                           ? entries[cursor.codes[row]].size() + 2
                           : 4;
            }
          }
        } else {
          cursor.strings = col.string_data();
          for (size_t row = 0; row < rows; ++row) {
            bytes += std::max<size_t>(cursor.strings[row].size() + 2, 4);
          }
        }
        break;
      case TypeId::kInt64:
        cursor.ints = col.int64_data();
        widest = JsonIntColumnWidth(cursor.ints, cursor.validity, rows);
        break;
      case TypeId::kDate:
        cursor.ints = col.int64_data();
        widest = 12;  // "yyyy-mm-dd" (wider years are rare)
        break;
      default:
        cursor.ints = col.int64_data();
        break;
    }
    bytes += rows * widest;
    cursors.push_back(std::move(cursor));
  }
  const size_t num_columns = cursors.size();
  out.reserve(out.size() + bytes);
  for (size_t row = 0; row < rows; ++row) {
    out.append(row == 0 ? "\n  [" : ",\n  [", row == 0 ? 4 : 5);
    for (size_t col = 0; col < num_columns; ++col) {
      if (col > 0) out.append(", ", 2);
      AppendCellJson(&out, cursors[col], row);
    }
    out.push_back(']');
  }
  if (rows > 0) out.push_back('\n');
  out += "], \"row_count\": " + std::to_string(rows) + "}\n";
  return out;
}

HttpResponse QueryHandler::Handle(const HttpRequest& request) {
  if (request.target == "/query") {
    if (request.method != "POST") {
      return MakeErrorResponse(
          405, Status::InvalidArgument("/query requires POST"));
    }
    return HandleQuery(request);
  }
  if (request.target == "/metrics") {
    if (request.method != "GET") {
      return MakeErrorResponse(
          405, Status::InvalidArgument("/metrics requires GET"));
    }
    return HandleMetrics();
  }
  if (request.target == "/healthz") {
    if (request.method != "GET") {
      return MakeErrorResponse(
          405, Status::InvalidArgument("/healthz requires GET"));
    }
    return HandleHealthz();
  }
  db_->metrics().Add("server_requests_total", "other", 1.0);
  return MakeErrorResponse(
      404, Status::NotFound("no route for '" + request.target +
                            "'; try /query, /metrics or /healthz"));
}

HttpResponse QueryHandler::HandleMetrics() {
  db_->metrics().Add("server_requests_total", "metrics", 1.0);
  HttpResponse response;
  response.headers.emplace_back("Content-Type",
                                "text/plain; version=0.0.4; charset=utf-8");
  response.body = db_->MetricsSnapshot(MetricsFormat::kPrometheus);
  return response;
}

HttpResponse QueryHandler::HandleHealthz() {
  db_->metrics().Add("server_requests_total", "healthz", 1.0);
  if (draining()) {
    return JsonResponse(503, "{\"status\": \"draining\"}\n");
  }
  return JsonResponse(200, "{\"status\": \"ok\"}\n");
}

HttpResponse QueryHandler::HandleQuery(const HttpRequest& request) {
  MetricsRegistry& metrics = db_->metrics();
  metrics.Add("server_requests_total", "query", 1.0);
  const auto start = std::chrono::steady_clock::now();

  if (draining()) {
    metrics.Add("server_queries_rejected_total", 1.0);
    return MakeErrorResponse(
        503, Status::ResourceExhausted("server is draining"));
  }

  // Body: {"sql": "...", "timeout_ms": n?}.
  auto doc = ParseJson(request.body);
  if (!doc.ok()) {
    return MakeErrorResponse(400, doc.status());
  }
  if (!doc->is_object()) {
    return MakeErrorResponse(
        400, Status::InvalidArgument("request body must be a JSON object"));
  }
  const JsonValue* sql = doc->Find("sql");
  if (sql == nullptr || !sql->is_string()) {
    return MakeErrorResponse(
        400, Status::InvalidArgument(
                 "request body needs a string \"sql\" member"));
  }
  int64_t timeout_ms = options_.default_timeout_ms;
  if (const JsonValue* t = doc->Find("timeout_ms")) {
    if (!t->is_number() || !(t->number_value >= 0) ||
        t->number_value > static_cast<double>(kMaxRequestTimeoutMs)) {
      return MakeErrorResponse(
          400, Status::InvalidArgument(
                   "\"timeout_ms\" must be a number from 0 to " +
                   std::to_string(kMaxRequestTimeoutMs)));
    }
    timeout_ms = static_cast<int64_t>(t->number_value);
  }

  QueryControl control;
  control.set_timeout(std::chrono::milliseconds(timeout_ms));

  switch (admission_.Admit(control.deadline(), control.has_deadline())) {
    case AdmissionController::Outcome::kAdmitted:
      break;
    case AdmissionController::Outcome::kQueueFull:
      metrics.Add("server_queries_rejected_total", 1.0);
      return MakeErrorResponse(
          503, Status::ResourceExhausted(
                   "admission queue full (" +
                   std::to_string(admission_.max_concurrent()) +
                   " running, " + std::to_string(options_.max_queued_queries) +
                   " queued); retry later"));
    case AdmissionController::Outcome::kTimedOut:
      metrics.Add("server_queries_timed_out_total", 1.0);
      return MakeErrorResponse(
          408, Status::DeadlineExceeded(
                   "query deadline expired while queued for admission"));
    case AdmissionController::Outcome::kDraining:
      metrics.Add("server_queries_rejected_total", 1.0);
      return MakeErrorResponse(
          503, Status::ResourceExhausted("server is draining"));
  }
  metrics.Add("server_queries_admitted_total", 1.0);
  metrics.SetGauge("server_queries_active", admission_.active());

  // The engine picks the shared or exclusive side of its lock from the
  // parsed statement; a wait that outlives the deadline comes back as
  // DeadlineExceeded like an expired query.
  Result<QueryResult> result = db_->Execute(sql->string_value, &control);
  admission_.Release();
  metrics.SetGauge("server_queries_active", admission_.active());

  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
          .count();
  metrics.Observe("server_request_seconds", seconds);

  if (!result.ok()) {
    if (result.status().code() == StatusCode::kDeadlineExceeded) {
      metrics.Add("server_queries_timed_out_total", 1.0);
    }
    return MakeErrorResponse(HttpStatusForStatus(result.status()),
                             result.status());
  }
  // server_request_seconds stops before serialization (the handler's own
  // cost); the writer is observed on its own.
  const auto serialize_start = std::chrono::steady_clock::now();
  std::string body = SerializeResultJson(*result);
  metrics.Observe("server_serialize_seconds",
                  std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - serialize_start)
                      .count());
  return JsonResponse(200, std::move(body));
}

void QueryHandler::BeginDrain() {
  draining_.store(true, std::memory_order_release);
  admission_.BeginDrain();
}

}  // namespace agora
