// The HTTP front end, tested at three layers:
//
//  * wire layer (no sockets): the incremental request parser against
//    malformed, oversized, truncated and pipelined frames;
//  * route layer (no sockets): dispatch, the Status -> HTTP mapping,
//    request-body validation;
//  * full server (real sockets on an ephemeral loopback port):
//    concurrent sessions whose responses must be byte-identical to
//    embedded execution, per-query timeouts firing mid-query, admission
//    rejections, and graceful drain finishing in-flight work.
//
// Everything here carries the "server" ctest label; the TSan tree runs
// it to race-check the connection threads against drain.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cfloat>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <memory>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "engine/database.h"
#include "server/bootstrap.h"
#include "server/http.h"
#include "server/http_client.h"
#include "server/json_util.h"
#include "server/query_handler.h"
#include "server/server.h"

namespace agora {
namespace {

// ---------------------------------------------------------------------
// Wire layer: HttpRequestParser
// ---------------------------------------------------------------------

HttpRequestParser::State FeedAll(HttpRequestParser* parser,
                                 const std::string& bytes) {
  return parser->Feed(bytes.data(), bytes.size());
}

TEST(HttpParserTest, ParsesSimpleGet) {
  HttpRequestParser parser;
  ASSERT_EQ(FeedAll(&parser, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n"),
            HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().method, "GET");
  EXPECT_EQ(parser.request().target, "/healthz");
  EXPECT_EQ(parser.request().version, "HTTP/1.1");
  ASSERT_NE(parser.request().FindHeader("host"), nullptr);
  EXPECT_EQ(*parser.request().FindHeader("HOST"), "x");
  EXPECT_TRUE(parser.request().body.empty());
}

TEST(HttpParserTest, ParsesBodyFedOneByteAtATime) {
  const std::string wire =
      "POST /query HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello";
  HttpRequestParser parser;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    ASSERT_EQ(parser.Feed(&wire[i], 1), HttpRequestParser::State::kNeedMore)
        << "byte " << i;
  }
  ASSERT_EQ(parser.Feed(&wire[wire.size() - 1], 1),
            HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().body, "hello");
}

TEST(HttpParserTest, KeepAliveRetainsPipelinedRequest) {
  HttpRequestParser parser;
  ASSERT_EQ(FeedAll(&parser,
                    "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n"),
            HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().target, "/a");
  parser.ConsumeRequest();
  ASSERT_EQ(parser.state(), HttpRequestParser::State::kDone);
  EXPECT_EQ(parser.request().target, "/b");
  parser.ConsumeRequest();
  EXPECT_EQ(parser.state(), HttpRequestParser::State::kNeedMore);
}

TEST(HttpParserTest, MalformedRequestLineIs400) {
  HttpRequestParser parser;
  ASSERT_EQ(FeedAll(&parser, "NONSENSE\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, MalformedHeaderIs400) {
  HttpRequestParser parser;
  ASSERT_EQ(FeedAll(&parser, "GET / HTTP/1.1\r\nno-colon-here\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, BadContentLengthIs400) {
  HttpRequestParser parser;
  ASSERT_EQ(
      FeedAll(&parser, "POST /q HTTP/1.1\r\nContent-Length: banana\r\n\r\n"),
      HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 400);
}

TEST(HttpParserTest, UnsupportedVersionIs505) {
  HttpRequestParser parser;
  ASSERT_EQ(FeedAll(&parser, "GET / HTTP/2.0\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 505);
}

TEST(HttpParserTest, ChunkedEncodingIsRejectedNotMisread) {
  HttpRequestParser parser;
  ASSERT_EQ(FeedAll(&parser,
                    "POST /q HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 501);
}

TEST(HttpParserTest, OversizedHeadersAre431) {
  HttpParserLimits limits;
  limits.max_header_bytes = 128;
  HttpRequestParser parser(limits);
  std::string wire = "GET / HTTP/1.1\r\nX-Big: ";
  wire.append(512, 'a');
  ASSERT_EQ(FeedAll(&parser, wire), HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParserTest, OversizedBodyIs413BeforeTheBodyArrives) {
  HttpParserLimits limits;
  limits.max_body_bytes = 64;
  HttpRequestParser parser(limits);
  // The declared length alone triggers the rejection; no body bytes sent.
  ASSERT_EQ(FeedAll(&parser, "POST /q HTTP/1.1\r\nContent-Length: 999\r\n\r\n"),
            HttpRequestParser::State::kError);
  EXPECT_EQ(parser.error_status(), 413);
}

TEST(HttpParserTest, SerializeRoundTrips) {
  HttpResponse response;
  response.status = 404;
  response.headers.emplace_back("Content-Type", "application/json");
  response.body = "{}";
  const std::string head = SerializeHttpHead(response, true);
  EXPECT_EQ(head.rfind("HTTP/1.1 404 Not Found\r\n", 0), 0u);
  EXPECT_NE(head.find("Content-Length: 2\r\n"), std::string::npos);
  EXPECT_NE(head.find("Connection: close\r\n"), std::string::npos);
  // The head ends at the blank line; the body is sent behind it as is.
  EXPECT_EQ(head.substr(head.size() - 4), "\r\n\r\n");
}

// ---------------------------------------------------------------------
// JSON layer
// ---------------------------------------------------------------------

TEST(JsonUtilTest, ParsesNestedDocument) {
  auto doc = ParseJson(
      R"({"sql": "SELECT 1", "timeout_ms": 250, "opts": {"x": [1, 2, true, null]}})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  ASSERT_TRUE(doc->is_object());
  EXPECT_EQ(doc->Find("sql")->string_value, "SELECT 1");
  EXPECT_EQ(doc->Find("timeout_ms")->number_value, 250.0);
  const JsonValue* x = doc->Find("opts")->Find("x");
  ASSERT_NE(x, nullptr);
  ASSERT_EQ(x->array_items.size(), 4u);
  EXPECT_TRUE(x->array_items[3].is_null());
}

TEST(JsonUtilTest, DecodesEscapes) {
  auto doc = ParseJson(R"({"s": "a\"b\\c\ndA"})");
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->Find("s")->string_value, "a\"b\\c\ndA");
}

TEST(JsonUtilTest, RejectsGarbage) {
  EXPECT_FALSE(ParseJson("{").ok());
  EXPECT_FALSE(ParseJson("{\"a\": }").ok());
  EXPECT_FALSE(ParseJson("[1, 2,]").ok());
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("nul").ok());
}

TEST(JsonUtilTest, EscapesControlCharacters) {
  std::string out;
  AppendJsonString(&out, "a\"b\\c\n\x01");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\u0001\"");
}

// ---------------------------------------------------------------------
// Route layer: QueryHandler without sockets
// ---------------------------------------------------------------------

class QueryHandlerTest : public ::testing::Test {
 protected:
  QueryHandlerTest() : handler_(&db_, {}) {
    auto r1 = db_.Execute("CREATE TABLE t (a BIGINT, b VARCHAR)");
    auto r2 = db_.Execute(
        "INSERT INTO t VALUES (1, 'x'), (2, 'y'), (3, NULL)");
    EXPECT_TRUE(r1.ok() && r2.ok());
  }

  HttpResponse Post(const std::string& target, const std::string& body) {
    HttpRequest request;
    request.method = "POST";
    request.target = target;
    request.version = "HTTP/1.1";
    request.body = body;
    return handler_.Handle(request);
  }

  HttpResponse Get(const std::string& target) {
    HttpRequest request;
    request.method = "GET";
    request.target = target;
    request.version = "HTTP/1.1";
    return handler_.Handle(request);
  }

  Database db_;
  QueryHandler handler_;
};

TEST_F(QueryHandlerTest, QueryReturnsRowsMatchingEmbeddedExecution) {
  const std::string sql = "SELECT a, b FROM t ORDER BY a";
  HttpResponse response = Post("/query", "{\"sql\": \"" + sql + "\"}");
  ASSERT_EQ(response.status, 200) << response.body;
  auto embedded = db_.Execute(sql);
  ASSERT_TRUE(embedded.ok());
  EXPECT_EQ(response.body, QueryHandler::SerializeResultJson(*embedded));
  EXPECT_NE(response.body.find("\"row_count\": 3"), std::string::npos);
}

TEST_F(QueryHandlerTest, TimeoutAboveTheBoundIs400) {
  // 1e30 used to cast to INT64_MIN (no deadline); 1e13 overflowed
  // now() + timeout into a deadline in the past.
  for (const std::string timeout :
       {"1e30", "1e13", "86400001", "1e400", "-1e30"}) {
    const HttpResponse response = Post(
        "/query",
        "{\"sql\": \"SELECT a FROM t\", \"timeout_ms\": " + timeout + "}");
    EXPECT_EQ(response.status, 400) << timeout;
    EXPECT_NE(response.body.find("\"InvalidArgument\""), std::string::npos)
        << response.body;
  }
  // The bound itself is a valid deadline.
  const HttpResponse at_bound = Post(
      "/query", "{\"sql\": \"SELECT a FROM t\", \"timeout_ms\": " +
                    std::to_string(QueryHandler::kMaxRequestTimeoutMs) + "}");
  EXPECT_EQ(at_bound.status, 200) << at_bound.body;
}

TEST_F(QueryHandlerTest, BadJsonBodyIs400) {
  EXPECT_EQ(Post("/query", "this is not json").status, 400);
  EXPECT_EQ(Post("/query", "[1, 2, 3]").status, 400);
  EXPECT_EQ(Post("/query", "{\"sql\": 42}").status, 400);
  EXPECT_EQ(Post("/query", "{}").status, 400);
  EXPECT_EQ(Post("/query", "{\"sql\": \"SELECT 1\", \"timeout_ms\": -5}")
                .status,
            400);
}

TEST_F(QueryHandlerTest, SqlErrorsMapToHttpStatuses) {
  // Parse error -> 400.
  EXPECT_EQ(Post("/query", R"({"sql": "SELEC nope"})").status, 400);
  // Unknown table -> NotFound -> 404.
  EXPECT_EQ(Post("/query", R"({"sql": "SELECT * FROM ghost"})").status, 404);
  // The error document names the Status code.
  HttpResponse response = Post("/query", R"({"sql": "SELEC nope"})");
  EXPECT_NE(response.body.find("ParseError"), std::string::npos);
}

TEST_F(QueryHandlerTest, UnknownRouteIs404WrongMethodIs405) {
  EXPECT_EQ(Get("/nope").status, 404);
  EXPECT_EQ(Get("/query").status, 405);
  EXPECT_EQ(Post("/metrics", "").status, 405);
  EXPECT_EQ(Post("/healthz", "").status, 405);
}

TEST_F(QueryHandlerTest, HealthzFlipsTo503OnDrain) {
  EXPECT_EQ(Get("/healthz").status, 200);
  handler_.BeginDrain();
  EXPECT_EQ(Get("/healthz").status, 503);
  EXPECT_EQ(Post("/query", R"({"sql": "SELECT 1"})").status, 503);
  // Metrics stay scrapeable during drain.
  EXPECT_EQ(Get("/metrics").status, 200);
}

TEST_F(QueryHandlerTest, MetricsEndpointSpeaksPrometheus) {
  Post("/query", R"({"sql": "SELECT 1"})");
  HttpResponse response = Get("/metrics");
  ASSERT_EQ(response.status, 200);
  EXPECT_NE(response.body.find("# TYPE agora_server_requests_total counter"),
            std::string::npos);
  EXPECT_NE(
      response.body.find("# TYPE agora_server_request_seconds histogram"),
      std::string::npos);
  EXPECT_NE(response.body.find("agora_server_request_seconds_bucket"),
            std::string::npos);
}

TEST_F(QueryHandlerTest, SerializationIsObservedSeparately) {
  const MetricsRegistry& metrics = db_.metrics();
  ASSERT_EQ(metrics.HistogramCount("server_serialize_seconds"), 0);
  Post("/query", R"({"sql": "SELECT a, b FROM t"})");
  Post("/query", R"({"sql": "SELECT nope FROM t"})");  // 400: no body
  EXPECT_EQ(metrics.HistogramCount("server_request_seconds"), 2);
  EXPECT_EQ(metrics.HistogramCount("server_serialize_seconds"), 1);
  EXPECT_GT(metrics.HistogramSum("server_serialize_seconds"), 0.0);
}

/// ServerOptions::FromEnv() with `name` set to `value`; the variable's
/// previous state is restored before returning.
ServerOptions FromEnvWith(const char* name, const char* value) {
  const char* previous = std::getenv(name);
  const std::string saved = previous != nullptr ? previous : "";
  setenv(name, value, 1);
  ServerOptions options = ServerOptions::FromEnv();
  if (previous != nullptr) {
    setenv(name, saved.c_str(), 1);
  } else {
    unsetenv(name);
  }
  return options;
}

TEST(ServerOptionsTest, OutOfRangeEnvValuesFallBackToDefaults) {
  const ServerOptions defaults;
  // 1e13 ms used to overflow now() + timeout on every query without its
  // own "timeout_ms".
  for (const char* bad : {"10000000000000", "86400001", "-1",
                          "99999999999999999999", "30s"}) {
    EXPECT_EQ(FromEnvWith("AGORA_QUERY_TIMEOUT_MS", bad).query_timeout_ms,
              defaults.query_timeout_ms)
        << bad;
  }
  EXPECT_EQ(FromEnvWith("AGORA_QUERY_TIMEOUT_MS", "86400000").query_timeout_ms,
            QueryHandler::kMaxRequestTimeoutMs);
  EXPECT_EQ(FromEnvWith("AGORA_QUERY_TIMEOUT_MS", "0").query_timeout_ms, 0);

  // 70000 used to be truncated to port 4464 by the uint16_t cast.
  for (const char* bad : {"70000", "65536", "-1"}) {
    EXPECT_EQ(FromEnvWith("AGORA_PORT", bad).port, defaults.port) << bad;
  }
  EXPECT_EQ(FromEnvWith("AGORA_PORT", "65535").port, 65535);

  struct CountKnob {
    const char* name;
    int ServerOptions::*field;
  };
  for (const CountKnob& knob :
       {CountKnob{"AGORA_MAX_CONNECTIONS", &ServerOptions::max_connections},
        CountKnob{"AGORA_MAX_CONCURRENT_QUERIES",
                  &ServerOptions::max_concurrent_queries},
        CountKnob{"AGORA_MAX_QUEUED_QUERIES",
                  &ServerOptions::max_queued_queries}}) {
    for (const char* bad : {"2147483648", "-1", "4294967297"}) {
      EXPECT_EQ(FromEnvWith(knob.name, bad).*knob.field, defaults.*knob.field)
          << knob.name << "=" << bad;
    }
    EXPECT_EQ(FromEnvWith(knob.name, "2147483647").*knob.field,
              std::numeric_limits<int>::max())
        << knob.name;
  }
}

TEST(StatusMappingTest, CoversEveryCategory) {
  EXPECT_EQ(QueryHandler::HttpStatusForStatus(Status::ParseError("x")), 400);
  EXPECT_EQ(QueryHandler::HttpStatusForStatus(Status::BindError("x")), 400);
  EXPECT_EQ(QueryHandler::HttpStatusForStatus(Status::TypeError("x")), 400);
  EXPECT_EQ(QueryHandler::HttpStatusForStatus(Status::InvalidArgument("x")),
            400);
  EXPECT_EQ(QueryHandler::HttpStatusForStatus(Status::OutOfRange("x")), 400);
  EXPECT_EQ(QueryHandler::HttpStatusForStatus(Status::NotFound("x")), 404);
  EXPECT_EQ(QueryHandler::HttpStatusForStatus(Status::AlreadyExists("x")),
            409);
  EXPECT_EQ(QueryHandler::HttpStatusForStatus(Status::Aborted("x")), 409);
  EXPECT_EQ(QueryHandler::HttpStatusForStatus(Status::DeadlineExceeded("x")),
            408);
  EXPECT_EQ(QueryHandler::HttpStatusForStatus(Status::ResourceExhausted("x")),
            503);
  EXPECT_EQ(QueryHandler::HttpStatusForStatus(Status::Unimplemented("x")),
            501);
  EXPECT_EQ(QueryHandler::HttpStatusForStatus(Status::IoError("x")), 500);
  EXPECT_EQ(QueryHandler::HttpStatusForStatus(Status::Internal("x")), 500);
}

// ---------------------------------------------------------------------
// Wire format: golden bytes
// ---------------------------------------------------------------------
//
// Literal expected bodies pin the /query response format byte for byte,
// so a serializer rewrite cannot drift from it unnoticed (the other
// server tests only compare SerializeResultJson with itself).

Schema AllTypesSchema() {
  return Schema({{"b", TypeId::kBool},
                 {"i", TypeId::kInt64},
                 {"d", TypeId::kDouble},
                 {"dt", TypeId::kDate},
                 {"s", TypeId::kString}});
}

QueryResult MakeResult(Schema schema, Chunk data) {
  return QueryResult(std::move(schema), std::move(data), ExecStats{});
}

TEST(WireFormatTest, EveryTypeAndNullInEveryType) {
  const Schema schema = AllTypesSchema();
  Chunk data(schema);
  data.AppendRow({Value::Bool(true), Value::Int64(0), Value::Double(1.5),
                  Value::Date(MakeDate(1970, 1, 1)), Value::String("plain")});
  data.AppendRow({Value::Null(TypeId::kBool), Value::Null(TypeId::kInt64),
                  Value::Null(TypeId::kDouble), Value::Null(TypeId::kDate),
                  Value::Null(TypeId::kString)});
  data.AppendRow({Value::Bool(false), Value::Int64(INT64_MIN),
                  Value::Double(0.1 + 0.2), Value::Date(MakeDate(1992, 2, 29)),
                  Value::String("")});
  data.AppendRow({Value::Bool(true), Value::Int64(INT64_MAX),
                  Value::Double(-0.0), Value::Date(MakeDate(1, 1, 1)),
                  Value::String("x")});
  data.AppendRow({Value::Null(TypeId::kBool), Value::Int64(-42),
                  Value::Double(100.0), Value::Date(MakeDate(9999, 12, 31)),
                  Value::Null(TypeId::kString)});
  data.AppendRow({Value::Bool(false), Value::Null(TypeId::kInt64),
                  Value::Null(TypeId::kDouble),
                  Value::Date(MakeDate(12345, 6, 7)), Value::String("z")});
  EXPECT_EQ(QueryHandler::SerializeResultJson(MakeResult(schema, data)),
            "{\"columns\": [{\"name\": \"b\", \"type\": \"BOOLEAN\"}, "
            "{\"name\": \"i\", \"type\": \"BIGINT\"}, "
            "{\"name\": \"d\", \"type\": \"DOUBLE\"}, "
            "{\"name\": \"dt\", \"type\": \"DATE\"}, "
            "{\"name\": \"s\", \"type\": \"VARCHAR\"}], \"rows\": [\n"
            "  [true, 0, 1.5, \"1970-01-01\", \"plain\"],\n"
            "  [null, null, null, null, null],\n"
            "  [false, -9223372036854775808, 0.30000000000000004, "
            "\"1992-02-29\", \"\"],\n"
            "  [true, 9223372036854775807, -0, \"0001-01-01\", \"x\"],\n"
            "  [null, -42, 100, \"9999-12-31\", null],\n"
            "  [false, null, null, \"12345-06-07\", \"z\"]\n"
            "], \"row_count\": 6}\n");
}

TEST(WireFormatTest, DoublesUse15DigitsUnlessOnly17RoundTrip) {
  const Schema schema({{"d", TypeId::kDouble}});
  Chunk data(schema);
  for (double v : {0.1, 1e-5, 1e-4, 1e15, 1e16, 1e300, -1e-300, 5e-324,
                   1.7976931348623157e308, 3.141592653589793,
                   9007199254740993.0, 123456789012345.0, 0.001, -2.5,
                   9223372036854775808.0, 1.0 / 3.0}) {
    data.AppendRow({Value::Double(v)});
  }
  EXPECT_EQ(QueryHandler::SerializeResultJson(MakeResult(schema, data)),
            "{\"columns\": [{\"name\": \"d\", \"type\": \"DOUBLE\"}], "
            "\"rows\": [\n"
            "  [0.1],\n"
            "  [1e-05],\n"
            "  [0.0001],\n"
            "  [1e+15],\n"
            "  [1e+16],\n"
            "  [1e+300],\n"
            "  [-1e-300],\n"
            "  [4.94065645841247e-324],\n"
            "  [1.7976931348623157e+308],\n"
            "  [3.1415926535897931],\n"
            "  [9007199254740992],\n"
            "  [123456789012345],\n"
            "  [0.001],\n"
            "  [-2.5],\n"
            "  [9.2233720368547758e+18],\n"
            "  [0.33333333333333331]\n"
            "], \"row_count\": 16}\n");
}

TEST(WireFormatTest, StringsEscapeQuotesBackslashesAndEveryControlByte) {
  const Schema schema({{"s", TypeId::kString}});
  Chunk data(schema);
  std::string controls;
  for (int c = 0; c < 0x20; ++c) controls.push_back(static_cast<char>(c));
  controls.push_back('\x7f');  // DEL is not a control byte in JSON
  data.AppendRow({Value::String("say \"hi\" \\ back/slash")});
  data.AppendRow({Value::String(controls)});
  data.AppendRow(
      {Value::String("h\xc3\xa9llo \xe2\x9c\x93 \xe6\x97\xa5\xe6\x9c\xac "
                     "\xf0\x9f\x98\x80")});
  data.AppendRow({Value::String(std::string(40, 'a') + "\"" +
                                std::string(40, 'b'))});
  EXPECT_EQ(
      QueryHandler::SerializeResultJson(MakeResult(schema, data)),
      "{\"columns\": [{\"name\": \"s\", \"type\": \"VARCHAR\"}], "
      "\"rows\": [\n"
      "  [\"say \\\"hi\\\" \\\\ back/slash\"],\n"
      "  [\"\\u0000\\u0001\\u0002\\u0003\\u0004\\u0005\\u0006\\u0007"
      "\\b\\t\\n\\u000b\\f\\r\\u000e\\u000f"
      "\\u0010\\u0011\\u0012\\u0013\\u0014\\u0015\\u0016\\u0017"
      "\\u0018\\u0019\\u001a\\u001b\\u001c\\u001d\\u001e\\u001f\x7f\"],\n"
      "  [\"h\xc3\xa9llo \xe2\x9c\x93 \xe6\x97\xa5\xe6\x9c\xac "
      "\xf0\x9f\x98\x80\"],\n"
      "  [\"" + std::string(40, 'a') + "\\\"" + std::string(40, 'b') +
      "\"]\n"
      "], \"row_count\": 4}\n");
}

TEST(WireFormatTest, ColumnNamesAreEscapedToo) {
  const Schema schema({{"a \"q\"", TypeId::kInt64}});
  Chunk data(schema);
  data.AppendRow({Value::Int64(7)});
  EXPECT_EQ(QueryHandler::SerializeResultJson(MakeResult(schema, data)),
            "{\"columns\": [{\"name\": \"a \\\"q\\\"\", \"type\": "
            "\"BIGINT\"}], \"rows\": [\n"
            "  [7]\n"
            "], \"row_count\": 1}\n");
}

TEST(WireFormatTest, ConstantColumnsSerializeLikeFlatOnes) {
  const Schema schema({{"c", TypeId::kDouble}, {"s", TypeId::kString},
                       {"n", TypeId::kInt64}});
  Chunk data;
  data.AddColumn(
      ColumnVector::MakeConstant(TypeId::kDouble, Value::Double(2.5), 3));
  data.AddColumn(
      ColumnVector::MakeConstant(TypeId::kString, Value::String("k\n"), 3));
  data.AddColumn(ColumnVector::MakeConstant(TypeId::kInt64,
                                            Value::Null(TypeId::kInt64), 3));
  EXPECT_EQ(QueryHandler::SerializeResultJson(MakeResult(schema, data)),
            "{\"columns\": [{\"name\": \"c\", \"type\": \"DOUBLE\"}, "
            "{\"name\": \"s\", \"type\": \"VARCHAR\"}, "
            "{\"name\": \"n\", \"type\": \"BIGINT\"}], \"rows\": [\n"
            "  [2.5, \"k\\n\", null],\n"
            "  [2.5, \"k\\n\", null],\n"
            "  [2.5, \"k\\n\", null]\n"
            "], \"row_count\": 3}\n");
}

TEST(WireFormatTest, EmptyAndZeroColumnResults) {
  const Schema schema({{"a", TypeId::kInt64}, {"b", TypeId::kString}});
  EXPECT_EQ(QueryHandler::SerializeResultJson(
                MakeResult(schema, Chunk(schema))),
            "{\"columns\": [{\"name\": \"a\", \"type\": \"BIGINT\"}, "
            "{\"name\": \"b\", \"type\": \"VARCHAR\"}], \"rows\": [], "
            "\"row_count\": 0}\n");
  EXPECT_EQ(QueryHandler::SerializeResultJson(MakeResult(Schema(), Chunk())),
            "{\"columns\": [], \"rows\": [], \"row_count\": 0}\n");
  Chunk rows_only;
  rows_only.SetExplicitRowCount(2);
  EXPECT_EQ(
      QueryHandler::SerializeResultJson(MakeResult(Schema(), rows_only)),
      "{\"columns\": [], \"rows\": [\n  [],\n  []\n], \"row_count\": 2}\n");
}

TEST(WireFormatTest, NonFiniteDoublesAreNull) {
  const Schema schema({{"d", TypeId::kDouble}});
  Chunk data(schema);
  for (double v : {std::numeric_limits<double>::infinity(),
                   -std::numeric_limits<double>::infinity(),
                   std::numeric_limits<double>::quiet_NaN(), 1.0}) {
    data.AppendRow({Value::Double(v)});
  }
  const std::string json =
      QueryHandler::SerializeResultJson(MakeResult(schema, data));
  EXPECT_EQ(json,
            "{\"columns\": [{\"name\": \"d\", \"type\": \"DOUBLE\"}], "
            "\"rows\": [\n  [null],\n  [null],\n  [null],\n  [1]\n], "
            "\"row_count\": 4}\n");
  EXPECT_TRUE(ParseJson(json).ok());
}

TEST(WireFormatTest, IntegerColumnWidthIsItsWidestCell) {
  // SerializeResultJson reserves a BIGINT column's widest cell a row, not
  // 20 bytes a cell. The width must cover every cell and, on ids,
  // six-digit amounts and small signed values with NULLs, stay within
  // 1.5x of the text the cells print as.
  auto text = [](const std::optional<int64_t>& v) {
    return v.has_value() ? std::to_string(*v) : std::string("null");
  };
  auto width = [](const std::vector<std::optional<int64_t>>& cells) {
    std::vector<int64_t> ints;
    std::vector<uint8_t> validity;
    for (const std::optional<int64_t>& v : cells) {
      ints.push_back(v.value_or(0));
      validity.push_back(v.has_value() ? 1 : 0);
    }
    return JsonIntColumnWidth(ints.data(), validity.data(), cells.size());
  };
  std::mt19937_64 rng(7);
  std::vector<std::vector<std::optional<int64_t>>> columns(3);
  for (int64_t id = 1; id <= 5000; ++id) {
    columns[0].push_back(id);
    columns[1].push_back(100000 + static_cast<int64_t>(rng() % 900000));
    columns[2].push_back(id % 50 == 0 ? std::nullopt
                                      : std::optional<int64_t>(
                                            static_cast<int64_t>(rng() % 1001) -
                                            500));
  }
  size_t reserved = 0;
  size_t printed = 0;
  for (const auto& cells : columns) {
    const size_t w = width(cells);
    size_t widest = 0;
    for (const std::optional<int64_t>& v : cells) {
      widest = std::max(widest, text(v).size());
      printed += text(v).size();
    }
    EXPECT_EQ(w, widest);
    reserved += w * cells.size();
  }
  EXPECT_GE(reserved, printed);
  EXPECT_LE(reserved, printed * 3 / 2);

  // The ends of the range, NULL next to short values, and no rows.
  EXPECT_EQ(width({INT64_MIN, -1}), 20u);
  EXPECT_EQ(width({0, INT64_MAX}), 19u);
  EXPECT_EQ(width({std::nullopt, 7}), 4u);
  EXPECT_EQ(width({std::nullopt, -12345}), 6u);
  EXPECT_EQ(width({std::nullopt}), 4u);
  EXPECT_EQ(width({}), 0u);
}

// ---------------------------------------------------------------------
// The double writer against printf, byte for byte
// ---------------------------------------------------------------------

/// The wire contract spelled with printf: %.15g when it reads back as
/// exactly `v` through strtod, else %.17g; null when not finite.
std::string PrintfDouble(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.15g", v);
  if (std::strtod(buf, nullptr) != v) {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

double FromBits(uint64_t bits) {
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

/// Values per class: enough that every binade and scale of the fixed
/// layout is hit many times.
constexpr size_t kSweep = 1'000'000;

/// Feeds `count` values from `next` through AppendJsonDouble and the
/// printf oracle; returns how many differ (reporting the first few).
template <typename Next>
size_t CountPrintfMismatches(size_t count, Next next) {
  size_t mismatches = 0;
  std::string got;
  for (size_t i = 0; i < count; ++i) {
    const double v = next(i);
    got.clear();
    AppendJsonDouble(&got, v);
    const std::string want = PrintfDouble(v);
    if (got != want && ++mismatches <= 5) {
      uint64_t bits;
      std::memcpy(&bits, &v, sizeof(bits));
      ADD_FAILURE() << "bits 0x" << std::hex << bits << ": wrote " << got
                    << ", printf " << want;
    }
  }
  return mismatches;
}

/// A random double with |v| in the binades of the fixed layout (%g uses
/// it for 1e-4 <= |v| < 1e15, binary exponents -14..49), random sign.
double RandomFixedRange(std::mt19937_64& rng) {
  const uint64_t exponent = 1023 - 14 + rng() % 64;
  return FromBits((rng() & 0x800fffffffffffffULL) | exponent << 52);
}

/// Each of `centers` with its `steps` nearest doubles on both sides,
/// then all of them negated.
std::vector<double> WithNeighbours(const std::vector<double>& centers,
                                   int steps) {
  std::vector<double> values;
  for (double center : centers) {
    values.push_back(center);
    double up = center;
    double down = center;
    for (int j = 0; j < steps; ++j) {
      up = std::nextafter(up, HUGE_VAL);
      down = std::nextafter(down, 0.0);
      values.push_back(up);
      values.push_back(down);
    }
  }
  const size_t positive = values.size();
  for (size_t i = 0; i < positive; ++i) values.push_back(-values[i]);
  return values;
}

TEST(DoubleWriterPropertyTest, RandomBitPatternsMatchPrintf) {
  std::mt19937_64 rng(20261018);
  // Every other value is any bit pattern (mostly the exponent layout and
  // the general path); the rest land in the fixed layout's binades.
  EXPECT_EQ(CountPrintfMismatches(2 * kSweep,
                                  [&](size_t i) {
                                    const uint64_t bits = rng();
                                    if (i % 2 == 0) return FromBits(bits);
                                    return RandomFixedRange(rng);
                                  }),
            0u);
}

TEST(DoubleWriterPropertyTest, DecimalsAtEveryScaleMatchPrintf) {
  std::mt19937_64 rng(7);
  // k/10^s for s = 0..6 with 1 to 17 digits in k: integers, prices,
  // rates, and decimals longer than 15 digits.
  EXPECT_EQ(CountPrintfMismatches(kSweep,
                                  [&](size_t i) {
                                    const int scale = static_cast<int>(i % 7);
                                    const int digits =
                                        1 + static_cast<int>(rng() % 17);
                                    const auto k = static_cast<int64_t>(
                                        rng() % static_cast<uint64_t>(
                                                    std::pow(10.0, digits)));
                                    const double v =
                                        static_cast<double>(k) /
                                        std::pow(10.0, scale);
                                    return rng() % 2 == 0 ? v : -v;
                                  }),
            0u);
}

TEST(DoubleWriterPropertyTest, PowersOfTwoAndNeighboursMatchPrintf) {
  // 2^e for every normal e: at m = 2^52 the gap below is half the gap
  // above.
  std::vector<double> powers;
  for (int e = -1022; e <= 1023; ++e) powers.push_back(std::ldexp(1.0, e));
  const std::vector<double> values = WithNeighbours(powers, 125);
  ASSERT_GE(values.size(), kSweep);
  EXPECT_EQ(CountPrintfMismatches(values.size(),
                                  [&](size_t i) { return values[i]; }),
            0u);
}

TEST(DoubleWriterPropertyTest, FewBitValuesAndExactTiesMatchPrintf) {
  std::mt19937_64 rng(3);
  // Significands with at most 12 set bits after the leading one have
  // short exact decimal expansions, so the 15th or 17th digit is often
  // an exact tie (round half to even); n + j/2^b with 14-16 integer
  // digits puts the tie right at the 15th digit.
  EXPECT_EQ(CountPrintfMismatches(
                kSweep,
                [&](size_t i) {
                  if (i % 2 == 0) {
                    const uint64_t bits = 1 + rng() % 12;
                    const uint64_t top = rng() >> (64 - bits);
                    const double v = FromBits(
                        (top << (52 - bits)) |
                        (1023 - 14 + rng() % 64) << 52);
                    return rng() % 2 == 0 ? v : -v;
                  }
                  const int b = 1 + static_cast<int>(rng() % 8);
                  const double n = static_cast<double>(
                      10'000'000'000'000 + rng() % 990'000'000'000'000);
                  return n + std::ldexp(static_cast<double>(
                                            rng() % (uint64_t{1} << b)),
                                        -b);
                }),
            0u);
}

TEST(DoubleWriterPropertyTest, LayoutBoundaryNeighboursMatchPrintf) {
  // 1e-4, 1e15 and every 10^k between them: where the layout and the
  // digit count change.
  std::vector<double> powers;
  for (int k = -4; k <= 15; ++k) {
    powers.push_back(std::strtod(("1e" + std::to_string(k)).c_str(), nullptr));
  }
  const std::vector<double> values = WithNeighbours(powers, 12'500);
  ASSERT_GE(values.size(), kSweep);
  EXPECT_EQ(CountPrintfMismatches(values.size(),
                                  [&](size_t i) { return values[i]; }),
            0u);
}

TEST(DoubleWriterPropertyTest, ZerosSubnormalsAndExtremesMatchPrintf) {
  for (double v : {0.0, -0.0, DBL_MAX, -DBL_MAX, DBL_MIN, -DBL_MIN,
                   DBL_TRUE_MIN, -DBL_TRUE_MIN}) {
    EXPECT_EQ(CountPrintfMismatches(1, [&](size_t) { return v; }), 0u) << v;
  }
  std::mt19937_64 rng(11);
  EXPECT_EQ(CountPrintfMismatches(
                kSweep,
                [&](size_t) {
                  return FromBits(rng() & 0x800fffffffffffffULL);
                }),
            0u);
}

/// Served bodies over the engine path: QueryHandler routes SQL through
/// Database::Execute, so collection (single- and multi-chunk, serial and
/// morsel-parallel) sits between the table and the pinned bytes.
class WireFormatServedTest : public ::testing::Test {
 protected:
  WireFormatServedTest() : handler_(&db_, {}) {}

  std::string Served(const std::string& sql) {
    HttpRequest request;
    request.method = "POST";
    request.target = "/query";
    request.version = "HTTP/1.1";
    request.body = "{\"sql\": " + JsonQuote(sql) + "}";
    HttpResponse response = handler_.Handle(request);
    EXPECT_EQ(response.status, 200) << response.body;
    return response.body;
  }

  Database db_;
  QueryHandler handler_;
};

TEST_F(WireFormatServedTest, LiteralAndComputedColumns) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (a BIGINT, d DATE, s VARCHAR)")
                  .ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1, DATE '1995-03-15', "
                          "'x'), (2, NULL, NULL), (3, DATE '2000-01-01', "
                          "'a\"b')")
                  .ok());
  EXPECT_EQ(Served("SELECT a, 2.5 AS c, 'k' AS k, a * 0.1 AS f, d, s, "
                   "a > 1 AS g FROM t ORDER BY a"),
            "{\"columns\": [{\"name\": \"a\", \"type\": \"BIGINT\"}, "
            "{\"name\": \"c\", \"type\": \"DOUBLE\"}, "
            "{\"name\": \"k\", \"type\": \"VARCHAR\"}, "
            "{\"name\": \"f\", \"type\": \"DOUBLE\"}, "
            "{\"name\": \"d\", \"type\": \"DATE\"}, "
            "{\"name\": \"s\", \"type\": \"VARCHAR\"}, "
            "{\"name\": \"g\", \"type\": \"BOOLEAN\"}], \"rows\": [\n"
            "  [1, 2.5, \"k\", 0.1, \"1995-03-15\", \"x\", false],\n"
            "  [2, 2.5, \"k\", 0.2, null, null, true],\n"
            "  [3, 2.5, \"k\", 0.30000000000000004, \"2000-01-01\", "
            "\"a\\\"b\", true]\n"
            "], \"row_count\": 3}\n");
  EXPECT_EQ(Served("SELECT a FROM t WHERE a > 10"),
            "{\"columns\": [{\"name\": \"a\", \"type\": \"BIGINT\"}], "
            "\"rows\": [], \"row_count\": 0}\n");
}

TEST_F(WireFormatServedTest, OverflowToInfinityServesValidJson) {
  ASSERT_TRUE(db_.Execute("CREATE TABLE t (x DOUBLE)").ok());
  ASSERT_TRUE(db_.Execute("INSERT INTO t VALUES (1e308), (0)").ok());
  const std::string body = Served("SELECT x * 10.0 AS y FROM t");
  EXPECT_EQ(body,
            "{\"columns\": [{\"name\": \"y\", \"type\": \"DOUBLE\"}], "
            "\"rows\": [\n  [null],\n  [0]\n], \"row_count\": 2}\n");
  auto doc = ParseJson(body);
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const JsonValue* rows = doc->Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_EQ(rows->array_items.size(), 2u);
  EXPECT_TRUE(rows->array_items[0].array_items[0].is_null());
}

TEST_F(WireFormatServedTest, MultiChunkResultsAtOneAndFourThreads) {
  constexpr int kRows = 5000;  // > 2 * kChunkSize: at least three chunks
  ASSERT_TRUE(
      db_.Execute("CREATE TABLE big (k BIGINT, v DOUBLE, s VARCHAR)").ok());
  for (int start = 0; start < kRows; start += 1000) {
    std::string insert = "INSERT INTO big VALUES ";
    for (int i = start; i < start + 1000; ++i) {
      if (i > start) insert += ", ";
      insert += "(" + std::to_string(i) + ", " +
                (i % 7 == 0 ? std::string("NULL")
                            : std::to_string(i) + ".25") +
                ", 'row" + std::to_string(i) + "')";
    }
    ASSERT_TRUE(db_.Execute(insert).ok());
  }
  std::string expected =
      "{\"columns\": [{\"name\": \"k\", \"type\": \"BIGINT\"}, "
      "{\"name\": \"v\", \"type\": \"DOUBLE\"}, "
      "{\"name\": \"s\", \"type\": \"VARCHAR\"}], \"rows\": [";
  for (int i = 0; i < kRows; ++i) {
    expected += i == 0 ? "\n  [" : ",\n  [";
    expected += std::to_string(i) + ", " +
                (i % 7 == 0 ? std::string("null")
                            : std::to_string(i) + ".25") +
                ", \"row" + std::to_string(i) + "\"]";
  }
  expected += "\n], \"row_count\": " + std::to_string(kRows) + "}\n";
  for (int threads : {1, 4}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    db_.set_execution_threads(threads);
    EXPECT_EQ(Served("SELECT k, v, s FROM big"), expected);
    EXPECT_EQ(Served("SELECT k, v, s FROM big WHERE k >= 0"), expected);
  }
  db_.set_execution_threads(0);
}

// ---------------------------------------------------------------------
// Full server over real sockets
// ---------------------------------------------------------------------

/// Server fixture: a small data set served on an ephemeral loopback
/// port. `slow_join_sql` runs long enough (tens of ms at least) for
/// timeout and drain tests to catch it mid-flight.
class HttpServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options = {}) {
    options.port = 0;  // ephemeral
    ASSERT_TRUE(db_ == nullptr);
    db_ = std::make_unique<Database>();
    ASSERT_TRUE(db_->Execute("CREATE TABLE t (k BIGINT, v BIGINT)").ok());
    // 6000 rows over 6 keys: the self-join below emits 6M rows, which
    // takes long enough to be interrupted but finishes in seconds.
    for (int batch = 0; batch < 6; ++batch) {
      std::string insert = "INSERT INTO t VALUES ";
      for (int i = 0; i < 1000; ++i) {
        const int row = batch * 1000 + i;
        if (i > 0) insert += ", ";
        insert += "(" + std::to_string(row % 6) + ", " +
                  std::to_string(row) + ")";
      }
      ASSERT_TRUE(db_->Execute(insert).ok());
    }
    server_ = std::make_unique<HttpServer>(db_.get(), options);
    ASSERT_TRUE(server_->Start().ok());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Stop();
  }

  static std::string QueryBody(const std::string& sql, int64_t timeout_ms = 0) {
    std::string body = "{\"sql\": " + JsonQuote(sql);
    if (timeout_ms > 0) {
      body += ", \"timeout_ms\": " + std::to_string(timeout_ms);
    }
    body += "}";
    return body;
  }

  const std::string slow_join_sql_ =
      "SELECT COUNT(*) AS n FROM t a JOIN t b ON a.k = b.k";

  std::unique_ptr<Database> db_;
  std::unique_ptr<HttpServer> server_;
};

TEST_F(HttpServerTest, ServesQueriesByteIdenticalToEmbedded) {
  StartServer();
  const std::string sql = "SELECT k, COUNT(*) AS c FROM t GROUP BY k ORDER BY k";
  auto embedded = db_->Execute(sql);
  ASSERT_TRUE(embedded.ok());
  const std::string expected = QueryHandler::SerializeResultJson(*embedded);

  HttpClient client("127.0.0.1", server_->port());
  auto response = client.Post("/query", QueryBody(sql));
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
  EXPECT_EQ(response->body, expected);
}

TEST_F(HttpServerTest, ConcurrentSessionsAllByteIdentical) {
  StartServer();
  const std::vector<std::string> workload = {
      "SELECT k, COUNT(*) AS c FROM t GROUP BY k ORDER BY k",
      "SELECT COUNT(*) AS n FROM t",
      "SELECT k, SUM(v) AS s FROM t GROUP BY k ORDER BY k",
      "SELECT v FROM t WHERE k = 3 ORDER BY v LIMIT 5",
  };
  // Reference bytes from embedded execution, before any HTTP traffic.
  std::vector<std::string> expected;
  for (const auto& sql : workload) {
    auto result = db_->Execute(sql);
    ASSERT_TRUE(result.ok()) << sql;
    expected.push_back(QueryHandler::SerializeResultJson(*result));
  }

  constexpr int kClients = 8;
  constexpr int kRequestsPerClient = 6;
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      HttpClient client("127.0.0.1", server_->port());
      for (int r = 0; r < kRequestsPerClient; ++r) {
        const size_t q = (c + r) % workload.size();
        auto response = client.Post("/query", QueryBody(workload[q]));
        if (!response.ok() || response->status != 200 ||
            response->body != expected[q]) {
          ++failures;
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST_F(HttpServerTest, TimeoutFiresMidQueryAndEngineSurvives) {
  StartServer();
  HttpClient client("127.0.0.1", server_->port());
  auto slow = client.Post("/query", QueryBody(slow_join_sql_,
                                              /*timeout_ms=*/30));
  ASSERT_TRUE(slow.ok()) << slow.status().ToString();
  EXPECT_EQ(slow->status, 408) << slow->body;
  EXPECT_NE(slow->body.find("DeadlineExceeded"), std::string::npos);

  // The engine must stay fully usable after the cancelled query.
  auto after = client.Post("/query", QueryBody("SELECT COUNT(*) AS n FROM t"));
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->status, 200);
  EXPECT_NE(after->body.find("[6000]"), std::string::npos) << after->body;

  // And the cancellation is visible in the metrics.
  EXPECT_GE(db_->metrics().CounterValue("server_queries_timed_out_total", ""),
            1.0);
}

// A write whose deadline passes while a read holds the engine fails
// before it runs, embedded (DeadlineExceeded) and served (408) alike,
// while statements the parser classifies as reads keep sharing it.
TEST_F(HttpServerTest, WriteDeadlineExpiresWhileAReadHoldsTheEngine) {
  StartServer();
  const std::string update = "UPDATE t SET v = v + 1 WHERE k = 0";
  auto sum = [&] {
    auto result = db_->Execute("SELECT SUM(v) AS s FROM t");
    return result.ok() ? result->Get(0, 0).ToString() : "error";
  };
  auto with_deadline = [](int64_t ms) {
    auto control = std::make_unique<QueryControl>();
    control->set_timeout(std::chrono::milliseconds(ms));
    return control;
  };
  HttpClient client("127.0.0.1", server_->port());
  // The checks only count if the slow join (about 0.3 s in a Release
  // build) still runs after them; a run that ends sooner is retried.
  bool conclusive = false;
  for (int attempt = 0; attempt < 5 && !conclusive; ++attempt) {
    const std::string sum_before = sum();
    std::atomic<bool> reader_done{false};
    std::thread reader([&] {
      EXPECT_TRUE(db_->Execute(slow_join_sql_).ok());
      reader_done.store(true);
    });
    // The join charges memory only once it runs under the shared side.
    const int64_t idle = db_->memory_tracker()->reserved();
    while (db_->memory_tracker()->reserved() == idle && !reader_done.load()) {
      std::this_thread::yield();
    }
    auto embedded = db_->Execute(update, with_deadline(20).get());
    const double timed_out =
        db_->metrics().CounterValue("server_queries_timed_out_total", "");
    auto served = client.Post("/query", QueryBody(update, /*timeout_ms=*/20));
    const double timed_out_after =
        db_->metrics().CounterValue("server_queries_timed_out_total", "");
    // Parsed SELECTs, whatever comes before the keyword, share the
    // engine with the running read.
    auto commented = db_->Execute("-- a comment first\nSELECT COUNT(*) FROM t",
                                  with_deadline(5000).get());
    auto explained =
        db_->Execute("EXPLAIN SELECT k FROM t", with_deadline(5000).get());
    conclusive = !reader_done.load();
    reader.join();
    if (!conclusive) continue;

    EXPECT_EQ(embedded.status().code(), StatusCode::kDeadlineExceeded);
    EXPECT_NE(embedded.status().message().find("waiting for the engine"),
              std::string::npos)
        << embedded.status().ToString();
    ASSERT_TRUE(served.ok()) << served.status().ToString();
    EXPECT_EQ(served->status, 408) << served->body;
    EXPECT_NE(served->body.find("waiting for the engine"), std::string::npos)
        << served->body;
    EXPECT_EQ(timed_out_after, timed_out + 1.0);
    EXPECT_TRUE(commented.ok()) << commented.status().ToString();
    EXPECT_TRUE(explained.ok()) << explained.status().ToString();
    EXPECT_EQ(sum(), sum_before);
  }
  EXPECT_TRUE(conclusive) << "the slow join never outlasted the checks";
}

TEST_F(HttpServerTest, AdmissionRejectsBeyondQueueWith503) {
  ServerOptions options;
  options.max_concurrent_queries = 1;
  options.max_queued_queries = 0;
  StartServer(options);

  std::thread holder([&] {
    HttpClient client("127.0.0.1", server_->port());
    auto response = client.Post("/query", QueryBody(slow_join_sql_));
    EXPECT_TRUE(response.ok() && response->status == 200)
        << (response.ok() ? response->body : response.status().ToString());
  });
  // Wait until the slow query is actually admitted.
  while (server_->handler().admission().active() == 0) {
    std::this_thread::yield();
  }
  HttpClient client("127.0.0.1", server_->port());
  auto rejected = client.Post("/query", QueryBody("SELECT 1"));
  ASSERT_TRUE(rejected.ok());
  EXPECT_EQ(rejected->status, 503) << rejected->body;
  EXPECT_NE(rejected->body.find("ResourceExhausted"), std::string::npos);
  holder.join();
  EXPECT_GE(db_->metrics().CounterValue("server_queries_rejected_total", ""),
            1.0);
}

TEST_F(HttpServerTest, OversizedBodyOverTheWireIs413) {
  ServerOptions options;
  options.limits.max_body_bytes = 1024;
  StartServer(options);
  HttpClient client("127.0.0.1", server_->port());
  std::string huge = "{\"sql\": \"SELECT ";
  huge.append(4096, '1');
  huge += "\"}";
  auto response = client.Post("/query", huge);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 413);
}

TEST_F(HttpServerTest, TruncatedFrameLeavesServerHealthy) {
  StartServer();
  {
    // Half a request, then the client vanishes.
    HttpClient rude("127.0.0.1", server_->port());
    ASSERT_TRUE(
        rude.SendRaw("POST /query HTTP/1.1\r\nContent-Length: 999\r\n\r\n{")
            .ok());
  }
  HttpClient client("127.0.0.1", server_->port());
  auto response = client.Get("/healthz");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_EQ(response->status, 200);
}

TEST_F(HttpServerTest, MalformedWireRequestsGetStructuredErrors) {
  StartServer();
  struct Case {
    const char* wire;
    int expected_status;
  };
  const Case cases[] = {
      {"NONSENSE\r\n\r\n", 400},
      {"GET / HTTP/9.9\r\n\r\n", 505},
      {"POST /query HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n", 501},
  };
  for (const Case& c : cases) {
    HttpClient client("127.0.0.1", server_->port());
    auto response = client.SendRawAndRead(c.wire);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, c.expected_status) << c.wire;
  }
}

TEST_F(HttpServerTest, DrainFinishesInFlightQueryAndRejectsNewOnes) {
  StartServer();
  std::atomic<bool> in_flight_done{false};
  std::atomic<int> in_flight_status{0};
  std::string in_flight_body;
  std::thread slow([&] {
    HttpClient client("127.0.0.1", server_->port());
    auto response = client.Post("/query", QueryBody(slow_join_sql_));
    if (response.ok()) {
      in_flight_status = response->status;
      in_flight_body = response->body;
    }
    in_flight_done = true;
  });
  // Wait for the query to be admitted, then start the drain under it.
  while (server_->handler().admission().active() == 0) {
    std::this_thread::yield();
  }
  server_->BeginDrain();

  // New queries are refused while the old one keeps running.
  HttpClient late("127.0.0.1", server_->port());
  auto rejected = late.Post("/query", QueryBody("SELECT 1"));
  if (rejected.ok()) {
    EXPECT_EQ(rejected->status, 503);
  }  // else: listener already closed — equally acceptable during drain

  slow.join();
  ASSERT_TRUE(in_flight_done.load());
  EXPECT_EQ(in_flight_status.load(), 200) << in_flight_body;
  // 6000 rows over 6 keys -> 6 * 1000^2 joined rows.
  EXPECT_NE(in_flight_body.find("[6000000]"), std::string::npos)
      << in_flight_body;
  server_->Stop();
  EXPECT_FALSE(server_->running());
}

TEST_F(HttpServerTest, StopIsIdempotentAndEngineOutlivesServer) {
  StartServer();
  server_->Stop();
  server_->Stop();
  auto result = db_->Execute("SELECT COUNT(*) AS n FROM t");
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result->Get(0, 0).int64_value(), 6000);
}

TEST_F(HttpServerTest, BodiesLargerThanAMebibyteArriveWhole) {
  StartServer();
  // 1200 rows of 1000-byte strings: a ~1.2 MiB body, far more than the
  // socket buffers hold, so it streams out while the client reads.
  ASSERT_TRUE(db_->Execute("CREATE TABLE wide (k BIGINT, s VARCHAR)").ok());
  const std::string filler(1000, 'w');
  for (int start = 0; start < 1200; start += 100) {
    std::string insert = "INSERT INTO wide VALUES ";
    for (int i = start; i < start + 100; ++i) {
      if (i > start) insert += ", ";
      insert += "(" + std::to_string(i) + ", '" + filler + "')";
    }
    ASSERT_TRUE(db_->Execute(insert).ok());
  }
  const std::string sql = "SELECT k, s FROM wide";
  auto embedded = db_->Execute(sql);
  ASSERT_TRUE(embedded.ok());
  const std::string expected = QueryHandler::SerializeResultJson(*embedded);
  ASSERT_GT(expected.size(), size_t{1} << 20);

  HttpClient client("127.0.0.1", server_->port());
  for (int round = 0; round < 2; ++round) {  // keep-alive reuse after it
    auto response = client.Post("/query", QueryBody(sql));
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->status, 200);
    EXPECT_EQ(response->body.size(), expected.size());
    EXPECT_TRUE(response->body == expected);
  }
}

// ---------------------------------------------------------------------
// Served bootstrap: mixed TPC-H + hybrid catalog
// ---------------------------------------------------------------------

TEST(BootstrapTest, ServesTpchAndHybridFromOneCatalog) {
  auto data = MakeServedData(/*tpch_sf=*/0.001, /*hybrid_docs=*/64,
                             /*dim=*/8);
  ASSERT_TRUE(data.ok()) << data.status().ToString();
  Database* db = data->db();
  auto relational = db->Execute("SELECT COUNT(*) AS n FROM lineitem");
  ASSERT_TRUE(relational.ok()) << relational.status().ToString();
  EXPECT_GT(relational->Get(0, 0).int64_value(), 0);
  auto hybrid = db->Execute("SELECT COUNT(*) AS n FROM docs");
  ASSERT_TRUE(hybrid.ok()) << hybrid.status().ToString();
  EXPECT_EQ(hybrid->Get(0, 0).int64_value(), 64);
}

}  // namespace
}  // namespace agora
