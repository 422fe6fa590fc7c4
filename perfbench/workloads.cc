#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <map>
#include <optional>
#include <utility>

#include "common/rng.h"
#include "server/json_util.h"
#include "server/query_handler.h"
#include "tpch/tpch.h"
#include "types/type.h"

namespace perfbench {
namespace {

using agora::Database;
using agora::JsonValue;
using agora::Result;
using agora::Status;
using agora::Table;

// ---------------------------------------------------------------------------
// Shared helpers

/// Canonical JSON of `sql` run embedded with one worker per pipeline.
/// Results are byte-identical at every thread count by contract, so
/// this is the reference served responses are compared against byte
/// for byte. (Turning the parallel path off altogether is not: it
/// changes the plan, and with it the order of floating-point sums.)
Result<std::string> SerialJson(Database* db, const std::string& sql) {
  const int threads = db->physical_options().num_threads;
  db->set_execution_threads(1);
  Result<agora::QueryResult> result = db->Execute(sql);
  db->set_execution_threads(threads);
  if (!result.ok()) return result.status();
  return agora::QueryHandler::SerializeResultJson(*result);
}

/// The "rows" array of a result document.
Result<std::vector<JsonValue>> Rows(const std::string& body) {
  AGORA_ASSIGN_OR_RETURN(JsonValue doc, agora::ParseJson(body));
  const JsonValue* rows = doc.Find("rows");
  if (rows == nullptr || !rows->is_array()) {
    return Status::Internal("result document has no rows array");
  }
  return rows->array_items;
}

double Number(const JsonValue& row, size_t col) {
  if (!row.is_array() || col >= row.array_items.size()) return std::nan("");
  return row.array_items[col].number_value;
}

const std::string& Text(const JsonValue& row, size_t col) {
  static const std::string kEmpty;
  if (!row.is_array() || col >= row.array_items.size()) return kEmpty;
  return row.array_items[col].string_value;
}

bool Close(double a, double b) {
  return std::fabs(a - b) <=
         1e-9 * std::max({1.0, std::fabs(a), std::fabs(b)});
}

Status Mismatch(const std::string& what, double got, double want) {
  return Status::Internal(what + ": got " + std::to_string(got) +
                          ", oracle says " + std::to_string(want));
}

Result<const agora::ColumnVector*> Column(const Table& table,
                                          const std::string& name) {
  std::optional<size_t> idx = table.schema().FindField(name);
  if (!idx) return Status::Internal("no column " + name);
  return &table.column(*idx);
}

// ---------------------------------------------------------------------------
// Read-only workloads over TPC-H data: the reference answers are fixed
// for the process, so every response is checked by byte comparison.

class TpchWorkload : public Workload {
 public:
  TpchWorkload(uint64_t seed, double scale_factor)
      : seed_(seed), scale_factor_(scale_factor) {}

  Status Load(Database* db) override {
    agora::TpchOptions options;
    options.scale_factor = scale_factor_;
    options.seed = seed_;
    return agora::GenerateTpch(options, &db->catalog());
  }

  Status Prepare(Database* db) override {
    expected_.clear();
    for (const Request& request : statements_) {
      AGORA_ASSIGN_OR_RETURN(std::string json, SerialJson(db, request.sql));
      expected_.push_back(std::move(json));
    }
    return CheckOracles(db);
  }

  Request Next(int /*client*/, uint64_t i) override {
    return statements_[i % statements_.size()];
  }

  Status Check(int /*client*/, const Request& request,
               const std::string& body) override {
    if (body == expected_[request.variant]) return Status::OK();
    return Status::Internal(classes()[request.kind] +
                            " response differs from the reference: " +
                            request.sql);
  }

  std::vector<Request> ReplaySet() override { return statements_; }

  Status Finish(Database* /*db*/) override { return Status::OK(); }

 protected:
  /// Checks the reference answers against oracles that read the
  /// generated tables directly.
  virtual Status CheckOracles(Database* db) = 0;

  void AddStatement(size_t kind, std::string sql,
                    std::array<int64_t, 3> args = {}) {
    Request request;
    request.kind = kind;
    request.sql = std::move(sql);
    request.variant = statements_.size();
    request.args = args;
    statements_.push_back(std::move(request));
  }

  const uint64_t seed_;
  const double scale_factor_;
  std::vector<Request> statements_;
  std::vector<std::string> expected_;  // by Request::variant
};

// tpch_olap: the seven TPC-H queries the engine implements, round robin,
// one client. Scans, joins and aggregation dominate; results are a few
// rows.
class TpchOlap : public TpchWorkload {
 public:
  explicit TpchOlap(uint64_t seed) : TpchWorkload(seed, 0.05) {
    const std::string queries[] = {agora::TpchQ1(),  agora::TpchQ3(),
                                   agora::TpchQ5(),  agora::TpchQ6(),
                                   agora::TpchQ10(), agora::TpchQ12(),
                                   agora::TpchQ14()};
    for (size_t k = 0; k < std::size(queries); ++k) {
      AddStatement(k, queries[k]);
    }
  }

  std::vector<std::string> classes() const override {
    return {"q1", "q3", "q5", "q6", "q10", "q12", "q14"};
  }
  int clients() const override { return 1; }
  int execution_threads() const override { return 1; }

 protected:
  // Q1 group counts and quantity sums, Q6 revenue and Q14 promotion
  // share, recomputed from the lineitem and part columns.
  Status CheckOracles(Database* db) override {
    AGORA_ASSIGN_OR_RETURN(auto lineitem, db->catalog().GetTable("lineitem"));
    AGORA_ASSIGN_OR_RETURN(auto part, db->catalog().GetTable("part"));
    AGORA_ASSIGN_OR_RETURN(auto* quantity, Column(*lineitem, "l_quantity"));
    AGORA_ASSIGN_OR_RETURN(auto* price, Column(*lineitem, "l_extendedprice"));
    AGORA_ASSIGN_OR_RETURN(auto* discount, Column(*lineitem, "l_discount"));
    AGORA_ASSIGN_OR_RETURN(auto* shipdate, Column(*lineitem, "l_shipdate"));
    AGORA_ASSIGN_OR_RETURN(auto* flag, Column(*lineitem, "l_returnflag"));
    AGORA_ASSIGN_OR_RETURN(auto* status, Column(*lineitem, "l_linestatus"));
    AGORA_ASSIGN_OR_RETURN(auto* partkey, Column(*lineitem, "l_partkey"));
    AGORA_ASSIGN_OR_RETURN(auto* p_partkey, Column(*part, "p_partkey"));
    AGORA_ASSIGN_OR_RETURN(auto* p_type, Column(*part, "p_type"));
    for (size_t p = 0; p < part->num_rows(); ++p) {
      if (p_partkey->GetInt64(p) != static_cast<int64_t>(p) + 1) {
        return Status::Internal("part keys are not dense 1..n");
      }
    }

    const int64_t q1_cutoff = agora::MakeDate(1998, 9, 2);
    const int64_t y1994 = agora::MakeDate(1994, 1, 1);
    const int64_t y1995 = agora::MakeDate(1995, 1, 1);
    const int64_t sep = agora::MakeDate(1995, 9, 1);
    const int64_t oct = agora::MakeDate(1995, 10, 1);
    std::map<std::string, std::pair<double, double>> q1;  // count, sum_qty
    double q6 = 0, promo = 0, total = 0;
    for (size_t i = 0; i < lineitem->num_rows(); ++i) {
      const int64_t ship = shipdate->GetInt64(i);
      const double qty = quantity->GetDouble(i);
      const double disc = discount->GetDouble(i);
      const double ext = price->GetDouble(i);
      if (ship <= q1_cutoff) {
        auto& group = q1[flag->GetString(i) + status->GetString(i)];
        group.first += 1;
        group.second += qty;
      }
      if (ship >= y1994 && ship < y1995 && disc >= 0.05 && disc <= 0.07 &&
          qty < 24) {
        q6 += ext * disc;
      }
      if (ship >= sep && ship < oct) {
        const double revenue = ext * (1 - disc);
        const auto p = static_cast<size_t>(partkey->GetInt64(i) - 1);
        if (p_type->GetString(p).rfind("PROMO", 0) == 0) promo += revenue;
        total += revenue;
      }
    }

    AGORA_ASSIGN_OR_RETURN(std::vector<JsonValue> rows, Rows(expected_[0]));
    if (rows.size() != q1.size()) {
      return Mismatch("q1 groups", static_cast<double>(rows.size()),
                      static_cast<double>(q1.size()));
    }
    for (const JsonValue& row : rows) {
      auto it = q1.find(Text(row, 0) + Text(row, 1));
      if (it == q1.end()) return Status::Internal("q1: unexpected group");
      if (Number(row, 9) != it->second.first) {
        return Mismatch("q1 count_order", Number(row, 9), it->second.first);
      }
      if (!Close(Number(row, 2), it->second.second)) {
        return Mismatch("q1 sum_qty", Number(row, 2), it->second.second);
      }
    }
    AGORA_ASSIGN_OR_RETURN(rows, Rows(expected_[3]));
    if (rows.size() != 1 || !Close(Number(rows[0], 0), q6)) {
      return Mismatch("q6 revenue", rows.empty() ? 0 : Number(rows[0], 0),
                      q6);
    }
    AGORA_ASSIGN_OR_RETURN(rows, Rows(expected_[6]));
    const double q14 = 100.00 * promo / total;
    if (rows.size() != 1 || !Close(Number(rows[0], 0), q14)) {
      return Mismatch("q14 promo_revenue",
                      rows.empty() ? 0 : Number(rows[0], 0), q14);
    }
    return Status::OK();
  }
};

// wide_results: key-range SELECTs returning thousands of rows each, so
// result collection, JSON serialization and the socket dominate. Each
// class has a few seeded ranges of equal width, so the row counts, and
// the cost, hardly depend on the seed.
class WideResults : public TpchWorkload {
 public:
  explicit WideResults(uint64_t seed) : TpchWorkload(seed, 0.05) {
    const std::string prefixes[] = {
        "SELECT l_orderkey, l_partkey, l_suppkey, l_linenumber, l_quantity, "
        "l_extendedprice, l_discount, l_tax FROM lineitem WHERE l_orderkey",
        "SELECT l_orderkey, l_linenumber, l_returnflag, l_linestatus, "
        "l_shipdate, l_receiptdate, l_shipmode FROM lineitem "
        "WHERE l_orderkey",
        "SELECT o_orderkey, o_orderdate, o_orderpriority, o_totalprice, "
        "c_name, c_mktsegment, c_acctbal FROM orders, customer "
        "WHERE o_custkey = c_custkey AND o_orderkey"};
    // Orders per range; a lineitem range holds about four rows per order.
    const int64_t spans[] = {2500, 2500, 6000};
    agora::Rng rng(seed ^ 0x5752u);
    const int64_t orders = agora::TpchRowsAtScale("orders", scale_factor_);
    for (int v = 0; v < 4; ++v) {
      for (size_t kind = 0; kind < std::size(spans); ++kind) {
        const int64_t lo = rng.Uniform(1, orders - spans[kind] + 1);
        const int64_t hi = lo + spans[kind] - 1;
        AddStatement(kind,
                     prefixes[kind] + " BETWEEN " + std::to_string(lo) +
                         " AND " + std::to_string(hi),
                     {lo, hi, 0});
      }
    }
  }

  std::vector<std::string> classes() const override {
    return {"lineitem_numeric", "lineitem_mixed", "orders_customers"};
  }
  int clients() const override { return 1; }
  int execution_threads() const override { return 1; }

 protected:
  // Row counts, and one total per class, recomputed from the tables:
  // the price sum (numeric), the count of 'R' flags (mixed) and the
  // order-total sum (join; every order has a customer).
  Status CheckOracles(Database* db) override {
    AGORA_ASSIGN_OR_RETURN(auto lineitem, db->catalog().GetTable("lineitem"));
    AGORA_ASSIGN_OR_RETURN(auto orders, db->catalog().GetTable("orders"));
    AGORA_ASSIGN_OR_RETURN(auto* l_key, Column(*lineitem, "l_orderkey"));
    AGORA_ASSIGN_OR_RETURN(auto* l_price,
                           Column(*lineitem, "l_extendedprice"));
    AGORA_ASSIGN_OR_RETURN(auto* l_flag, Column(*lineitem, "l_returnflag"));
    AGORA_ASSIGN_OR_RETURN(auto* o_key, Column(*orders, "o_orderkey"));
    AGORA_ASSIGN_OR_RETURN(auto* o_total, Column(*orders, "o_totalprice"));
    for (const Request& request : statements_) {
      const int64_t lo = request.args[0], hi = request.args[1];
      const bool join = request.kind == 2;
      const agora::ColumnVector* key = join ? o_key : l_key;
      const size_t n = join ? orders->num_rows() : lineitem->num_rows();
      double rows = 0, sum = 0;
      for (size_t i = 0; i < n; ++i) {
        const int64_t k = key->GetInt64(i);
        if (k < lo || k > hi) continue;
        rows += 1;
        if (request.kind == 0) sum += l_price->GetDouble(i);
        if (request.kind == 1) sum += l_flag->GetString(i) == "R" ? 1 : 0;
        if (request.kind == 2) sum += o_total->GetDouble(i);
      }
      AGORA_ASSIGN_OR_RETURN(std::vector<JsonValue> got,
                             Rows(expected_[request.variant]));
      double got_sum = 0;
      for (const JsonValue& row : got) {
        if (request.kind == 0) got_sum += Number(row, 5);
        if (request.kind == 1) got_sum += Text(row, 2) == "R" ? 1 : 0;
        if (request.kind == 2) got_sum += Number(row, 3);
      }
      if (static_cast<double>(got.size()) != rows) {
        return Mismatch(request.sql + ": rows",
                        static_cast<double>(got.size()), rows);
      }
      if (!Close(got_sum, sum)) {
        return Mismatch(request.sql + ": total", got_sum, sum);
      }
    }
    return Status::OK();
  }
};

// mixed_rw: an accounts/events schema, five reads to three writes per
// client (kCycle). A transfer moves money between two accounts in one
// UPDATE, so the bank total holds under any interleaving; a deposit
// appends kDepositRows events. Each client keeps a model of its
// acknowledged writes, and Finish compares the final tables with the
// sum of the models. Every write invalidates the table's zone maps and
// indexes, so reads that follow writes pay for that too.
//
// One client: with two, throughput fell below one client's and the
// interleaving of writes and rebuilds made run-to-run spread 15-30% of
// the median, too wide for any regression bound.
class MixedReadWrite : public Workload {
 public:
  explicit MixedReadWrite(uint64_t seed) : seed_(seed) {
    for (int c = 0; c < kClients; ++c) {
      models_.emplace_back(seed * 1000003u + static_cast<uint64_t>(c));
    }
  }

  // One class per position in kCycle: a read right after a write pays
  // for the rebuild the write forced, so the same statement costs
  // different amounts at different positions.
  std::vector<std::string> classes() const override {
    return {"point.0",    "transfer.1",     "branch_totals.2", "point.3",
            "deposit.4",  "event_totals.5", "point.6",         "transfer.7"};
  }
  int clients() const override { return kClients; }
  int execution_threads() const override { return 1; }

  Status Load(Database* db) override {
    agora::Rng rng(seed_);
    AGORA_RETURN_IF_ERROR(
        db->Execute("CREATE TABLE accounts (id BIGINT, owner VARCHAR, "
                    "branch BIGINT, balance BIGINT)")
            .status());
    AGORA_RETURN_IF_ERROR(
        db->Execute("CREATE TABLE events (id BIGINT, account BIGINT, "
                    "kind VARCHAR, amount BIGINT)")
            .status());
    AGORA_ASSIGN_OR_RETURN(auto accounts, db->catalog().GetTable("accounts"));
    AGORA_ASSIGN_OR_RETURN(auto events, db->catalog().GetTable("events"));
    initial_balance_.assign(kAccounts + 1, 0);
    total_balance_ = 0;
    for (int64_t id = 1; id <= kAccounts; ++id) {
      const int64_t balance = rng.Uniform(1000, 10000);
      initial_balance_[id] = balance;
      total_balance_ += balance;
      AGORA_RETURN_IF_ERROR(accounts->AppendRow(
          {agora::Value::Int64(id),
           agora::Value::String("owner#" + std::to_string(id)),
           agora::Value::Int64(rng.Uniform(0, kBranches - 1)),
           agora::Value::Int64(balance)}));
    }
    initial_events_sum_ = 0;
    for (int64_t id = 1; id <= kEvents; ++id) {
      const int64_t amount = rng.Uniform(1, 1000);
      initial_events_sum_ += amount;
      AGORA_RETURN_IF_ERROR(events->AppendRow(
          {agora::Value::Int64(id),
           agora::Value::Int64(rng.Uniform(1, kAccounts)),
           agora::Value::String(kKinds[rng.Uniform(0, 3)]),
           agora::Value::Int64(amount)}));
    }
    return Status::OK();
  }

  Status Prepare(Database* db) override {
    AGORA_ASSIGN_OR_RETURN(
        std::string json,
        SerialJson(db, "SELECT SUM(balance) AS s FROM accounts"));
    AGORA_ASSIGN_OR_RETURN(std::vector<JsonValue> rows, Rows(json));
    const auto want = static_cast<double>(total_balance_);
    if (rows.size() != 1 || Number(rows[0], 0) != want) {
      return Mismatch("initial bank total",
                      rows.empty() ? 0 : Number(rows[0], 0), want);
    }
    return Status::OK();
  }

  Request Next(int client, uint64_t i) override {
    agora::Rng& rng = models_[client].rng;
    Request request;
    request.kind = i % std::size(kCycle);
    switch (kCycle[request.kind]) {
      case kPoint: {
        const int64_t id = rng.Uniform(1, kAccounts);
        request.args[0] = id;
        request.sql = "SELECT id, owner, balance FROM accounts WHERE id = " +
                      std::to_string(id);
        break;
      }
      case kBranchTotals:
        request.sql =
            "SELECT branch, COUNT(*) AS n, SUM(balance) AS total "
            "FROM accounts GROUP BY branch ORDER BY branch";
        break;
      case kEventTotals: {
        const int64_t lo = rng.Uniform(1, kAccounts - 999);
        request.sql =
            "SELECT kind, COUNT(*) AS n, SUM(amount) AS total FROM events "
            "WHERE account BETWEEN " + std::to_string(lo) + " AND " +
            std::to_string(lo + 999) + " GROUP BY kind ORDER BY kind";
        break;
      }
      case kTransfer: {
        const int64_t from = rng.Uniform(1, kAccounts);
        int64_t to = rng.Uniform(1, kAccounts - 1);
        if (to >= from) ++to;
        const int64_t amount = rng.Uniform(1, 500);
        request.args = {from, to, amount};
        const std::string a = std::to_string(from);
        const std::string d = std::to_string(amount);
        request.sql = "UPDATE accounts SET balance = CASE WHEN id = " + a +
                      " THEN balance - " + d + " ELSE balance + " + d +
                      " END WHERE id IN (" + a + ", " + std::to_string(to) +
                      ")";
        break;
      }
      default: {  // kDeposit: kDepositRows events for one account
        const std::string account = std::to_string(rng.Uniform(1, kAccounts));
        const int64_t first_id = kEvents + 1 + client * int64_t{1000000000} +
                                 kDepositRows * static_cast<int64_t>(i);
        request.sql = "INSERT INTO events VALUES ";
        for (int64_t r = 0; r < kDepositRows; ++r) {
          const int64_t amount = rng.Uniform(1, 1000);
          request.args[0] += amount;
          request.sql += (r == 0 ? "(" : ", (") +
                         std::to_string(first_id + r) + ", " + account +
                         ", 'deposit', " + std::to_string(amount) + ")";
        }
        break;
      }
    }
    return request;
  }

  Status Check(int client, const Request& request,
               const std::string& body) override {
    ClientModel& model = models_[client];
    const size_t kind = kCycle[request.kind];
    if (kind == kDeposit) {
      model.events += kDepositRows;
      model.events_sum += request.args[0];
      return Status::OK();
    }
    AGORA_ASSIGN_OR_RETURN(std::vector<JsonValue> rows, Rows(body));
    switch (kind) {
      case kPoint:
        if (rows.size() != 1 ||
            Number(rows[0], 0) != static_cast<double>(request.args[0])) {
          return Status::Internal("wrong row for " + request.sql);
        }
        return Status::OK();
      case kBranchTotals: {
        double accounts = 0, total = 0;
        for (const JsonValue& row : rows) {
          accounts += Number(row, 1);
          total += Number(row, 2);
        }
        if (accounts != kAccounts) {
          return Mismatch("accounts over all branches", accounts, kAccounts);
        }
        if (total != static_cast<double>(total_balance_)) {
          return Mismatch("bank total", total,
                          static_cast<double>(total_balance_));
        }
        return Status::OK();
      }
      case kEventTotals:
        if (rows.empty() || rows.size() > std::size(kKinds)) {
          return Mismatch("event kinds in range",
                          static_cast<double>(rows.size()),
                          static_cast<double>(std::size(kKinds)));
        }
        return Status::OK();
      default:  // kTransfer
        if (rows.size() != 1 || Number(rows[0], 0) != 2) {
          return Status::Internal("transfer did not touch two rows: " +
                                  request.sql);
        }
        model.delta[request.args[0]] -= request.args[2];
        model.delta[request.args[1]] += request.args[2];
        return Status::OK();
    }
  }

  std::vector<Request> ReplaySet() override {
    std::vector<Request> reads;
    for (uint64_t i = 0; i < std::size(kCycle); ++i) {
      if (kCycle[i] != kTransfer && kCycle[i] != kDeposit) {
        reads.push_back(Next(0, i));
      }
    }
    return reads;
  }

  Status Finish(Database* db) override {
    std::vector<int64_t> want = initial_balance_;
    int64_t events = kEvents, events_sum = initial_events_sum_;
    for (const ClientModel& model : models_) {
      for (int64_t id = 1; id <= kAccounts; ++id) want[id] += model.delta[id];
      events += model.events;
      events_sum += model.events_sum;
    }
    AGORA_ASSIGN_OR_RETURN(
        std::string json,
        SerialJson(db, "SELECT id, balance FROM accounts ORDER BY id"));
    AGORA_ASSIGN_OR_RETURN(std::vector<JsonValue> rows, Rows(json));
    if (rows.size() != static_cast<size_t>(kAccounts)) {
      return Mismatch("final accounts", static_cast<double>(rows.size()),
                      kAccounts);
    }
    for (size_t r = 0; r < rows.size(); ++r) {
      const auto id = static_cast<int64_t>(r) + 1;
      if (Number(rows[r], 0) != static_cast<double>(id) ||
          Number(rows[r], 1) != static_cast<double>(want[id])) {
        return Mismatch("final balance of account " + std::to_string(id),
                        Number(rows[r], 1), static_cast<double>(want[id]));
      }
    }
    AGORA_ASSIGN_OR_RETURN(
        json,
        SerialJson(db, "SELECT COUNT(*) AS n, SUM(amount) AS s FROM events"));
    AGORA_ASSIGN_OR_RETURN(rows, Rows(json));
    if (rows.size() != 1 ||
        Number(rows[0], 0) != static_cast<double>(events) ||
        Number(rows[0], 1) != static_cast<double>(events_sum)) {
      return Mismatch("final event count",
                      rows.empty() ? 0 : Number(rows[0], 0),
                      static_cast<double>(events));
    }
    return Status::OK();
  }

 private:
  enum Kind : size_t {
    kPoint, kBranchTotals, kEventTotals, kTransfer, kDeposit
  };
  static constexpr int kClients = 1;
  static constexpr int64_t kAccounts = 200000;
  static constexpr int64_t kBranches = 16;
  static constexpr int64_t kEvents = 800000;
  static constexpr int64_t kDepositRows = 10;
  static constexpr const char* kKinds[] = {"deposit", "withdrawal", "fee",
                                           "interest"};
  static constexpr size_t kCycle[] = {kPoint,   kTransfer, kBranchTotals,
                                      kPoint,   kDeposit,  kEventTotals,
                                      kPoint,   kTransfer};

  /// One client's generator and the effect of its acknowledged writes;
  /// touched only by that client's thread until Finish.
  struct ClientModel {
    explicit ClientModel(uint64_t seed) : rng(seed), delta(kAccounts + 1) {}
    agora::Rng rng;
    std::vector<int64_t> delta;  // balance change by account id
    int64_t events = 0;
    int64_t events_sum = 0;
  };

  const uint64_t seed_;
  std::vector<ClientModel> models_;
  std::vector<int64_t> initial_balance_;  // by account id
  int64_t total_balance_ = 0;
  int64_t initial_events_sum_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeWorkload(const std::string& name,
                                       uint64_t seed) {
  if (name == "tpch_olap") return std::make_unique<TpchOlap>(seed);
  if (name == "wide_results") return std::make_unique<WideResults>(seed);
  if (name == "mixed_rw") return std::make_unique<MixedReadWrite>(seed);
  return nullptr;
}

}  // namespace perfbench
