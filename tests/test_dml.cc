// UPDATE, DELETE and INSERT through the planned write path: seeded random
// DML sequences checked against a reference model kept here and against
// the same sequence with zone maps and index scans switched off; zone-map
// pruning of IN lists; and hash indexes that survive every kind of write.

#include <gtest/gtest.h>

#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"

namespace agora {
namespace {

DatabaseOptions PlainOptions() {
  DatabaseOptions options;
  options.physical.enable_zone_maps = false;
  options.physical.enable_index_scan = false;
  return options;
}

/// Every cell of `r`, typed, with doubles as bit patterns: two renderings
/// are equal only when the results are byte-identical.
std::string Render(const QueryResult& r) {
  std::string out;
  for (size_t row = 0; row < r.num_rows(); ++row) {
    for (size_t c = 0; c < r.num_columns(); ++c) {
      Value v = r.Get(row, c);
      if (v.is_null()) {
        out += "N";
      } else if (v.type() == TypeId::kDouble) {
        double d = v.double_value();
        uint64_t bits;
        std::memcpy(&bits, &d, sizeof(bits));
        out += "d" + std::to_string(bits);
      } else if (v.type() == TypeId::kString) {
        out += "s" + std::to_string(v.string_value().size()) + ":" +
               v.string_value();
      } else {
        out += "i" + std::to_string(v.int64_value());
      }
      out += '|';
    }
    out += '\n';
  }
  return out;
}

// ---------------------------------------------------------------------
// Reference model: the table as a vector of rows, with SQL's three-valued
// logic spelled out per predicate.

using OptInt = std::optional<int64_t>;
using OptDouble = std::optional<double>;
using OptString = std::optional<std::string>;

struct Row {
  OptInt id;
  OptInt a;
  OptDouble d;
  OptString s;
};

std::string Render(const std::vector<Row>& rows) {
  std::string out;
  auto cell = [&out](bool valid, const std::string& text) {
    out += valid ? text : "N";
    out += '|';
  };
  for (const Row& r : rows) {
    cell(r.id.has_value(), r.id ? "i" + std::to_string(*r.id) : "");
    cell(r.a.has_value(), r.a ? "i" + std::to_string(*r.a) : "");
    uint64_t bits = 0;
    if (r.d) std::memcpy(&bits, &*r.d, sizeof(bits));
    cell(r.d.has_value(), "d" + std::to_string(bits));
    cell(r.s.has_value(),
         r.s ? "s" + std::to_string(r.s->size()) + ":" + *r.s : "");
    out += '\n';
  }
  return out;
}

std::string Lit(const OptInt& v) {
  return v ? std::to_string(*v) : "NULL";
}
std::string Lit(const OptDouble& v) {
  // Quarter values print exactly with six decimals.
  return v ? std::to_string(*v) : "NULL";
}
std::string Lit(const OptString& v) { return v ? "'" + *v + "'" : "NULL"; }

/// A WHERE clause as SQL text plus the model's "is TRUE" for it.
struct Where {
  std::string sql;  // empty = no WHERE
  std::function<bool(const Row&)> holds;
};

class DmlSequence {
 public:
  explicit DmlSequence(uint64_t seed) : rng_(seed), plain_(PlainOptions()) {}

  void Run(int statements) {
    Both("CREATE TABLE t (id BIGINT, a BIGINT, d DOUBLE, s VARCHAR)");
    for (int i = 0; i < 3; ++i) Insert(1500);
    Both("CREATE INDEX t_id ON t (id)");
    Both("CREATE INDEX t_a ON t (a)");
    Probe();  // builds the zone maps the writes below must maintain
    for (int i = 0; i < statements && !::testing::Test::HasFailure(); ++i) {
      switch (rng_.Uniform(0, 9)) {
        case 0:
        case 1:
          Insert(static_cast<int>(rng_.Uniform(1, 40)));
          break;
        case 2:
        case 3:
          Delete(RandomWhere(/*selective=*/true));
          break;
        default:
          Update();
          break;
      }
      Probe();
    }
    Delete(Where{"", [](const Row&) { return true; }});
    ASSERT_TRUE(model_.empty());
    Probe();
    Insert(50);
    Update();
    Probe();
  }

 private:
  /// Runs `sql` on both databases; returns rows_affected (-1 if none).
  int64_t Both(const std::string& sql) {
    auto fast = db_.Execute(sql);
    auto plain = plain_.Execute(sql);
    EXPECT_TRUE(fast.ok()) << sql << " -> " << fast.status().ToString();
    EXPECT_TRUE(plain.ok()) << sql << " -> " << plain.status().ToString();
    if (!fast.ok() || !plain.ok()) return -1;
    EXPECT_EQ(Render(*fast), Render(*plain)) << sql;
    if (fast->num_rows() == 1 && fast->num_columns() == 1 &&
        fast->schema().field(0).name == "rows_affected") {
      return fast->Get(0, 0).int64_value();
    }
    return -1;
  }

  /// After every statement: both tables equal the model byte for byte,
  /// their maintained zone maps and indexes equal a rebuild, and
  /// pruned/indexed reads agree with the plain database.
  void Probe() {
    const std::string want = Render(model_);
    for (Database* db : {&db_, &plain_}) {
      auto all = db->Execute("SELECT * FROM t");
      ASSERT_TRUE(all.ok()) << all.status().ToString();
      ASSERT_EQ(Render(*all), want) << "after: " << last_;
      auto table = db->catalog().GetTable("t");
      ASSERT_TRUE(table.ok());
      Status derived = (*table)->VerifyDerived();
      ASSERT_TRUE(derived.ok()) << derived.ToString() << " after: " << last_;
    }
    const int64_t k = PickId();
    const int64_t lo = rng_.Uniform(-10, 110);
    Both("SELECT * FROM t WHERE id = " + std::to_string(k));
    Both("SELECT id, d FROM t WHERE a = " + std::to_string(lo));
    Both("SELECT COUNT(*), SUM(a) FROM t WHERE a BETWEEN " +
         std::to_string(lo) + " AND " + std::to_string(lo + 7));
    Both("SELECT id FROM t WHERE id IN (" + std::to_string(k) + ", " +
         std::to_string(PickId()) + ", NULL)");
  }

  int64_t PickId() {
    if (!model_.empty() && rng_.Bernoulli(0.8)) {
      const Row& r = model_[rng_.Uniform(0, model_.size() - 1)];
      if (r.id) return *r.id;
    }
    return rng_.Uniform(-5, next_id_ + 5);
  }

  OptInt RandomA() {
    if (rng_.Bernoulli(0.1)) return std::nullopt;
    return rng_.Uniform(0, 100);
  }
  OptDouble RandomD() {
    if (rng_.Bernoulli(0.1)) return std::nullopt;
    return static_cast<double>(rng_.Uniform(-200, 200)) * 0.25;
  }
  OptString RandomS() {
    static const char* kWords[] = {"x", "y", "z", "w"};
    if (rng_.Bernoulli(0.1)) return std::nullopt;
    return std::string(kWords[rng_.Uniform(0, 3)]);
  }

  void Insert(int n) {
    const bool column_list = rng_.Bernoulli(0.2);
    std::string sql = column_list ? "INSERT INTO t (s, id) VALUES "
                                  : "INSERT INTO t VALUES ";
    for (int i = 0; i < n; ++i) {
      Row r;
      r.id = next_id_++;
      r.s = RandomS();
      if (!column_list) {
        r.a = RandomA();
        r.d = RandomD();
      }
      sql += i == 0 ? "(" : ", (";
      sql += column_list ? Lit(r.s) + ", " + Lit(r.id)
                         : Lit(r.id) + ", " + Lit(r.a) + ", " + Lit(r.d) +
                               ", " + Lit(r.s);
      sql += ")";
      model_.push_back(std::move(r));
    }
    last_ = sql.substr(0, 80);
    Both(sql);
  }

  Where RandomWhere(bool selective) {
    const int64_t k = PickId();
    const int64_t v = rng_.Uniform(0, 100);
    const int64_t w = rng_.Uniform(0, 100);
    const double lo = static_cast<double>(rng_.Uniform(-200, 190)) * 0.25;
    const double hi = lo + 2.5;
    switch (rng_.Uniform(0, selective ? 4 : 7)) {
      case 0:
        return {"id = " + std::to_string(k),
                [k](const Row& r) { return r.id == k; }};
      case 1:  // a NULL in the list never makes a row match
        return {"a IN (" + std::to_string(v) + ", NULL, " +
                    std::to_string(w) + ")",
                [v, w](const Row& r) { return r.a == v || r.a == w; }};
      case 2:
        return {"d BETWEEN " + Lit(OptDouble(lo)) + " AND " +
                    Lit(OptDouble(hi)),
                [lo, hi](const Row& r) {
                  return r.d && *r.d >= lo && *r.d <= hi;
                }};
      case 3:
        return {"id < " + std::to_string(k % 200) + " OR a = " +
                    std::to_string(v),
                [k, v](const Row& r) {
                  return (r.id && *r.id < k % 200) || r.a == v;
                }};
      case 4:  // an index probe plus a residual
        return {"id = " + std::to_string(k) + " AND a < " + std::to_string(v),
                [k, v](const Row& r) { return r.id == k && r.a && *r.a < v; }};
      case 5:
        return {"", [](const Row&) { return true; }};
      case 6:
        return {"s = 'x'", [](const Row& r) { return r.s == "x"; }};
      default:  // on the column the SET forms below update most
        return {"a > " + std::to_string(v),
                [v](const Row& r) { return r.a && *r.a > v; }};
    }
  }

  void Delete(const Where& where) {
    std::string sql = "DELETE FROM t";
    if (!where.sql.empty()) sql += " WHERE " + where.sql;
    std::vector<Row> kept;
    int64_t removed = 0;
    for (Row& r : model_) {
      if (where.holds(r)) {
        ++removed;
      } else {
        kept.push_back(std::move(r));
      }
    }
    model_ = std::move(kept);
    last_ = sql;
    EXPECT_EQ(Both(sql), removed) << sql;
  }

  void Update() {
    Where where = RandomWhere(/*selective=*/false);
    std::string set;
    std::function<void(Row*)> apply;
    const int64_t v = rng_.Uniform(0, 100);
    switch (rng_.Uniform(0, 7)) {
      case 0:
        set = "a = a + 1";
        apply = [](Row* r) {
          if (r->a) ++*r->a;
        };
        break;
      case 1:  // each side reads the other's pre-update value
        set = "a = id, id = a";
        apply = [](Row* r) { std::swap(r->a, r->id); };
        break;
      case 2:
        set = "d = NULL";
        apply = [](Row* r) { r->d.reset(); };
        break;
      case 3:  // BIGINT expression into a DOUBLE column
        set = "d = a * 2";
        apply = [](Row* r) {
          r->d = r->a ? OptDouble(static_cast<double>(*r->a * 2))
                      : std::nullopt;
        };
        break;
      case 4:  // BIGINT literal into a DOUBLE column, and the key column
        set = "d = 3, id = " + std::to_string(v);
        apply = [v](Row* r) {
          r->d = 3.0;
          r->id = v;
        };
        break;
      case 5:
        set = "s = 'y', a = NULL";
        apply = [](Row* r) {
          r->s = "y";
          r->a.reset();
        };
        break;
      case 6:  // many distinct strings: may push s past the dictionary cap
        set = "s = CAST(id AS VARCHAR)";
        apply = [](Row* r) {
          r->s = r->id ? OptString(std::to_string(*r->id)) : std::nullopt;
        };
        break;
      default:
        set = "a = " + std::to_string(v) + ", s = s";
        apply = [v](Row* r) { r->a = v; };
        break;
    }
    std::string sql = "UPDATE t SET " + set;
    if (!where.sql.empty()) sql += " WHERE " + where.sql;
    int64_t matched = 0;
    for (Row& r : model_) {
      if (where.holds(r)) {
        apply(&r);
        ++matched;
      }
    }
    last_ = sql;
    EXPECT_EQ(Both(sql), matched) << sql;
  }

  Rng rng_;
  Database db_;
  Database plain_;
  std::vector<Row> model_;
  int64_t next_id_ = 0;
  std::string last_;
};

TEST(DmlTest, RandomSequencesMatchModelAndPlainPlans) {
  for (uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    DmlSequence sequence(seed);
    sequence.Run(60);
    if (::testing::Test::HasFailure()) return;
  }
}

TEST(DmlTest, VarcharSetPastDictionaryCapDecodes) {
  for (const DatabaseOptions& options : {DatabaseOptions(), PlainOptions()}) {
    Database database(options);
    Database* db = &database;
    ASSERT_TRUE(db->Execute("CREATE TABLE t (id BIGINT, s VARCHAR)").ok());
    std::string sql = "INSERT INTO t VALUES ";
    const size_t n = kMaxDictionaryEntries + 100;
    for (size_t i = 0; i < n; ++i) {
      sql += (i == 0 ? "(" : ", (") + std::to_string(i) + ", 'k')";
    }
    ASSERT_TRUE(db->Execute(sql).ok());
    auto table = db->catalog().GetTable("t");
    ASSERT_TRUE(table.ok());
    ASSERT_TRUE((*table)->column(1).is_dictionary());
    auto updated = db->Execute(
        "UPDATE t SET s = CAST(id AS VARCHAR) WHERE id >= 50");
    ASSERT_TRUE(updated.ok()) << updated.status().ToString();
    EXPECT_EQ(updated->Get(0, 0).int64_value(),
              static_cast<int64_t>(n - 50));
    EXPECT_FALSE((*table)->column(1).is_dictionary());
    EXPECT_TRUE((*table)->column(1).CheckConsistency().ok());
    for (size_t i = 0; i < n; i += 997) {
      EXPECT_EQ((*table)->column(1).GetString(i),
                i < 50 ? "k" : std::to_string(i));
    }
  }
}

// ---------------------------------------------------------------------
// Zone maps prune IN lists.

TEST(DmlTest, InListPrunesZoneMapBlocks) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE big (id BIGINT, v DOUBLE)").ok());
  auto table = db.catalog().GetTable("big");
  ASSERT_TRUE(table.ok());
  constexpr int64_t kRows = 200000;
  Chunk chunk((*table)->schema());
  for (int64_t i = 0; i < kRows; ++i) {
    chunk.column(0).AppendInt64(i);
    chunk.column(1).AppendDouble(static_cast<double>(i % 1000) * 0.5);
  }
  ASSERT_TRUE((*table)->AppendChunk(chunk).ok());
  const int64_t blocks = (kRows + kChunkSize - 1) / kChunkSize;

  const std::string sql = "SELECT id, v FROM big WHERE id IN (5, 190000)";
  auto pruned = db.Execute(sql);
  ASSERT_TRUE(pruned.ok()) << pruned.status().ToString();
  EXPECT_EQ(pruned->num_rows(), 2u);
  EXPECT_EQ(pruned->stats().blocks_read, 2);
  EXPECT_EQ(pruned->stats().blocks_skipped, blocks - 2);

  // A NULL in the list drops out; NOT IN is not pruned.
  auto with_null = db.Execute(
      "SELECT id FROM big WHERE id IN (NULL, 190000, 5)");
  ASSERT_TRUE(with_null.ok());
  EXPECT_EQ(with_null->stats().blocks_skipped, blocks - 2);
  auto negated = db.Execute("SELECT COUNT(*) FROM big WHERE id NOT IN (5)");
  ASSERT_TRUE(negated.ok());
  EXPECT_EQ(negated->stats().blocks_skipped, 0);
  EXPECT_EQ(negated->Get(0, 0).int64_value(), kRows - 1);

  db.physical_options().enable_zone_maps = false;
  auto full = db.Execute(sql);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full->stats().blocks_skipped, 0);
  EXPECT_EQ(Render(*full), Render(*pruned));
}

// ---------------------------------------------------------------------
// A CREATE INDEX survives INSERT, UPDATE and DELETE.

TEST(DmlTest, IndexSurvivesEveryWrite) {
  Database indexed;
  DatabaseOptions no_index;
  no_index.physical.enable_index_scan = false;
  Database plain(no_index);
  auto both = [&](const std::string& sql) {
    auto a = indexed.Execute(sql);
    auto b = plain.Execute(sql);
    EXPECT_TRUE(a.ok()) << sql << " -> " << a.status().ToString();
    EXPECT_TRUE(b.ok()) << sql << " -> " << b.status().ToString();
    if (a.ok() && b.ok()) {
      EXPECT_EQ(Render(*a), Render(*b)) << sql;
    }
    return a.ok() ? Render(*a) : std::string();
  };
  auto point = [](int64_t k) {
    return "SELECT * FROM t WHERE id = " + std::to_string(k);
  };
  auto expect_index_scan = [&](const std::string& after) {
    auto plan = indexed.Execute("EXPLAIN ANALYZE " + point(1));
    ASSERT_TRUE(plan.ok()) << plan.status().ToString();
    EXPECT_NE(plan->Get(0, 0).string_value().find("IndexScan"),
              std::string::npos)
        << "after " << after << ":\n"
        << plan->Get(0, 0).string_value();
  };

  both("CREATE TABLE t (id BIGINT, v BIGINT, s VARCHAR)");
  std::string load = "INSERT INTO t VALUES ";
  for (int i = 0; i < 5000; ++i) {
    load += (i == 0 ? "(" : ", (") + std::to_string(i) + ", " +
            std::to_string(i % 17) + ", 's" + std::to_string(i % 5) + "')";
  }
  both(load);
  both("CREATE INDEX t_id ON t (id)");
  expect_index_scan("CREATE INDEX");

  const std::vector<std::string> writes = {
      "INSERT INTO t VALUES (9001, 1, 'new'), (1, 2, 'dup')",
      "UPDATE t SET v = v + 100 WHERE id = 1 AND s = 'dup'",
      "UPDATE t SET id = 7777 WHERE id = 42",
      "DELETE FROM t WHERE v = 3",
  };
  for (const std::string& sql : writes) {
    both(sql);
    expect_index_scan(sql);
    for (int64_t k : {1, 2, 3, 42, 7777, 9001, 4999}) both(point(k));
  }
  // The key update moved row 42 to 7777: the old key finds nothing.
  auto old_key = indexed.Execute(point(42));
  ASSERT_TRUE(old_key.ok());
  EXPECT_EQ(old_key->num_rows(), 0u);
  auto new_key = indexed.Execute(point(7777));
  ASSERT_TRUE(new_key.ok());
  ASSERT_EQ(new_key->num_rows(), 1u);
  EXPECT_EQ(new_key->Get(0, 2).string_value(), "s2");
  // Whole-table contents agree too.
  both("SELECT * FROM t");
  auto table = indexed.catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  EXPECT_TRUE((*table)->VerifyDerived().ok());
}

// ---------------------------------------------------------------------
// UPDATE/DELETE locate rows through the planned scan.

TEST(DmlTest, UpdateFindsRowsThroughPrunedScan) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id BIGINT, b BIGINT)").ok());
  std::string load = "INSERT INTO t VALUES ";
  for (int i = 0; i < 10000; ++i) {
    load += (i == 0 ? "(" : ", (") + std::to_string(i) + ", 0)";
  }
  ASSERT_TRUE(db.Execute(load).ok());
  ASSERT_TRUE(db.Execute("SELECT * FROM t WHERE id = 1").ok());  // zone maps
  auto table = db.catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  std::shared_ptr<const ZoneMapSet> before = (*table)->zone_maps();
  ASSERT_NE(before, nullptr);

  auto updated = db.Execute(
      "UPDATE t SET b = CASE WHEN id = 3 THEN b - 5 ELSE b + 5 END "
      "WHERE id IN (3, 9000)");
  ASSERT_TRUE(updated.ok()) << updated.status().ToString();
  EXPECT_EQ(updated->Get(0, 0).int64_value(), 2);
  // The write published a patched copy; the old snapshot is untouched.
  std::shared_ptr<const ZoneMapSet> after = (*table)->zone_maps();
  ASSERT_NE(after, nullptr);
  EXPECT_NE(after, before);
  EXPECT_EQ(before->at(1).blocks[0].min, 0);
  EXPECT_EQ(after->at(1).blocks[0].min, -5);
  EXPECT_EQ(after->at(1).blocks[9000 / kChunkSize].max, 5);
  EXPECT_TRUE((*table)->VerifyDerived().ok());

  auto sum = db.Execute("SELECT SUM(b) FROM t");
  ASSERT_TRUE(sum.ok());
  EXPECT_EQ(sum->Get(0, 0).int64_value(), 0);

  // A WHERE that is not BOOLEAN still fails cleanly.
  auto bad = db.Execute("DELETE FROM t WHERE id + 1");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kTypeError);
  EXPECT_EQ((*table)->num_rows(), 10000u);
}

}  // namespace
}  // namespace agora
