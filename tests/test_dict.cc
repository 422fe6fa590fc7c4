// Tests for dictionary-encoded string columns (ctest -L dict).
//
// Every kernel that accepts the dictionary form is checked against the
// same vectors after Flatten() — the flat-string oracle — on random
// columns with NULLs: comparisons, IN, LIKE, the hash and equality
// kernels, CompareRows, gathers and appends, GroupKeyTable and the JSON
// writer. The table-level tests cover the flat fallback past
// kMaxDictionaryEntries, UPDATE/DELETE on encoded columns, string
// conjuncts of a scan's predicate, and the seven TPC-H queries against
// flat copies of the same tables.

#include <gtest/gtest.h>

#include <cstdlib>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "common/hash.h"
#include "engine/database.h"
#include "exec/hash_table.h"
#include "expr/expr.h"
#include "server/query_handler.h"
#include "storage/table.h"
#include "tpch/tpch.h"

namespace agora {
namespace {

/// The i-th vocabulary word. Every seventh needs JSON escaping.
std::string Word(size_t i) {
  std::string w = "w" + std::to_string(i);
  if (i % 7 == 3) w += "\"q\\u\n\x01";
  return w;
}

/// `rows` rows in dictionary form drawn from `distinct` words, ~15% NULL.
ColumnVector RandomEncoded(uint32_t seed, size_t rows, size_t distinct) {
  ColumnVector col = ColumnVector::MakeDictionary();
  std::mt19937 rng(seed);
  for (size_t r = 0; r < rows; ++r) {
    if (rng() % 100 < 15) {
      col.AppendNull();
    } else {
      col.AppendString(Word(rng() % distinct));
    }
  }
  return col;
}

ColumnVector Flat(ColumnVector v) {
  v.Flatten();
  return v;
}

void ExpectSameRows(const ColumnVector& got, const ColumnVector& want,
                    const std::string& label) {
  ASSERT_EQ(got.type(), want.type()) << label;
  ASSERT_EQ(got.size(), want.size()) << label;
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(got.IsNull(r), want.IsNull(r)) << label << " row " << r;
    if (want.IsNull(r)) continue;
    ASSERT_EQ(got.GetValue(r).Compare(want.GetValue(r)), 0)
        << label << " row " << r;
  }
}

Chunk ChunkOf(std::vector<ColumnVector> columns) {
  Chunk chunk;
  for (ColumnVector& c : columns) chunk.AddColumn(std::move(c));
  return chunk;
}

/// Evaluates `e` over `chunk` (optionally under `sel`) and expands the
/// result for comparison.
ColumnVector Eval(const ExprPtr& e, const Chunk& chunk,
                  const std::vector<uint32_t>* sel) {
  EvalContext ctx;
  ctx.chunk = &chunk;
  ctx.sel = sel;
  ColumnVector out;
  Status s = e->EvalBatch(ctx, &out);
  EXPECT_TRUE(s.ok()) << e->ToString() << ": " << s.ToString();
  out.Flatten();
  return out;
}

ExprPtr Str(const std::string& s) { return MakeLiteral(Value::String(s)); }

std::vector<ExprPtr> PredicatesOver(const ExprPtr& s, const ExprPtr& t) {
  std::vector<ExprPtr> preds;
  for (CompareOp op : {CompareOp::kEq, CompareOp::kNe, CompareOp::kLt,
                       CompareOp::kLe, CompareOp::kGt, CompareOp::kGe}) {
    preds.push_back(MakeCompare(op, s, Str(Word(3))));
    preds.push_back(MakeCompare(op, Str(Word(5)), s));
    preds.push_back(MakeCompare(op, s, Str("absent")));
    preds.push_back(
        MakeCompare(op, s, MakeLiteral(Value::Null(TypeId::kString))));
    preds.push_back(MakeCompare(op, s, t));
  }
  for (bool negated : {false, true}) {
    preds.push_back(std::make_shared<InListExpr>(
        s, std::vector<Value>{Value::String(Word(1)), Value::String(Word(3))},
        negated));
    preds.push_back(std::make_shared<InListExpr>(
        s, std::vector<Value>{Value::String(Word(2)), Value::Null()},
        negated));
    preds.push_back(std::make_shared<LikeExpr>(s, "w1%", negated));
    preds.push_back(std::make_shared<LikeExpr>(s, "%\"q%", negated));
  }
  return preds;
}

/// Runs every predicate over the encoded chunk and its flat twin, with
/// and without a selection; the results must agree cell for cell.
void ExpectPredicatesMatchFlat(const ColumnVector& s, const ColumnVector& t,
                               const std::vector<uint32_t>& sel,
                               const std::string& label) {
  Chunk encoded = ChunkOf({s, t});
  Chunk flat = ChunkOf({Flat(s), Flat(t)});
  ExprPtr sref = MakeColumnRef(0, TypeId::kString, "s");
  ExprPtr tref = MakeColumnRef(1, TypeId::kString, "t");
  for (const ExprPtr& p : PredicatesOver(sref, tref)) {
    ExpectSameRows(Eval(p, encoded, nullptr), Eval(p, flat, nullptr),
                   label + " " + p->ToString());
    ExpectSameRows(Eval(p, encoded, &sel), Eval(p, flat, &sel),
                   label + " sel " + p->ToString());
    // The filter form (EvalFilter's keep-mask), over all rows and under
    // the selection.
    for (bool all : {true, false}) {
      Selection got, want;
      if (!all) {
        got.all = want.all = false;
        got.rows = want.rows = sel;
      }
      ASSERT_TRUE(RefineSelection(*p, encoded, &got, nullptr).ok());
      ASSERT_TRUE(RefineSelection(*p, flat, &want, nullptr).ok());
      EXPECT_EQ(got.all, want.all) << label << " " << p->ToString();
      EXPECT_EQ(got.rows, want.rows) << label << " " << p->ToString();
    }
  }
}

TEST(DictKernelTest, CompareInLikeMatchFlatOracle) {
  // Few entries, many rows: predicates run once per entry.
  ColumnVector s = RandomEncoded(1, 3000, 9);
  ColumnVector t = RandomEncoded(2, 3000, 12);
  ASSERT_TRUE(s.is_dictionary());
  ASSERT_FALSE(s.SharesDictionaryWith(t));
  std::vector<uint32_t> sel;
  for (uint32_t r = 0; r < 3000; r += 3) sel.push_back(r);
  ExpectPredicatesMatchFlat(s, t, sel, "per-entry");
  // Comparing a column with itself shares one dictionary.
  ExpectPredicatesMatchFlat(s, s, sel, "same-dictionary");
}

TEST(DictKernelTest, SmallBatchesFallBackToPerRowAndMatchFlat) {
  // 400 entries but a 25-row selection: fewer rows than entries, so the
  // kernels read each row through its code instead.
  ColumnVector s = RandomEncoded(3, 3000, 400);
  ColumnVector t = RandomEncoded(4, 3000, 400);
  ASSERT_GT(s.dictionary().size(), 25u);
  std::vector<uint32_t> sel;
  for (uint32_t r = 7; r < 3000 && sel.size() < 25; r += 113) {
    sel.push_back(r);
  }
  ExpectPredicatesMatchFlat(s, t, sel, "per-row");
}

TEST(DictKernelTest, AllNullAndEmptyDictionaryColumns) {
  ColumnVector nulls = ColumnVector::MakeDictionary();
  for (int i = 0; i < 10; ++i) nulls.AppendNull();
  ASSERT_TRUE(nulls.is_dictionary());
  ASSERT_EQ(nulls.dictionary().size(), 0u);
  std::vector<uint32_t> sel = {0, 4, 9};
  ExpectPredicatesMatchFlat(nulls, nulls, sel, "all-null");
}

TEST(DictKernelTest, HashEqualityAndCompareMatchFlat) {
  ColumnVector a = RandomEncoded(5, 2500, 20);
  ColumnVector b = RandomEncoded(6, 2500, 25);  // another dictionary
  ColumnVector fa = Flat(a), fb = Flat(b);
  const size_t n = a.size();

  for (bool combine : {false, true}) {
    std::vector<uint64_t> got(n, kHashTableSalt), want(n, kHashTableSalt);
    a.HashBatch(got.data(), n, combine);
    fa.HashBatch(want.data(), n, combine);
    EXPECT_EQ(got, want) << "combine=" << combine;
  }
  for (size_t r = 0; r < n; ++r) ASSERT_EQ(a.HashRow(r), fa.HashRow(r));

  std::mt19937 rng(7);
  std::vector<uint32_t> rows(n), other_rows(n);
  for (size_t i = 0; i < n; ++i) {
    rows[i] = static_cast<uint32_t>(rng() % n);
    other_rows[i] = static_cast<uint32_t>(rng() % n);
  }
  // Hashing through a selection (the scans' join filters) equals hashing
  // the gathered rows, encoded or flat.
  for (const ColumnVector* v : {&a, &fa}) {
    std::vector<uint64_t> via_sel(n, kHashTableSalt), want(n, kHashTableSalt);
    v->HashBatch(via_sel.data(), n, /*combine=*/true, rows.data());
    fa.Gather(rows).HashBatch(want.data(), n, /*combine=*/true);
    EXPECT_EQ(via_sel, want);
  }
  // Same dictionary (codes), different dictionaries and encoded vs flat
  // (strings): all must equal the flat-vs-flat answer.
  ColumnVector a_gathered = a.Gather(other_rows);
  ASSERT_TRUE(a.SharesDictionaryWith(a_gathered));
  std::vector<uint32_t> iota(n);
  std::iota(iota.begin(), iota.end(), 0u);
  ColumnVector fa_gathered = Flat(a_gathered);
  struct Case {
    const ColumnVector* lhs;
    const ColumnVector* rhs;
    const ColumnVector* flat_lhs;
    const ColumnVector* flat_rhs;
    const uint32_t* rhs_rows;
    const char* label;
  };
  const Case cases[] = {
      {&a, &a, &fa, &fa, other_rows.data(), "same dictionary"},
      {&a, &a_gathered, &fa, &fa_gathered, iota.data(), "gathered"},
      {&a, &b, &fa, &fb, other_rows.data(), "different dictionaries"},
      {&a, &fb, &fa, &fb, other_rows.data(), "encoded vs flat"},
      {&fa, &b, &fa, &fb, other_rows.data(), "flat vs encoded"},
  };
  for (const Case& c : cases) {
    std::vector<uint8_t> got(n, 1), want(n, 1);
    c.lhs->BatchEqualRows(rows.data(), *c.rhs, c.rhs_rows, n, true,
                          got.data());
    c.flat_lhs->BatchEqualRows(rows.data(), *c.flat_rhs, c.rhs_rows, n, true,
                               want.data());
    EXPECT_EQ(got, want) << c.label;
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(c.lhs->CompareRows(rows[i], *c.rhs, c.rhs_rows[i]),
                c.flat_lhs->CompareRows(rows[i], *c.flat_rhs, c.rhs_rows[i]))
          << c.label << " pair " << i;
    }
  }
}

TEST(DictKernelTest, GatherAndSliceKeepTheDictionary) {
  ColumnVector a = RandomEncoded(8, 1000, 15);
  ColumnVector fa = Flat(a);
  std::vector<uint32_t> sel = {999, 0, 5, 5, 500};
  ColumnVector g = a.Gather(sel);
  EXPECT_TRUE(g.SharesDictionaryWith(a));
  ExpectSameRows(g, fa.Gather(sel), "gather");
  ColumnVector s = a.Slice(100, 300);
  EXPECT_TRUE(s.SharesDictionaryWith(a));
  ExpectSameRows(s, fa.Slice(100, 300), "slice");
  ColumnVector none = a.Gather({});
  EXPECT_TRUE(none.SharesDictionaryWith(a));
  EXPECT_EQ(none.size(), 0u);
}

TEST(DictAppendTest, SameDictionaryMovesCodesOthersIntern) {
  ColumnVector a = RandomEncoded(9, 600, 10);
  ColumnVector b = RandomEncoded(10, 600, 30);
  const size_t a_entries = a.dictionary().size();
  ColumnVector fa = Flat(a), fb = Flat(b);

  ColumnVector out(TypeId::kString);
  ColumnVector oracle(TypeId::kString);
  out.AppendRange(a, 0, 200);  // empty: adopts a's dictionary
  oracle.AppendRange(fa, 0, 200);
  EXPECT_TRUE(out.SharesDictionaryWith(a));
  out.AppendRange(a, 200, 400);  // same dictionary: codes move
  oracle.AppendRange(fa, 200, 400);
  EXPECT_TRUE(out.SharesDictionaryWith(a));
  const uint32_t pad = UINT32_MAX;
  std::vector<uint32_t> sel = {3, pad, 599, 0, pad};
  out.AppendGatherPadded(a, sel.data(), sel.size());
  oracle.AppendGatherPadded(fa, sel.data(), sel.size());
  for (size_t r : {7u, 8u, 9u}) {
    out.AppendFrom(a, r);
    oracle.AppendFrom(fa, r);
  }
  EXPECT_TRUE(out.SharesDictionaryWith(a));
  ExpectSameRows(out, oracle, "same dictionary");

  // A different dictionary, and flat strings, are interned into a copy
  // of the shared dictionary; `a` itself is left alone.
  out.AppendRange(b, 0, 600);
  oracle.AppendRange(fb, 0, 600);
  out.AppendGatherPadded(fb, sel.data(), sel.size());
  oracle.AppendGatherPadded(fb, sel.data(), sel.size());
  out.AppendString("fresh");
  oracle.AppendString("fresh");
  EXPECT_TRUE(out.is_dictionary());
  EXPECT_FALSE(out.SharesDictionaryWith(a));
  EXPECT_EQ(a.dictionary().size(), a_entries);
  ExpectSameRows(out, oracle, "interned");
  ExpectSameRows(a, fa, "source untouched");
  EXPECT_TRUE(out.CheckConsistency().ok());

  // A non-empty flat vector stays flat and decodes what it appends.
  ColumnVector flat_out(TypeId::kString);
  flat_out.AppendString("x");
  flat_out.AppendRange(a, 0, 600);
  EXPECT_FALSE(flat_out.is_dictionary());
  ColumnVector flat_oracle(TypeId::kString);
  flat_oracle.AppendString("x");
  flat_oracle.AppendRange(fa, 0, 600);
  ExpectSameRows(flat_out, flat_oracle, "flat destination");
}

TEST(DictAppendTest, ChunkAppendKeepsCodes) {
  ColumnVector a = RandomEncoded(11, 900, 8);
  Chunk first = ChunkOf({a.Slice(0, 400)});
  Chunk second = ChunkOf({a.Slice(400, 500)});
  Chunk all;
  all.Append(std::move(first));
  all.Append(std::move(second));
  EXPECT_TRUE(all.column(0).SharesDictionaryWith(a));
  ExpectSameRows(all.column(0), Flat(a), "chunk append");
}

TEST(DictGroupTest, GroupKeyTableMatchesFlat) {
  ColumnVector s = RandomEncoded(12, 3000, 11);
  ColumnVector n(TypeId::kInt64);
  std::mt19937 rng(13);
  for (size_t r = 0; r < 3000; ++r) {
    if (rng() % 10 == 0) {
      n.AppendNull();
    } else {
      n.AppendInt64(static_cast<int64_t>(rng() % 4));
    }
  }
  auto run = [](const std::vector<ColumnVector>& keys, GroupKeyTable* table,
                size_t begin, size_t count, std::vector<uint32_t>* gids) {
    std::vector<ColumnVector> batch;
    for (const ColumnVector& k : keys) batch.push_back(k.Slice(begin, count));
    std::vector<uint64_t> hashes(count, kHashTableSalt);
    for (const ColumnVector& k : batch) {
      k.HashBatch(hashes.data(), count, /*combine=*/true);
    }
    std::vector<uint32_t> out(count);
    std::vector<uint8_t> created(count);
    HashTableStats stats;
    table->FindOrCreate(batch, hashes.data(), count, out.data(),
                        created.data(), &stats);
    gids->insert(gids->end(), out.begin(), out.end());
  };
  GroupKeyTable encoded, flat;
  std::vector<uint32_t> encoded_gids, flat_gids;
  const std::vector<ColumnVector> ekeys = {s, n};
  const std::vector<ColumnVector> fkeys = {Flat(s), n};
  for (size_t begin : {0u, 1000u, 2000u}) {
    run(ekeys, &encoded, begin, 1000, &encoded_gids);
    run(fkeys, &flat, begin, 1000, &flat_gids);
  }
  EXPECT_EQ(encoded_gids, flat_gids);
  ASSERT_EQ(encoded.group_count(), flat.group_count());
  EXPECT_TRUE(encoded.keys()[0].SharesDictionaryWith(s));
  ExpectSameRows(encoded.keys()[0], flat.keys()[0], "group keys");
  EXPECT_EQ(encoded.group_hashes(), flat.group_hashes());
}

TEST(DictJsonTest, WriterMatchesFlat) {
  Schema schema({{"s", TypeId::kString, true}, {"t", TypeId::kString, true}});
  for (size_t rows : {5u, 2000u}) {
    // 5 rows over ~40 entries escape per row; 2000 rows escape each
    // entry once.
    ColumnVector s = RandomEncoded(14, rows, 40);
    ColumnVector t = RandomEncoded(15, rows, 3);
    QueryResult encoded(schema, ChunkOf({s, t}), ExecStats{});
    QueryResult flat(schema, ChunkOf({Flat(s), Flat(t)}), ExecStats{});
    EXPECT_EQ(QueryHandler::SerializeResultJson(encoded),
              QueryHandler::SerializeResultJson(flat))
        << rows << " rows";
  }
}

// ---------------------------------------------------------------------
// Table storage

Schema OneStringSchema() {
  return Schema({{"id", TypeId::kInt64, false}, {"s", TypeId::kString, true}});
}

TEST(DictTableTest, CapCrossedByAppendRowDecodesForGood) {
  Table table("t", OneStringSchema());
  for (size_t i = 0; i < kMaxDictionaryEntries; ++i) {
    ASSERT_TRUE(table
                    .AppendRow({Value::Int64(static_cast<int64_t>(i)),
                                Value::String(Word(i))})
                    .ok());
  }
  ASSERT_TRUE(table.column(1).is_dictionary());
  EXPECT_EQ(table.column(1).dictionary().size(), kMaxDictionaryEntries);
  // A repeat still fits; one more distinct value crosses the cap.
  ASSERT_TRUE(table.AppendRow({Value::Int64(-1), Value::String(Word(0))}).ok());
  EXPECT_TRUE(table.column(1).is_dictionary());
  ASSERT_TRUE(table.AppendRow({Value::Int64(-2), Value::String("new")}).ok());
  EXPECT_FALSE(table.column(1).is_dictionary());
  ASSERT_TRUE(table.AppendRow({Value::Int64(-3), Value::String(Word(1))}).ok());
  EXPECT_FALSE(table.column(1).is_dictionary());
  ASSERT_EQ(table.num_rows(), kMaxDictionaryEntries + 3);
  for (size_t i = 0; i < kMaxDictionaryEntries; ++i) {
    ASSERT_EQ(table.column(1).GetString(i), Word(i));
  }
  EXPECT_EQ(table.column(1).GetString(kMaxDictionaryEntries), Word(0));
  EXPECT_EQ(table.column(1).GetString(kMaxDictionaryEntries + 1), "new");
  EXPECT_EQ(table.column(1).GetString(kMaxDictionaryEntries + 2), Word(1));
  EXPECT_TRUE(table.column(1).CheckConsistency().ok());
}

TEST(DictTableTest, CapCrossedMidChunkDecodesTheRest) {
  Table table("t", OneStringSchema());
  const size_t before = kMaxDictionaryEntries - 10;
  for (size_t i = 0; i < before; ++i) {
    ASSERT_TRUE(table
                    .AppendRow({Value::Int64(static_cast<int64_t>(i)),
                                Value::String(Word(i))})
                    .ok());
  }
  // A 100-row flat chunk of new values: the 11th new value crosses the
  // cap in the middle of the append.
  Chunk chunk(OneStringSchema());
  for (size_t i = 0; i < 100; ++i) {
    chunk.AppendRow({Value::Int64(static_cast<int64_t>(before + i)),
                     i % 9 == 0 ? Value::Null(TypeId::kString)
                                : Value::String(Word(before + i))});
  }
  ASSERT_TRUE(table.AppendChunk(chunk).ok());
  EXPECT_FALSE(table.column(1).is_dictionary());
  ASSERT_EQ(table.num_rows(), before + 100);
  for (size_t i = 0; i < 100; ++i) {
    const size_t r = before + i;
    ASSERT_EQ(table.column(1).IsNull(r), i % 9 == 0) << r;
    if (i % 9 != 0) {
      ASSERT_EQ(table.column(1).GetString(r), Word(r));
    }
  }
  // A scatter into a flat column stays flat.
  ColumnVector z(TypeId::kString);
  z.AppendString("z");
  ASSERT_TRUE(table.UpdateRows({0}, {1}, {z}).ok());
  EXPECT_FALSE(table.column(1).is_dictionary());
  EXPECT_EQ(table.column(1).GetString(0), "z");
}

TEST(DictTableTest, UpdateAndDeleteOnEncodedColumns) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id BIGINT, kind VARCHAR)").ok());
  for (int i = 0; i < 60; ++i) {
    const char* kind = i % 3 == 0 ? "'a'" : (i % 3 == 1 ? "'b'" : "NULL");
    ASSERT_TRUE(db.Execute("INSERT INTO t VALUES (" + std::to_string(i) +
                           ", " + kind + ")")
                    .ok());
  }
  auto table = db.catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  ASSERT_TRUE((*table)->column(1).is_dictionary());
  // A reader's snapshot must not see the writes below (copy-on-write).
  Chunk snapshot = (*table)->GetChunk(0, (*table)->num_rows());

  ASSERT_TRUE(db.Execute("UPDATE t SET kind = 'c' WHERE id < 12").ok());
  ASSERT_TRUE(db.Execute("UPDATE t SET kind = NULL WHERE id = 59").ok());
  ASSERT_TRUE(db.Execute("DELETE FROM t WHERE kind = 'b'").ok());
  EXPECT_TRUE((*table)->column(1).is_dictionary());
  EXPECT_TRUE((*table)->column(1).CheckConsistency().ok());

  auto result = db.Execute(
      "SELECT kind, COUNT(*) AS n FROM t GROUP BY kind ORDER BY kind");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  // ids 0..11 -> c (12 rows); a: i%3==0 and i>=12 -> 16; NULL: i%3==2
  // and i>=12 (16) plus id 59 already NULL; b deleted.
  ASSERT_EQ(result->num_rows(), 3u);
  EXPECT_TRUE(result->Get(0, 0).is_null());
  EXPECT_EQ(result->Get(0, 1).int64_value(), 16);
  EXPECT_EQ(result->Get(1, 0).string_value(), "a");
  EXPECT_EQ(result->Get(1, 1).int64_value(), 16);
  EXPECT_EQ(result->Get(2, 0).string_value(), "c");
  EXPECT_EQ(result->Get(2, 1).int64_value(), 12);

  ASSERT_EQ(snapshot.num_rows(), 60u);
  EXPECT_EQ(snapshot.column(1).GetString(0), "a");
  EXPECT_EQ(snapshot.column(1).GetString(1), "b");
  EXPECT_TRUE(snapshot.column(1).IsNull(2));
  EXPECT_FALSE(snapshot.column(1).dictionary().entries().size() > 2);
}

// ---------------------------------------------------------------------
// End to end: TPC-H over encoded tables vs flat copies.

/// A copy of `src` whose string columns are flat: rows with more distinct
/// strings than a dictionary holds push every string column past the
/// cap, then RetainRows drops them again (a flat column stays flat).
std::shared_ptr<Table> FlatCopy(const Table& src) {
  const Schema& schema = src.schema();
  auto out = std::make_shared<Table>(src.name(), schema);
  std::vector<Value> junk(schema.num_fields());
  for (size_t i = 0; i <= kMaxDictionaryEntries; ++i) {
    for (size_t f = 0; f < schema.num_fields(); ++f) {
      const TypeId type = schema.field(f).type;
      junk[f] = type == TypeId::kString
                    ? Value::String("junk" + std::to_string(i))
                    : Value::Null(type);
    }
    EXPECT_TRUE(out->AppendRow(junk).ok());
  }
  EXPECT_TRUE(out->AppendChunk(src.GetChunk(0, src.num_rows())).ok());
  std::vector<uint32_t> keep(src.num_rows());
  std::iota(keep.begin(), keep.end(),
            static_cast<uint32_t>(kMaxDictionaryEntries + 1));
  EXPECT_TRUE(out->RetainRows(keep).ok());
  for (size_t c = 0; c < out->num_columns(); ++c) {
    EXPECT_FALSE(out->column(c).is_dictionary()) << src.name() << "." << c;
  }
  return out;
}

/// A scan's `s op 'literal'` and `s [NOT] IN (...)` conjuncts: over an
/// encoded column they run once per entry and keep rows by code; over
/// the flat copy (a column decoded past kMaxDictionaryEntries) they
/// compare row by row. Rows, bytes and counters must agree, at 1 and 4
/// threads.
class DictScanTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    setenv("AGORA_THREADS", "4", 0);
    encoded_ = new Database();
    ASSERT_TRUE(
        encoded_->Execute("CREATE TABLE e (id BIGINT, s VARCHAR)").ok());
    ASSERT_TRUE(
        encoded_->Execute("CREATE TABLE empty (id BIGINT, s VARCHAR)").ok());
    auto table = encoded_->catalog().GetTable("e");
    ASSERT_TRUE(table.ok());
    // 70,000 rows (two morsels) over 37 words; every 11th row NULL.
    for (int64_t i = 0; i < 70000; ++i) {
      ASSERT_TRUE((*table)
                      ->AppendRow({Value::Int64(i),
                                   i % 11 == 0
                                       ? Value::Null(TypeId::kString)
                                       : Value::String(Word(i % 37))})
                      .ok());
    }
    ASSERT_TRUE((*table)->column(1).is_dictionary());
    flat_ = new Database();
    for (const char* name : {"e", "empty"}) {
      auto src = encoded_->catalog().GetTable(name);
      ASSERT_TRUE(src.ok());
      ASSERT_TRUE(flat_->catalog().RegisterTable(FlatCopy(**src)).ok());
    }
  }
  static void TearDownTestSuite() {
    delete encoded_;
    delete flat_;
    encoded_ = flat_ = nullptr;
  }

  static Database* encoded_;
  static Database* flat_;
};

Database* DictScanTest::encoded_ = nullptr;
Database* DictScanTest::flat_ = nullptr;

TEST_F(DictScanTest, StringConjunctsMatchTheFlatColumn) {
  // Word(3), Word(10), ... carry escapes; 'w6' is a plain entry.
  const std::string cases[] = {
      "s = 'w6'",
      "s <> 'w6'",
      "s < 'w6'",
      "s >= 'w5'",
      "'w12' > s",
      "s IN ('w1', 'w4')",
      "s NOT IN ('w1', 'w4')",
      "s IN ('w1', NULL)",
      "s NOT IN ('w1', NULL)",
      "s = 'absent'",
      "s <> 'absent'",
      "s IN ('absent', 'w2')",
      "s NOT IN ('absent')",
      // After the range, between other conjuncts, twice.
      "s = 'w2' AND id < 30000",
      "s IN ('w1', 'w2', 'w9') AND id % 3 = 0 AND s <> 'w1'",
      "id BETWEEN 1000 AND 50000 AND s >= 'w2' AND s < 'w6'",
      "s = 'w6' AND s <> 'w6'",
      "s = 'w2' OR s = 'w5'",
      // Fewer rows reach the test than the dictionary has entries.
      "id BETWEEN 5 AND 20 AND s IN ('w6', 'w7')",
  };
  for (const std::string& where : cases) {
    for (const char* table : {"e", "empty"}) {
      const std::string sql = "SELECT id, s FROM " + std::string(table) +
                              " WHERE " + where;
      for (int threads : {1, 4}) {
        encoded_->set_execution_threads(threads);
        flat_->set_execution_threads(threads);
        auto got = encoded_->Execute(sql);
        auto want = flat_->Execute(sql);
        encoded_->set_execution_threads(0);
        flat_->set_execution_threads(0);
        ASSERT_TRUE(got.ok()) << sql << ": " << got.status().ToString();
        ASSERT_TRUE(want.ok()) << sql << ": " << want.status().ToString();
        const std::string label = sql + " [" + std::to_string(threads) + "]";
        // Compared whole, not through EXPECT_EQ: a mismatch of two
        // 70,000-row documents is reported by its row counts.
        EXPECT_TRUE(QueryHandler::SerializeResultJson(*got) ==
                    QueryHandler::SerializeResultJson(*want))
            << label << ": " << got->num_rows() << " rows, want "
            << want->num_rows();
        EXPECT_EQ(got->stats().expr_rows_evaluated,
                  want->stats().expr_rows_evaluated)
            << label;
        EXPECT_EQ(got->stats().sel_vector_hits, want->stats().sel_vector_hits)
            << label;
        if (std::string(table) == "e" && where != "s = 'absent'" &&
            where != "s = 'w6' AND s <> 'w6'" &&
            where != "s NOT IN ('w1', NULL)") {
          EXPECT_GT(got->num_rows(), 0u) << label;
        }
      }
    }
  }
}

class DictTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    // Force a multi-worker pool before the first query creates it.
    setenv("AGORA_THREADS", "4", 0);
    encoded_ = new Database();
    TpchOptions options;
    options.scale_factor = 0.01;
    ASSERT_TRUE(GenerateTpch(options, &encoded_->catalog()).ok());
    flat_ = new Database();
    for (const std::string& name : encoded_->catalog().TableNames()) {
      auto table = encoded_->catalog().GetTable(name);
      ASSERT_TRUE(table.ok());
      ASSERT_TRUE(flat_->catalog().RegisterTable(FlatCopy(**table)).ok());
    }
  }
  static void TearDownTestSuite() {
    delete encoded_;
    delete flat_;
    encoded_ = flat_ = nullptr;
  }

  static std::string RunJson(Database* db, const std::string& sql,
                             int threads) {
    db->set_execution_threads(threads);
    auto result = db->Execute(sql);
    db->set_execution_threads(0);
    EXPECT_TRUE(result.ok()) << result.status().ToString();
    return result.ok() ? QueryHandler::SerializeResultJson(*result) : "";
  }

  static Database* encoded_;
  static Database* flat_;
};

Database* DictTpchTest::encoded_ = nullptr;
Database* DictTpchTest::flat_ = nullptr;

TEST_F(DictTpchTest, SevenQueriesByteIdenticalToFlatAt1And4Threads) {
  auto lineitem = encoded_->catalog().GetTable("lineitem");
  ASSERT_TRUE(lineitem.ok());
  const Schema& schema = (*lineitem)->schema();
  ASSERT_TRUE(
      (*lineitem)->column(*schema.FieldIndex("l_shipmode")).is_dictionary());
  const std::string queries[] = {TpchQ1(),  TpchQ3(),  TpchQ5(), TpchQ6(),
                                 TpchQ10(), TpchQ12(), TpchQ14()};
  for (const std::string& sql : queries) {
    const std::string want = RunJson(flat_, sql, 1);
    ASSERT_FALSE(want.empty());
    for (int threads : {1, 4}) {
      EXPECT_EQ(RunJson(encoded_, sql, threads), want)
          << threads << " threads: " << sql;
    }
  }
}

}  // namespace
}  // namespace agora
