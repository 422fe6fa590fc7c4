// Column views: ColumnVector::Slice returns rows [offset, offset + n) of a
// shared buffer in O(1), so Table::GetChunk and a scan's fully passing
// blocks copy nothing. Every reader must index the buffer at
// offset + row; these tests read each kernel from views of every type
// and form against a flat copy of the same rows, check that writes never
// cross between a view and its owner, and pin the late-materialization
// figures of TPC-H Q1 and Q5.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "engine/database.h"
#include "sql/parser.h"
#include "storage/chunk.h"
#include "storage/spill.h"
#include "tpch/tpch.h"

namespace agora {
namespace {

enum class Form { kFlat, kDictionary, kConstant };

const char* FormName(Form f) {
  switch (f) {
    case Form::kFlat:
      return "flat";
    case Form::kDictionary:
      return "dictionary";
    case Form::kConstant:
      return "constant";
  }
  return "?";
}

/// Row `i` of a test column of `type`: about one row in seven is NULL,
/// strings repeat over 40 distinct values (dictionary-friendly), doubles
/// include -0.0.
Value TestValue(TypeId type, size_t i, Rng* rng) {
  if (rng->Uniform(0, 6) == 0) return Value::Null(type);
  const int64_t x = rng->Uniform(-50, 50);
  switch (type) {
    case TypeId::kBool:
      return Value::Bool(x > 0);
    case TypeId::kInt64:
      return Value::Int64(x * 1000003 + static_cast<int64_t>(i % 3));
    case TypeId::kDate:
      return Value::Date(9000 + x);
    case TypeId::kDouble:
      return Value::Double(x == 0 ? -0.0 : static_cast<double>(x) / 8.0);
    case TypeId::kString:
      return Value::String("s" + std::to_string(x % 40));
    case TypeId::kInvalid:
      break;
  }
  return Value::Null();
}

/// A `rows`-row column of `type` in `form`.
ColumnVector MakeColumn(TypeId type, Form form, size_t rows, uint64_t seed) {
  Rng rng(seed);
  if (form == Form::kConstant) {
    return ColumnVector::MakeConstant(type, TestValue(type, 0, &rng), rows);
  }
  ColumnVector col = form == Form::kDictionary ? ColumnVector::MakeDictionary()
                                               : ColumnVector(type);
  for (size_t i = 0; i < rows; ++i) col.AppendValue(TestValue(type, i, &rng));
  return col;
}

/// A flat, owning copy of `v`'s rows, built value by value.
ColumnVector FlatCopy(const ColumnVector& v) {
  ColumnVector out(v.type());
  for (size_t i = 0; i < v.size(); ++i) out.AppendValue(v.GetValue(i));
  return out;
}

void ExpectSameValues(const ColumnVector& got, const ColumnVector& want,
                      const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    const Value a = got.GetValue(i);
    const Value b = want.GetValue(i);
    ASSERT_EQ(a.is_null(), b.is_null()) << what << " row " << i;
    if (a.is_null()) continue;
    if (a.type() == TypeId::kDouble) {
      const double x = a.double_value(), y = b.double_value();
      ASSERT_EQ(std::memcmp(&x, &y, sizeof(x)), 0) << what << " row " << i;
    } else {
      ASSERT_EQ(a.Compare(b), 0) << what << " row " << i;
    }
  }
}

const TypeId kTypes[] = {TypeId::kBool, TypeId::kInt64, TypeId::kDate,
                         TypeId::kDouble, TypeId::kString};

struct ViewCase {
  TypeId type;
  Form form;
  size_t offset;
  size_t length;
};

/// Every type in every form it has, at a block offset and at offsets
/// that are not multiples of the block size.
std::vector<ViewCase> AllCases() {
  std::vector<ViewCase> cases;
  for (TypeId type : kTypes) {
    for (Form form : {Form::kFlat, Form::kDictionary, Form::kConstant}) {
      if (form == Form::kDictionary && type != TypeId::kString) continue;
      cases.push_back({type, form, kChunkSize, kChunkSize});
      cases.push_back({type, form, 5, 1000});
      cases.push_back({type, form, 3 * kChunkSize - 7, 513});
    }
  }
  return cases;
}

std::string Label(const ViewCase& c) {
  return std::string(TypeIdToString(c.type)) + " " + FormName(c.form) +
         " [" + std::to_string(c.offset) + ", +" + std::to_string(c.length) +
         ")";
}

constexpr size_t kColumnRows = 4 * kChunkSize;

TEST(ColumnViewTest, SliceIsAViewOfTheSameRows) {
  for (const ViewCase& c : AllCases()) {
    SCOPED_TRACE(Label(c));
    const ColumnVector col = MakeColumn(c.type, c.form, kColumnRows, 7);
    const ColumnVector view = col.Slice(c.offset, c.length);
    EXPECT_EQ(view.is_view(), c.form != Form::kConstant);
    EXPECT_EQ(view.is_dictionary(), c.form == Form::kDictionary);
    if (view.is_view()) {
      EXPECT_EQ(view.MemoryBytes(), 0u);
    }
    ASSERT_TRUE(view.CheckConsistency().ok())
        << view.CheckConsistency().ToString();
    ExpectSameValues(view, FlatCopy(col.Slice(c.offset, c.length)), "view");
    for (size_t i = 0; i < c.length; ++i) {
      ASSERT_EQ(view.GetValue(i).Compare(col.GetValue(c.offset + i)), 0)
          << i;
    }
    // A view of a view adds the offsets.
    const ColumnVector inner = view.Slice(3, c.length - 10);
    for (size_t i = 0; i < inner.size(); ++i) {
      ASSERT_EQ(inner.GetValue(i).Compare(col.GetValue(c.offset + 3 + i)), 0)
          << i;
    }
    EXPECT_EQ(col.Slice(c.offset, 0).size(), 0u);
  }
}

TEST(ColumnViewTest, KernelsReadViewsAtTheirOffset) {
  for (const ViewCase& c : AllCases()) {
    SCOPED_TRACE(Label(c));
    const ColumnVector col = MakeColumn(c.type, c.form, kColumnRows, 11);
    const ColumnVector view = col.Slice(c.offset, c.length);
    const ColumnVector flat = FlatCopy(view);

    // AppendRange, into an empty vector and after rows already there.
    ColumnVector appended(c.type);
    appended.AppendRange(view, 2, c.length - 2);
    ExpectSameValues(appended, flat.Slice(2, c.length - 2), "AppendRange");
    ColumnVector after = MakeColumn(c.type, Form::kFlat, 9, 3);
    const ColumnVector head = FlatCopy(after);
    after.AppendRange(view, 0, c.length);
    ExpectSameValues(after.Slice(0, 9), head, "AppendRange head");
    ExpectSameValues(after.Slice(9, c.length), flat, "AppendRange tail");

    // Gather, with repeats and out of order.
    Rng rng(c.offset);
    std::vector<uint32_t> sel(300);
    for (uint32_t& s : sel) {
      s = static_cast<uint32_t>(
          rng.Uniform(0, static_cast<int64_t>(c.length) - 1));
    }
    ExpectSameValues(view.Gather(sel), flat.Gather(sel), "Gather");

    // CompareRows against the flat copy, both ways.
    for (size_t i = 0; i < c.length; i += 7) {
      ASSERT_EQ(view.CompareRows(i, flat, i), 0) << i;
      ASSERT_EQ(flat.CompareRows(i, view, i), 0) << i;
    }

    // Flatten decodes or expands the view's rows only; a flat view is
    // already flat and stays a view.
    ColumnVector flattened = view;
    flattened.Flatten();
    EXPECT_EQ(flattened.is_view(), c.form == Form::kFlat);
    EXPECT_FALSE(flattened.is_dictionary());
    EXPECT_FALSE(flattened.is_constant());
    ExpectSameValues(flattened, flat, "Flatten");
    ASSERT_TRUE(flattened.CheckConsistency().ok());
    ExpectSameValues(view, flat, "view after Flatten of a copy");

    if (c.form == Form::kConstant) continue;  // raw kernels need rows

    // HashBatch over all rows and through a selection.
    std::vector<uint64_t> got(c.length), want(c.length);
    view.HashBatch(got.data(), c.length, /*combine=*/false);
    flat.HashBatch(want.data(), c.length, /*combine=*/false);
    EXPECT_EQ(got, want);
    std::vector<uint64_t> got_sel(sel.size(), 1), want_sel(sel.size(), 1);
    view.HashBatch(got_sel.data(), sel.size(), /*combine=*/true, sel.data());
    flat.HashBatch(want_sel.data(), sel.size(), /*combine=*/true, sel.data());
    EXPECT_EQ(got_sel, want_sel);
    for (size_t i = 0; i < c.length; i += 13) {
      EXPECT_EQ(view.HashRow(i), flat.HashRow(i)) << i;
    }

    // BatchEqualRows: a view against its flat copy, and against a view of
    // the same rows at another offset of an identical column.
    std::vector<uint32_t> rows(c.length);
    for (size_t i = 0; i < c.length; ++i) rows[i] = static_cast<uint32_t>(i);
    std::vector<uint8_t> equal(c.length, 1);
    view.BatchEqualRows(rows.data(), flat, rows.data(), c.length,
                        /*bitwise_doubles=*/true, equal.data());
    for (size_t i = 0; i < c.length; ++i) ASSERT_EQ(equal[i], 1) << i;
    ColumnVector shifted = FlatCopy(MakeColumn(c.type, Form::kFlat, 4, 5));
    shifted.AppendRange(view, 0, c.length);
    const ColumnVector shifted_view = shifted.Slice(4, c.length);
    std::vector<uint8_t> equal2(c.length, 1);
    view.BatchEqualRows(rows.data(), shifted_view, rows.data(), c.length,
                        /*bitwise_doubles=*/false, equal2.data());
    for (size_t i = 0; i < c.length; ++i) ASSERT_EQ(equal2[i], 1) << i;

    // The raw pointers address the view's first row.
    const uint8_t* valid = view.validity_data();
    for (size_t i = 0; i < c.length; ++i) {
      ASSERT_EQ(valid[i] != 0, !flat.IsNull(i)) << i;
    }
  }
}

TEST(ColumnViewTest, SpillRoundTripOfViews) {
  SpillManager manager;
  for (const ViewCase& c : AllCases()) {
    SCOPED_TRACE(Label(c));
    const ColumnVector col = MakeColumn(c.type, c.form, kColumnRows, 13);
    Chunk chunk;
    chunk.AddColumn(col.Slice(c.offset, c.length));
    auto created = manager.Create();
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<SpillFile> file = std::move(created).value();
    ASSERT_TRUE(file->WriteChunk(chunk).ok());
    ASSERT_TRUE(file->Rewind().ok());
    Chunk back;
    bool eof = false;
    ASSERT_TRUE(file->ReadChunk(&back, &eof).ok());
    ASSERT_FALSE(eof);
    ASSERT_EQ(back.num_columns(), 1u);
    ExpectSameValues(back.column(0), FlatCopy(chunk.column(0)), "spill");
  }
}

TEST(ColumnViewTest, AppendToAViewCopiesOnlyItsRows) {
  constexpr size_t kRows = 300000;
  for (Form form : {Form::kFlat, Form::kDictionary}) {
    const TypeId type = form == Form::kFlat ? TypeId::kInt64 : TypeId::kString;
    SCOPED_TRACE(FormName(form));
    const ColumnVector col = MakeColumn(type, form, kRows, 17);
    const size_t col_bytes = col.MemoryBytes();
    const size_t row_bytes =
        type == TypeId::kInt64 ? sizeof(int64_t) + 1 : sizeof(uint32_t) + 1;
    ASSERT_GE(col_bytes, kRows * row_bytes);
    const ColumnVector expected = FlatCopy(col.Slice(kChunkSize, kChunkSize));

    ColumnVector view = col.Slice(kChunkSize, kChunkSize);
    view.AppendFrom(col, 0);
    EXPECT_FALSE(view.is_view());
    ASSERT_EQ(view.size(), kChunkSize + 1);
    // Growth may double the copied rows' buffers, never reach the column.
    EXPECT_LE(view.MemoryBytes(), 2 * (kChunkSize + 1) * row_bytes);
    EXPECT_EQ(view.is_dictionary(), form == Form::kDictionary);
    ExpectSameValues(view.Slice(0, kChunkSize), expected, "copied rows");
    EXPECT_EQ(view.GetValue(kChunkSize).Compare(col.GetValue(0)), 0);
    // The column itself is untouched.
    EXPECT_EQ(col.size(), kRows);
    EXPECT_EQ(col.MemoryBytes(), col_bytes);
    ExpectSameValues(col.Slice(kChunkSize, kChunkSize), expected, "column");

    // A mutable pointer unshares the same way.
    const bool was_null = col.IsNull(5);
    ColumnVector written = col.Slice(5, 100);
    written.mutable_validity_data()[0] = 0;
    EXPECT_TRUE(written.IsNull(0));
    EXPECT_EQ(written.size(), 100u);
    EXPECT_LE(written.MemoryBytes(), 100 * row_bytes);
    EXPECT_EQ(col.IsNull(5), was_null);
  }
}

TEST(ColumnViewTest, ChunkAppendMaterializesTheViewsItAdopts) {
  const ColumnVector col = MakeColumn(TypeId::kInt64, Form::kFlat, 5000, 19);
  Chunk piece;
  piece.AddColumn(col.Slice(100, 200));
  ASSERT_TRUE(piece.column(0).is_view());
  Chunk result;
  result.Append(std::move(piece));
  EXPECT_FALSE(result.column(0).is_view());
  EXPECT_GT(result.MemoryBytes(), 0u);
  ExpectSameValues(result.column(0), FlatCopy(col.Slice(100, 200)),
                   "adopted");
}

/// Values of `chunk`'s columns, boxed (a snapshot that owns nothing of
/// the chunk).
std::vector<std::vector<Value>> Snapshot(const Chunk& chunk) {
  std::vector<std::vector<Value>> rows;
  for (size_t r = 0; r < chunk.num_rows(); ++r) {
    rows.push_back(chunk.RowValues(r));
  }
  return rows;
}

TEST(ColumnViewTest, TableWritesLeaveLiveViewsUnchanged) {
  Database db;
  ASSERT_TRUE(
      db.Execute("CREATE TABLE t (id BIGINT, name VARCHAR, x DOUBLE)").ok());
  {
    auto table = db.catalog().GetTable("t");
    ASSERT_TRUE(table.ok());
    for (int64_t i = 0; i < 3 * static_cast<int64_t>(kChunkSize); ++i) {
      ASSERT_TRUE((*table)
                      ->AppendRow({Value::Int64(i),
                                   Value::String("n" + std::to_string(i % 9)),
                                   Value::Double(static_cast<double>(i) / 4)})
                      .ok());
    }
  }
  for (const char* write :
       {"UPDATE t SET x = -1.0, name = 'changed' WHERE id >= 2100",
        "DELETE FROM t WHERE id % 3 = 0",
        "INSERT INTO t VALUES (-5, 'new', 2.5)"}) {
    SCOPED_TRACE(write);
    auto table = db.catalog().GetTable("t");
    ASSERT_TRUE(table.ok());
    const Chunk view = (*table)->GetChunk(kChunkSize, kChunkSize);
    for (size_t c = 0; c < view.num_columns(); ++c) {
      ASSERT_TRUE(view.column(c).is_view()) << c;
    }
    const auto before = Snapshot(view);
    auto done = db.Execute(write);
    ASSERT_TRUE(done.ok()) << done.status().ToString();
    const auto after = Snapshot(view);
    ASSERT_EQ(after.size(), before.size());
    for (size_t r = 0; r < before.size(); ++r) {
      for (size_t c = 0; c < before[r].size(); ++c) {
        ASSERT_EQ(after[r][c].Compare(before[r][c]), 0) << r << "," << c;
      }
    }
  }
  // The writes landed in the table all the same.
  auto count = db.Execute("SELECT COUNT(*) FROM t WHERE name = 'changed'");
  ASSERT_TRUE(count.ok());
  EXPECT_GT(count->Get(0, 0).int64_value(), 0);
}

TEST(ColumnViewTest, QueryResultsHoldNoView) {
  Database db;
  ASSERT_TRUE(db.Execute("CREATE TABLE t (id BIGINT, name VARCHAR)").ok());
  auto table = db.catalog().GetTable("t");
  ASSERT_TRUE(table.ok());
  for (int64_t i = 0; i < 5000; ++i) {
    ASSERT_TRUE(
        (*table)->AppendRow({Value::Int64(i), Value::String("v")}).ok());
  }
  for (const char* sql : {"SELECT * FROM t", "SELECT id FROM t WHERE id < 3000",
                          "SELECT name, id FROM t WHERE id >= 0"}) {
    auto result = db.Execute(sql);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    for (size_t c = 0; c < result->num_columns(); ++c) {
      EXPECT_FALSE(result->data().column(c).is_view()) << sql << " " << c;
    }
  }
}

// Pins of the late-materialization figures. Q1's scan passes nearly
// every block whole, so it emits views; before views, a scan copied each
// passing block and Q1 at SF 0.01 materialized 3,328,044 bytes.
constexpr int64_t kQ1CopyingScanBytesSf001 = 3328044;

/// A one-thread TPC-H database at `scale_factor`.
std::unique_ptr<Database> TpchDb(double scale_factor) {
  auto db = std::make_unique<Database>();
  TpchOptions options;
  options.scale_factor = scale_factor;
  AGORA_CHECK(GenerateTpch(options, &db->catalog()).ok());
  db->set_execution_threads(1);
  return db;
}

TEST(LateMaterializationPinTest, Q1MaterializesAFifthOfTheCopyingScan) {
  auto result = TpchDb(0.01)->Execute(TpchQ1());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_LE(result->stats().bytes_materialized, kQ1CopyingScanBytesSf001 / 5);
}

/// Output widths of the joins on the path from `node` down to the scan
/// of `table`, innermost first.
void JoinWidthsAbove(const LogicalOpPtr& node, const std::string& table,
                     std::vector<size_t>* widths, bool* found) {
  if (node->kind() == LogicalOpKind::kScan) {
    *found = static_cast<const LogicalScan&>(*node).table()->name() == table;
    return;
  }
  for (const LogicalOpPtr& child : node->children()) {
    JoinWidthsAbove(child, table, widths, found);
    if (*found) {
      if (node->kind() == LogicalOpKind::kJoin) {
        widths->push_back(node->schema().num_fields());
      }
      return;
    }
  }
}

std::vector<size_t> Q5LineitemJoinWidths(Database* db) {
  auto stmt = ParseStatement(TpchQ5());
  AGORA_CHECK(stmt.ok());
  auto plan = db->PlanSelect(std::get<SelectStatement>(stmt->node));
  AGORA_CHECK(plan.ok()) << plan.status().ToString();
  std::vector<size_t> widths;
  bool found = false;
  JoinWidthsAbove(*plan, "lineitem", &widths, &found);
  return widths;
}

TEST(LateMaterializationPinTest, Q5JoinsEmitOnlyTheColumnsReadAboveThem) {
  // At SF 0.05 (the tpch_olap scale) three joins lie above the lineitem
  // scan. They emitted 11, 14 and 16 columns, of which the parents read
  // 5, 5 and 3.
  std::unique_ptr<Database> owner = TpchDb(0.05);
  Database* db = owner.get();
  EXPECT_EQ(Q5LineitemJoinWidths(db), (std::vector<size_t>{5, 5, 3}));
  auto pruned = db->Execute(TpchQ5());
  ASSERT_TRUE(pruned.ok());

  // Without projection pruning every join emits everything again, and
  // the answer is the same.
  db->optimizer().mutable_options().enable_projection_pruning = false;
  const std::vector<size_t> wide = Q5LineitemJoinWidths(db);
  auto unpruned = db->Execute(TpchQ5());
  db->optimizer().mutable_options().enable_projection_pruning = true;
  ASSERT_EQ(wide.size(), 3u);
  EXPECT_GT(wide[0], 5u);
  EXPECT_GT(wide[2], wide[1]);
  ASSERT_TRUE(unpruned.ok());
  ASSERT_EQ(unpruned->num_rows(), pruned->num_rows());
  for (size_t r = 0; r < pruned->num_rows(); ++r) {
    for (size_t c = 0; c < pruned->num_columns(); ++c) {
      EXPECT_EQ(pruned->Get(r, c).Compare(unpruned->Get(r, c)), 0);
    }
  }
}

}  // namespace
}  // namespace agora
