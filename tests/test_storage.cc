// Tests for columnar storage: ColumnVector, Chunk, Table (zone maps,
// indexes, sorted copies), TableAppender, Catalog and CSV import/export.
// The TableAppenderDictTest suite, which loads string columns, also
// carries the "dict" label.

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "storage/catalog.h"
#include "storage/csv.h"
#include "storage/table.h"
#include "storage/table_appender.h"

namespace agora {
namespace {

TEST(ColumnVectorTest, AppendAndAccessAllTypes) {
  ColumnVector ints(TypeId::kInt64);
  ints.AppendInt64(5);
  ints.AppendNull();
  EXPECT_EQ(ints.size(), 2u);
  EXPECT_EQ(ints.GetInt64(0), 5);
  EXPECT_TRUE(ints.IsNull(1));
  EXPECT_FALSE(ints.AllValid());

  ColumnVector strs(TypeId::kString);
  strs.AppendString("abc");
  EXPECT_EQ(strs.GetString(0), "abc");
  EXPECT_TRUE(strs.AllValid());

  ColumnVector bools(TypeId::kBool);
  bools.AppendBool(true);
  EXPECT_TRUE(bools.GetBool(0));

  ColumnVector dates(TypeId::kDate);
  dates.AppendValue(Value::Date(100));
  EXPECT_EQ(dates.GetValue(0).ToString(), DateToString(100));
}

TEST(ColumnVectorTest, GatherAndSlice) {
  ColumnVector col(TypeId::kInt64);
  for (int i = 0; i < 10; ++i) col.AppendInt64(i * 10);
  ColumnVector gathered = col.Gather({9, 0, 5});
  ASSERT_EQ(gathered.size(), 3u);
  EXPECT_EQ(gathered.GetInt64(0), 90);
  EXPECT_EQ(gathered.GetInt64(1), 0);
  EXPECT_EQ(gathered.GetInt64(2), 50);

  ColumnVector sliced = col.Slice(3, 4);
  ASSERT_EQ(sliced.size(), 4u);
  EXPECT_EQ(sliced.GetInt64(0), 30);
  EXPECT_EQ(sliced.GetInt64(3), 60);
}

TEST(ColumnVectorTest, CompareRowsWithNulls) {
  ColumnVector col(TypeId::kDouble);
  col.AppendNull();
  col.AppendDouble(1.5);
  col.AppendDouble(2.5);
  EXPECT_LT(col.CompareRows(0, col, 1), 0);  // NULL first
  EXPECT_EQ(col.CompareRows(0, col, 0), 0);
  EXPECT_LT(col.CompareRows(1, col, 2), 0);
  EXPECT_GT(col.CompareRows(2, col, 1), 0);
}

TEST(ColumnVectorTest, ScatterMutatesInPlace) {
  ColumnVector col(TypeId::kInt64);
  for (int64_t v : {1, 2, 3}) col.AppendInt64(v);
  ColumnVector shared = col;  // a reader's copy keeps the old values
  ColumnVector values(TypeId::kInt64);
  values.AppendInt64(9);
  values.AppendNull();
  col.Scatter({0, 2}, values);
  EXPECT_EQ(col.GetInt64(0), 9);
  EXPECT_EQ(col.GetInt64(1), 2);
  EXPECT_TRUE(col.IsNull(2));
  EXPECT_EQ(shared.GetInt64(2), 3);
  // A constant source writes its value to every target row.
  col.Scatter({1, 2}, ColumnVector::MakeConstant(TypeId::kInt64,
                                                 Value::Int64(7), 2));
  EXPECT_EQ(col.GetInt64(1), 7);
  EXPECT_EQ(col.GetInt64(2), 7);

  // Dictionary column: a dictionary source is translated, NULLs stay
  // NULL, and the result reads the same as the flat form.
  ColumnVector strings = ColumnVector::MakeDictionary();
  for (const char* s : {"a", "b", "a", "c"}) strings.AppendString(s);
  ColumnVector other = ColumnVector::MakeDictionary();
  other.AppendString("c");
  other.AppendNull();
  other.AppendString("z");
  strings.Scatter({0, 1, 3}, other);
  ASSERT_TRUE(strings.is_dictionary());
  EXPECT_EQ(strings.GetString(0), "c");
  EXPECT_TRUE(strings.IsNull(1));
  EXPECT_EQ(strings.GetString(2), "a");
  EXPECT_EQ(strings.GetString(3), "z");
  EXPECT_TRUE(strings.CheckConsistency().ok());
}

TEST(ChunkTest, AppendRowsAndGather) {
  Schema schema({{"a", TypeId::kInt64, false}, {"b", TypeId::kString, true}});
  Chunk chunk(schema);
  chunk.AppendRow({Value::Int64(1), Value::String("x")});
  chunk.AppendRow({Value::Int64(2), Value::Null()});
  EXPECT_EQ(chunk.num_rows(), 2u);
  auto row = chunk.RowValues(1);
  EXPECT_EQ(row[0].int64_value(), 2);
  EXPECT_TRUE(row[1].is_null());

  Chunk selected = chunk.GatherRows({1});
  EXPECT_EQ(selected.num_rows(), 1u);
  EXPECT_EQ(selected.column(0).GetInt64(0), 2);
}

class TableTest : public ::testing::Test {
 protected:
  void SetUp() override {
    table_ = std::make_unique<Table>(
        "t", Schema({{"k", TypeId::kInt64, false},
                     {"v", TypeId::kString, true},
                     {"d", TypeId::kDouble, true}}));
    for (int i = 0; i < 5000; ++i) {
      ASSERT_TRUE(table_->AppendRow({Value::Int64(i),
                                     Value::String("s" + std::to_string(i % 7)),
                                     Value::Double(i * 0.5)}).ok());
    }
  }
  std::unique_ptr<Table> table_;
};

TEST_F(TableTest, AppendAndGetChunk) {
  EXPECT_EQ(table_->num_rows(), 5000u);
  Chunk chunk = table_->GetChunk(2048, 2048);
  EXPECT_EQ(chunk.num_rows(), 2048u);
  EXPECT_EQ(chunk.column(0).GetInt64(0), 2048);
  // Tail chunk is short.
  Chunk tail = table_->GetChunk(4096, 2048);
  EXPECT_EQ(tail.num_rows(), 904u);
  // Projection returns a column subset.
  Chunk projected = table_->GetChunk(0, 10, {2, 0});
  EXPECT_EQ(projected.num_columns(), 2u);
  EXPECT_DOUBLE_EQ(projected.column(0).GetDouble(3), 1.5);
  EXPECT_EQ(projected.column(1).GetInt64(3), 3);
}

TEST_F(TableTest, RowTypeCoercionAndErrors) {
  // Int literal into double column coerces.
  ASSERT_TRUE(table_->AppendRow({Value::Int64(9999), Value::String("x"),
                                 Value::Int64(3)}).ok());
  EXPECT_DOUBLE_EQ(table_->column(2).GetDouble(5000), 3.0);
  // Wrong arity fails.
  EXPECT_FALSE(table_->AppendRow({Value::Int64(1)}).ok());
  // A value that cannot be cast fails the row before any column grows.
  EXPECT_FALSE(table_->AppendRow({Value::Int64(1), Value::String("y"),
                                  Value::String("not a number")}).ok());
  EXPECT_EQ(table_->num_rows(), 5001u);
  for (size_t c = 0; c < table_->num_columns(); ++c) {
    EXPECT_EQ(table_->column(c).size(), 5001u) << "column " << c;
  }
}

TEST_F(TableTest, ZoneMapsBoundBlocks) {
  table_->BuildZoneMaps();
  ASSERT_TRUE(table_->HasZoneMaps());
  std::shared_ptr<const ZoneMap> zm = table_->GetZoneMap(0);
  ASSERT_NE(zm, nullptr);
  ASSERT_EQ(zm->blocks.size(), (5000 + kChunkSize - 1) / kChunkSize);
  // Block 0 holds keys [0, 2047].
  EXPECT_DOUBLE_EQ(zm->blocks[0].min, 0);
  EXPECT_DOUBLE_EQ(zm->blocks[0].max, 2047);
  EXPECT_TRUE(zm->BlockMayMatch(0, 100, 200));
  EXPECT_FALSE(zm->BlockMayMatch(0, 3000, 4000));
  // String column has no zone map.
  EXPECT_EQ(table_->GetZoneMap(1), nullptr);
}

TEST_F(TableTest, ZoneMapsMaintainedByAppend) {
  table_->BuildZoneMaps();
  ASSERT_TRUE(table_->HasZoneMaps());
  // 5000 rows end in a partial third block (904 rows). One row lands in
  // it; the chunk then fills it and adds two more blocks.
  ASSERT_TRUE(table_->AppendRow({Value::Int64(-1), Value::Null(),
                                 Value::Null()}).ok());
  Schema schema = table_->schema();
  Chunk chunk(schema);
  for (int i = 0; i < 3000; ++i) {
    chunk.AppendRow({Value::Int64(100000 + i), Value::String("x"),
                     i % 5 == 0 ? Value::Null() : Value::Double(-i * 0.25)});
  }
  ASSERT_TRUE(table_->AppendChunk(chunk).ok());
  ASSERT_EQ(table_->num_rows(), 8001u);

  std::shared_ptr<const ZoneMapSet> maintained = table_->zone_maps();
  ASSERT_NE(maintained, nullptr);
  EXPECT_TRUE(table_->VerifyDerived().ok());
  table_->BuildZoneMaps();
  std::shared_ptr<const ZoneMapSet> fresh = table_->zone_maps();
  ASSERT_EQ(maintained->size(), fresh->size());
  for (const auto& [column, zm] : *fresh) {
    const ZoneMap& got = maintained->at(column);
    ASSERT_EQ(got.blocks.size(), 4u);
    ASSERT_EQ(got.blocks.size(), zm.blocks.size());
    for (size_t b = 0; b < zm.blocks.size(); ++b) {
      EXPECT_EQ(got.blocks[b].has_values, zm.blocks[b].has_values);
      EXPECT_EQ(got.blocks[b].min, zm.blocks[b].min) << column << "/" << b;
      EXPECT_EQ(got.blocks[b].max, zm.blocks[b].max) << column << "/" << b;
    }
  }
  // The partial block took both the -1 row and the first chunk rows.
  EXPECT_EQ(maintained->at(0).blocks[2].min, -1);
  EXPECT_EQ(maintained->at(0).blocks[3].max, 100000 + 2999);
}

TEST_F(TableTest, UpdateRowsRejectsBadInputUntouched) {
  ColumnVector one(TypeId::kInt64);
  one.AppendInt64(7);
  ColumnVector two = one;
  two.AppendInt64(8);
  EXPECT_FALSE(table_->UpdateRows({5000}, {0}, {one}).ok());  // out of range
  EXPECT_FALSE(table_->UpdateRows({3, 2}, {0}, {two}).ok());  // descending
  EXPECT_FALSE(table_->UpdateRows({1, 2}, {0}, {one}).ok());  // row count
  EXPECT_FALSE(table_->UpdateRows({1}, {2}, {one}).ok());     // type
  EXPECT_FALSE(table_->UpdateRows({1}, {0, 0}, {one, one}).ok());  // twice
  EXPECT_EQ(table_->column(0).GetInt64(1), 1);
  EXPECT_EQ(table_->column(0).GetInt64(2), 2);
  ASSERT_TRUE(table_->UpdateRows({1, 2}, {0}, {two}).ok());
  EXPECT_EQ(table_->column(0).GetInt64(1), 7);
  EXPECT_EQ(table_->column(0).GetInt64(2), 8);
}

TEST_F(TableTest, HashIndexProbe) {
  ASSERT_TRUE(table_->BuildHashIndex("idx_k", 0).ok());
  std::shared_ptr<const HashIndex> index = table_->GetHashIndex(0);
  ASSERT_NE(index, nullptr);
  uint64_t hash = table_->column(0).HashRow(123);
  auto candidates = index->Probe(hash);
  // The true row must be among the candidates.
  EXPECT_NE(std::find(candidates.begin(), candidates.end(), 123),
            candidates.end());
  EXPECT_EQ(table_->GetHashIndex(1), nullptr);
}

TEST_F(TableTest, SortedCopyPreservesRowsChangesOrder) {
  // Sort by the string column (7 distinct values).
  auto sorted = table_->SortedCopy("t_sorted", 1);
  ASSERT_EQ(sorted->num_rows(), table_->num_rows());
  for (size_t r = 1; r < sorted->num_rows(); ++r) {
    EXPECT_LE(sorted->column(1).GetString(r - 1),
              sorted->column(1).GetString(r));
  }
  // Content preserved: sum of key column identical.
  int64_t sum_orig = 0, sum_sorted = 0;
  for (size_t r = 0; r < table_->num_rows(); ++r) {
    sum_orig += table_->column(0).GetInt64(r);
    sum_sorted += sorted->column(0).GetInt64(r);
  }
  EXPECT_EQ(sum_orig, sum_sorted);
}

// -- TableAppender ---------------------------------------------------------

Schema AllTypesSchema() {
  return Schema({{"i", TypeId::kInt64, true},
                 {"d", TypeId::kDouble, true},
                 {"day", TypeId::kDate, true},
                 {"b", TypeId::kBool, true},
                 {"s", TypeId::kString, true}});
}

/// Row `i` of the all-types test data; every column has NULLs.
std::vector<Value> AllTypesRow(int64_t i) {
  return {i % 11 == 0 ? Value::Null(TypeId::kInt64) : Value::Int64(i * 7),
          i % 13 == 0 ? Value::Null(TypeId::kDouble) : Value::Double(i * 0.25),
          i % 5 == 0 ? Value::Null(TypeId::kDate) : Value::Date(10000 + i),
          i % 3 == 0 ? Value::Null(TypeId::kBool) : Value::Bool(i % 2 == 0),
          i % 17 == 0 ? Value::Null(TypeId::kString)
                      : Value::String("v" + std::to_string(i % 37))};
}

/// Appends AllTypesRow(i) through the appender's typed calls.
Status AppendAllTypesRow(int64_t i, TableAppender* rows) {
  const std::vector<Value> row = AllTypesRow(i);
  row[0].is_null() ? rows->Null() : rows->Int64(row[0].int64_value());
  row[1].is_null() ? rows->Null() : rows->Double(row[1].double_value());
  row[2].is_null() ? rows->Null() : rows->Date(row[2].int64_value());
  row[3].is_null() ? rows->Null() : rows->Bool(row[3].bool_value());
  row[4].is_null() ? rows->Null() : rows->String(row[4].string_value());
  return rows->EndRow();
}

/// Same rows, and in each string column the same form, dictionary and
/// codes.
void ExpectSameTable(const Table& got, const Table& want) {
  ASSERT_EQ(got.num_rows(), want.num_rows());
  for (size_t c = 0; c < want.num_columns(); ++c) {
    const ColumnVector& g = got.column(c);
    const ColumnVector& w = want.column(c);
    ASSERT_EQ(g.is_dictionary(), w.is_dictionary()) << "column " << c;
    if (w.is_dictionary()) {
      EXPECT_EQ(g.dictionary().entries(), w.dictionary().entries());
    }
    for (size_t r = 0; r < want.num_rows(); ++r) {
      ASSERT_EQ(g.IsNull(r), w.IsNull(r)) << "column " << c << " row " << r;
      if (w.IsNull(r)) continue;
      ASSERT_EQ(g.GetValue(r), w.GetValue(r)) << "column " << c << " row " << r;
      if (w.is_dictionary()) {
        ASSERT_EQ(g.codes_data()[r], w.codes_data()[r]) << "row " << r;
      }
    }
    EXPECT_TRUE(g.CheckConsistency().ok()) << "column " << c;
  }
}

TEST(TableAppenderDictTest, BuildsTheTableAppendRowBuilds) {
  // Two full chunks and a partial one.
  const int64_t n = 2 * kChunkSize + 100;
  Table by_row("t", AllTypesSchema());
  Table by_chunk("t", AllTypesSchema());
  TableAppender rows(&by_chunk);
  for (int64_t i = 0; i < n; ++i) {
    ASSERT_TRUE(by_row.AppendRow(AllTypesRow(i)).ok());
    ASSERT_TRUE(AppendAllTypesRow(i, &rows).ok());
  }
  ASSERT_TRUE(rows.Finish().ok());
  ExpectSameTable(by_chunk, by_row);
  EXPECT_TRUE(by_chunk.column(4).is_dictionary());
}

TEST(TableAppenderDictTest, CapCrossedMidChunkDecodesAtTheSameRow) {
  // kMaxDictionaryEntries distinct strings fill the first two chunks;
  // repeats follow, then the first value past the cap lands at row
  // `cap_row`, in the middle of the third chunk.
  const size_t cap_row = kMaxDictionaryEntries + 700;
  auto cell = [](size_t i) {
    if (i < kMaxDictionaryEntries) return "w" + std::to_string(i);
    return "w" + std::to_string(i == kMaxDictionaryEntries + 700 ? i : i % 9);
  };
  for (size_t n : {cap_row, cap_row + 1, cap_row + 900}) {
    Table by_row("t", Schema({{"s", TypeId::kString, true}}));
    Table by_chunk("t", Schema({{"s", TypeId::kString, true}}));
    TableAppender rows(&by_chunk);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_TRUE(by_row.AppendRow({Value::String(cell(i))}).ok());
      rows.String(cell(i));
      ASSERT_TRUE(rows.EndRow().ok());
    }
    ASSERT_TRUE(rows.Finish().ok());
    // Dictionary form, full, up to the row before the cap; flat from it.
    EXPECT_EQ(by_chunk.column(0).is_dictionary(), n == cap_row) << n;
    ExpectSameTable(by_chunk, by_row);
  }
}

TEST(TableAppenderDictTest, DroppedRowLeavesNoDictionaryEntry) {
  // The chunk interns into a dictionary of its own; the string of a row
  // dropped for its arity must not reach the table's dictionary, in the
  // first chunk (which an empty column takes over whole) or a later one.
  const Schema schema({{"s", TypeId::kString, true},
                       {"i", TypeId::kInt64, true}});
  Table by_row("t", schema);
  Table by_chunk("t", schema);
  TableAppender rows(&by_chunk);
  for (int64_t i = 0; i < 2 * static_cast<int64_t>(kChunkSize) + 50; ++i) {
    const std::string s = "k" + std::to_string(i % 5);
    if (i % 1000 == 7) {
      rows.String("dropped" + std::to_string(i));
      EXPECT_EQ(rows.EndRow().code(), StatusCode::kInvalidArgument);
    }
    ASSERT_TRUE(by_row.AppendRow({Value::String(s), Value::Int64(i)}).ok());
    rows.String(s);
    rows.Int64(i);
    ASSERT_TRUE(rows.EndRow().ok());
  }
  ASSERT_TRUE(rows.Finish().ok());
  EXPECT_EQ(by_chunk.column(0).dictionary().size(), 5u);
  ExpectSameTable(by_chunk, by_row);
}

TEST(TableAppenderTest, KeepsZoneMapsAndIndexesAtEveryCommit) {
  Table table("t", Schema({{"k", TypeId::kInt64, false},
                           {"x", TypeId::kDouble, true}}));
  for (int64_t i = 0; i < 100; ++i) {
    ASSERT_TRUE(table.AppendRow({Value::Int64(i), Value::Double(i)}).ok());
  }
  table.BuildZoneMaps();
  ASSERT_TRUE(table.BuildHashIndex("t_k", 0).ok());
  TableAppender rows(&table);
  size_t committed = table.num_rows();
  int commits = 0;
  for (int64_t i = 100; i < 100 + 2 * static_cast<int64_t>(kChunkSize) + 10;
       ++i) {
    rows.Int64(i * 3);
    if (i % 7 == 0) {
      rows.Null();
    } else {
      rows.Double(-0.5 * static_cast<double>(i));
    }
    ASSERT_TRUE(rows.EndRow().ok());
    if (table.num_rows() == committed) continue;
    // A commit adds exactly one chunk.
    EXPECT_EQ(table.num_rows(), committed + kChunkSize);
    committed = table.num_rows();
    ++commits;
    ASSERT_TRUE(table.VerifyDerived().ok()) << table.VerifyDerived().ToString();
  }
  EXPECT_EQ(commits, 2);
  ASSERT_TRUE(rows.Finish().ok());
  ASSERT_EQ(table.num_rows(), 100 + 2 * kChunkSize + 10);
  ASSERT_TRUE(table.VerifyDerived().ok()) << table.VerifyDerived().ToString();
  // A row of the final, partial commit is found through the index.
  const ColumnVector& k = table.column(0);
  const size_t last = table.num_rows() - 1;
  EXPECT_EQ(table.GetHashIndex(0)->Probe(k.HashRow(last)),
            std::vector<int64_t>{static_cast<int64_t>(last)});
}

TEST(TableAppenderTest, BadRowsAreDroppedAndReported) {
  Table table("t", Schema({{"a", TypeId::kInt64, false},
                           {"b", TypeId::kDouble, true}}));
  TableAppender rows(&table);
  rows.Int64(1);
  rows.Double(1.5);
  ASSERT_TRUE(rows.EndRow().ok());
  rows.Int64(2);  // one cell short
  EXPECT_EQ(rows.EndRow().code(), StatusCode::kInvalidArgument);
  rows.Int64(3);
  rows.Double(2.5);
  rows.Int64(4);  // one cell too many
  EXPECT_EQ(rows.EndRow().code(), StatusCode::kInvalidArgument);
  rows.Double(5.0);  // a DOUBLE into the BIGINT column
  rows.Double(5.5);
  EXPECT_EQ(rows.EndRow().code(), StatusCode::kTypeError);
  EXPECT_EQ(table.num_rows(), 0u);
  rows.Int64(6);
  rows.Null();
  ASSERT_TRUE(rows.EndRow().ok());
  rows.Int64(7);  // left without EndRow
  EXPECT_EQ(rows.Finish().code(), StatusCode::kInvalidArgument);
  // Only the two good rows arrive, with no cell of the bad ones.
  ASSERT_EQ(table.num_rows(), 2u);
  EXPECT_EQ(table.GetRow(0), (std::vector<Value>{Value::Int64(1),
                                                 Value::Double(1.5)}));
  EXPECT_EQ(table.column(0).GetInt64(1), 6);
  EXPECT_TRUE(table.column(1).IsNull(1));
  EXPECT_TRUE(table.column(0).CheckConsistency().ok());
  EXPECT_TRUE(table.column(1).CheckConsistency().ok());
}

TEST(TableAppenderTest, FinishWithoutPendingRowsIsANoOp) {
  Table table("t", Schema({{"a", TypeId::kInt64, false}}));
  ASSERT_TRUE(table.AppendRow({Value::Int64(1)}).ok());
  TableAppender rows(&table);
  ASSERT_TRUE(rows.Finish().ok());
  EXPECT_EQ(table.num_rows(), 1u);
  rows.Int64(2);
  ASSERT_TRUE(rows.EndRow().ok());
  ASSERT_TRUE(rows.Finish().ok());
  ASSERT_TRUE(rows.Finish().ok());
  EXPECT_EQ(table.num_rows(), 2u);
}

TEST(CatalogTest, CreateGetDrop) {
  Catalog catalog;
  auto t = catalog.CreateTable("Foo", Schema({{"a", TypeId::kInt64, false}}));
  ASSERT_TRUE(t.ok());
  EXPECT_TRUE(catalog.HasTable("foo"));  // case-insensitive
  EXPECT_TRUE(catalog.HasTable("FOO"));
  auto dup = catalog.CreateTable("foo", Schema());
  EXPECT_EQ(dup.status().code(), StatusCode::kAlreadyExists);
  auto got = catalog.GetTable("foo");
  ASSERT_TRUE(got.ok());
  EXPECT_EQ((*got)->name(), "Foo");
  EXPECT_EQ(catalog.TableNames().size(), 1u);
  ASSERT_TRUE(catalog.DropTable("FOO").ok());
  EXPECT_EQ(catalog.GetTable("foo").status().code(), StatusCode::kNotFound);
  EXPECT_EQ(catalog.DropTable("foo").code(), StatusCode::kNotFound);
}

TEST(CsvTest, ReadBasic) {
  std::istringstream in(
      "id,name,score,joined\n"
      "1,alice,9.5,2020-01-15\n"
      "2,bob,,2021-06-01\n"
      "3,\"c,d\",7.25,2022-12-31\n");
  Schema schema({{"id", TypeId::kInt64, false},
                 {"name", TypeId::kString, false},
                 {"score", TypeId::kDouble, true},
                 {"joined", TypeId::kDate, false}});
  auto table = ReadCsv(in, "people", schema);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->num_rows(), 3u);
  EXPECT_TRUE((*table)->column(2).IsNull(1));  // empty -> NULL
  EXPECT_EQ((*table)->column(1).GetString(2), "c,d");  // quoted comma
  EXPECT_EQ((*table)->column(3).GetInt64(0), MakeDate(2020, 1, 15));
}

TEST(CsvTest, QuotedEscapesAndCrlf) {
  std::istringstream in("v\n\"he said \"\"hi\"\"\"\r\n");
  Schema schema({{"v", TypeId::kString, false}});
  auto table = ReadCsv(in, "q", schema);
  ASSERT_TRUE(table.ok()) << table.status().ToString();
  EXPECT_EQ((*table)->column(0).GetString(0), "he said \"hi\"");
}

TEST(CsvTest, FieldCountMismatchFails) {
  std::istringstream in("a,b\n1,2\n3\n");
  Schema schema(
      {{"a", TypeId::kInt64, false}, {"b", TypeId::kInt64, false}});
  auto table = ReadCsv(in, "bad", schema);
  EXPECT_EQ(table.status().code(), StatusCode::kIoError);
}

TEST(CsvTest, BadValueFailsWithLineNumber) {
  std::istringstream in("a\n1\nxyz\n");
  Schema schema({{"a", TypeId::kInt64, false}});
  auto table = ReadCsv(in, "bad", schema);
  ASSERT_FALSE(table.ok());
  EXPECT_NE(table.status().message().find("line 3"), std::string::npos);
}

TEST(CsvTest, WriteReadRoundTrip) {
  Table table("rt", Schema({{"n", TypeId::kInt64, false},
                            {"s", TypeId::kString, true}}));
  ASSERT_TRUE(table.AppendRow({Value::Int64(1),
                               Value::String("plain")}).ok());
  ASSERT_TRUE(table.AppendRow({Value::Int64(2),
                               Value::String("with,comma")}).ok());
  ASSERT_TRUE(table.AppendRow({Value::Int64(3),
                               Value::String("with\"quote")}).ok());
  std::ostringstream out;
  ASSERT_TRUE(WriteCsv(table, out).ok());
  std::istringstream in(out.str());
  auto back = ReadCsv(in, "rt2", table.schema());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ASSERT_EQ((*back)->num_rows(), 3u);
  EXPECT_EQ((*back)->column(1).GetString(1), "with,comma");
  EXPECT_EQ((*back)->column(1).GetString(2), "with\"quote");
}

}  // namespace
}  // namespace agora
