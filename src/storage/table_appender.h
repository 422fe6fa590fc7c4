#ifndef AGORA_STORAGE_TABLE_APPENDER_H_
#define AGORA_STORAGE_TABLE_APPENDER_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "storage/chunk.h"
#include "storage/column_vector.h"
#include "storage/table.h"

namespace agora {

/// Loads rows into a Table a chunk at a time: the bulk load path of the
/// TPC-H generator and CSV import (and so COPY FROM).
///
/// Each row is written as one typed call per cell, in column order, then
/// EndRow(). The cells go into kChunkSize-row column buffers the appender
/// alone owns (ColumnVector::CellWriter, which Table::AppendRow shares),
/// so a cell costs a type check and a push. Every kChunkSize rows, and at
/// Finish(), the buffers are committed through Table::AppendChunk: one
/// bulk append per column and one round of zone-map and index upkeep.
///
/// A string buffer takes its table column's form at each chunk's start.
/// While the column is a dictionary, the chunk's strings are interned
/// into a dictionary of the chunk's own, and the commit adds each
/// distinct string to the table's dictionary once, in row order; once the
/// column has decoded, the buffer is flat and a string passed as
/// std::string&& is moved into it. Loaded into a new table, codes,
/// dictionaries and the row at which a full dictionary decodes are those
/// AppendRow would give.
///
/// Rows become visible at each commit; rows still buffered when the
/// appender is destroyed without Finish() are dropped. Like AppendRow it
/// needs the engine's writer exclusion (see Table).
class TableAppender {
 public:
  explicit TableAppender(Table* table);
  TableAppender(const TableAppender&) = delete;
  TableAppender& operator=(const TableAppender&) = delete;

  // One call per cell. A cell whose type is not its column's (Int64 for
  // BIGINT, Double for DOUBLE, Date for DATE, Bool for BOOLEAN, String for
  // VARCHAR) makes EndRow() reject the row.
  void Int64(int64_t v) {
    if (Accept(TypeId::kInt64)) writers_[cell_ - 1].Int64(v);
  }
  void Double(double v) {
    if (Accept(TypeId::kDouble)) writers_[cell_ - 1].Double(v);
  }
  void Date(int64_t days) {
    if (Accept(TypeId::kDate)) writers_[cell_ - 1].Int64(days);
  }
  void Bool(bool v) {
    if (Accept(TypeId::kBool)) writers_[cell_ - 1].Int64(v ? 1 : 0);
  }
  void String(std::string_view s) {
    if (Accept(TypeId::kString)) writers_[cell_ - 1].String(s);
  }
  void String(std::string&& s) {
    if (Accept(TypeId::kString)) writers_[cell_ - 1].String(std::move(s));
  }
  void String(const char* s) { String(std::string_view(s)); }
  void Null();

  /// Ends the row. A row with the wrong number of cells or a mistyped
  /// cell is dropped (the buffers return to the previous row) and the
  /// error returned; otherwise the row is buffered, and the buffers are
  /// committed once they hold kChunkSize rows.
  Status EndRow();

  /// Commits the buffered rows; a no-op when there are none. A row left
  /// without EndRow() is dropped and its error returned.
  Status Finish();

 private:
  /// Counts the next cell; true when its column has type `type`.
  bool Accept(TypeId type) {
    const size_t c = cell_++;
    if (c < types_.size() && types_[c] == type) return true;
    Reject(c, type);
    return false;
  }
  /// Records why cell `column` of type `type` does not fit the row.
  void Reject(size_t column, TypeId type);
  /// Returns the buffers to the last ended row and the row's error.
  Status DropRow();
  Status Commit();

  Table* table_;
  std::vector<TypeId> types_;
  Chunk buffer_;
  // Declared after buffer_, so they die first (a writer recharges its
  // vector's buffer when it dies).
  std::vector<ColumnVector::CellWriter> writers_;
  size_t rows_ = 0;  // ended rows in the buffers
  size_t cell_ = 0;  // cells written of the current row
  Status row_error_;  // the current row's first misfit cell
};

}  // namespace agora

#endif  // AGORA_STORAGE_TABLE_APPENDER_H_
