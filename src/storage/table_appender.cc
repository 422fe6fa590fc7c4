#include "storage/table_appender.h"

namespace agora {

TableAppender::TableAppender(Table* table)
    : table_(table), buffer_(table->schema()) {
  types_.reserve(table->num_columns());
  writers_.reserve(table->num_columns());
  for (size_t c = 0; c < table->num_columns(); ++c) {
    types_.push_back(table->schema().field(c).type);
    ColumnVector& col = buffer_.column(c);
    if (table->column(c).is_dictionary()) col = ColumnVector::MakeDictionary();
    col.Reserve(kChunkSize);
    writers_.emplace_back(&col);
  }
}

void TableAppender::Null() {
  if (cell_ < types_.size()) writers_[cell_].Null();  // else EndRow counts
  ++cell_;
}

void TableAppender::Reject(size_t column, TypeId type) {
  if (!row_error_.ok() || column >= types_.size()) return;  // EndRow counts
  row_error_ = Status::TypeError(
      "column " + table_->schema().field(column).name + " of table '" +
      table_->name() + "' has type " +
      std::string(TypeIdToString(types_[column])) + ", the appended cell " +
      std::string(TypeIdToString(type)));
}

Status TableAppender::EndRow() {
  if (cell_ != types_.size() || !row_error_.ok()) return DropRow();
  cell_ = 0;
  if (++rows_ == kChunkSize) return Commit();
  return Status::OK();
}

Status TableAppender::DropRow() {
  Status error = row_error_;
  if (cell_ != types_.size()) {
    error = Status::InvalidArgument(
        "row has " + std::to_string(cell_) + " values, table '" +
        table_->name() + "' has " + std::to_string(types_.size()) +
        " columns");
  }
  for (ColumnVector::CellWriter& writer : writers_) writer.Truncate(rows_);
  cell_ = 0;
  row_error_ = Status::OK();
  return error;
}

Status TableAppender::Commit() {
  Status status = table_->AppendChunk(buffer_);
  for (size_t c = 0; c < writers_.size(); ++c) {
    writers_[c].Restart(table_->column(c).is_dictionary());
  }
  rows_ = 0;
  return status;
}

Status TableAppender::Finish() {
  Status dropped = cell_ == 0 ? Status::OK() : DropRow();
  if (rows_ > 0) AGORA_RETURN_IF_ERROR(Commit());
  return dropped;
}

}  // namespace agora
