#ifndef AGORA_STORAGE_CHUNK_H_
#define AGORA_STORAGE_CHUNK_H_

#include <string>
#include <vector>

#include "storage/column_vector.h"
#include "types/schema.h"

namespace agora {

/// Number of rows processed per batch by the vectorized engine.
inline constexpr size_t kChunkSize = 2048;

/// A batch of rows in columnar form — the unit of data flow between
/// execution operators.
class Chunk {
 public:
  Chunk() = default;
  /// Creates an empty chunk with one column per schema field.
  explicit Chunk(const Schema& schema);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const {
    return columns_.empty() ? explicit_rows_ : columns_[0].size();
  }
  bool empty() const { return num_rows() == 0; }

  const ColumnVector& column(size_t i) const { return columns_[i]; }
  ColumnVector& column(size_t i) { return columns_[i]; }
  /// All columns at once (batch kernels like GroupKeyTable::FindOrCreate
  /// take the key columns as one vector).
  const std::vector<ColumnVector>& columns() const { return columns_; }
  void AddColumn(ColumnVector col) { columns_.push_back(std::move(col)); }

  /// For zero-column results (e.g. COUNT(*) pipelines) the row count must
  /// be carried explicitly.
  void SetExplicitRowCount(size_t n) { explicit_rows_ = n; }

  /// Appends one row of Values (slow path; tests and tiny inserts).
  void AppendRow(const std::vector<Value>& row);

  /// Appends every row of `other` (schemas must align), one bulk
  /// ColumnVector::AppendRange per column. While this chunk is still
  /// empty, `other` is taken over whole instead of copied — a moved-in
  /// chunk costs O(columns), except that a view column copies its own
  /// rows (ColumnVector::Materialize). Either way no result column is
  /// constant or a view; dictionary columns stay encoded (codes move
  /// when the dictionaries match).
  void Append(Chunk other);

  /// Keeps only rows named in `sel` (in order). Applies to every column.
  Chunk GatherRows(const std::vector<uint32_t>& sel) const;

  /// Boxes one row as Values (result-set boundary).
  std::vector<Value> RowValues(size_t row) const;

  /// Sum of column memory (resource accounting).
  size_t MemoryBytes() const;

  /// Multi-line "v1 | v2 | ..." rendering for tests/debugging.
  std::string ToString(size_t max_rows = 10) const;

 private:
  std::vector<ColumnVector> columns_;
  size_t explicit_rows_ = 0;
};

}  // namespace agora

#endif  // AGORA_STORAGE_CHUNK_H_
