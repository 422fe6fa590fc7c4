#ifndef AGORA_EXEC_SPILL_UTIL_H_
#define AGORA_EXEC_SPILL_UTIL_H_

#include <string>
#include <vector>

#include "exec/physical_op.h"
#include "storage/spill.h"

namespace agora {

/// Counted wrappers around SpillFile IO: identical semantics, plus the
/// byte deltas land in the query's ExecStats so EXPLAIN ANALYZE and the
/// metrics registry see spill volume.

inline Status SpillWriteChunk(SpillFile* file, const Chunk& chunk,
                              ExecStats* stats) {
  int64_t before = file->bytes_written();
  AGORA_RETURN_IF_ERROR(file->WriteChunk(chunk));
  stats->spill_bytes_written += file->bytes_written() - before;
  return Status::OK();
}

inline Status SpillWriteBlob(SpillFile* file, const void* data, size_t size,
                             ExecStats* stats) {
  int64_t before = file->bytes_written();
  AGORA_RETURN_IF_ERROR(file->WriteBlob(data, size));
  stats->spill_bytes_written += file->bytes_written() - before;
  return Status::OK();
}

inline Status SpillReadChunk(SpillFile* file, Chunk* out, bool* eof,
                             ExecStats* stats) {
  int64_t before = file->bytes_read();
  AGORA_RETURN_IF_ERROR(file->ReadChunk(out, eof));
  stats->spill_bytes_read += file->bytes_read() - before;
  return Status::OK();
}

inline Status SpillReadBlob(SpillFile* file, std::string* out,
                            ExecStats* stats) {
  int64_t before = file->bytes_read();
  AGORA_RETURN_IF_ERROR(file->ReadBlob(out));
  stats->spill_bytes_read += file->bytes_read() - before;
  return Status::OK();
}

/// K-way merge of spooled streams by row index. Each stream is a spill
/// file of chunks [columns..., idx] whose BIGINT idx ascends within the
/// file, and no idx appears in two files. Next() emits the rows in
/// ascending idx order, copying each run that stays below every other
/// stream's head with one AppendRange per column, and drops idx. The
/// spilled hash join merges its probe-row-tagged output through it, and
/// the spilled aggregate its groups tagged with their first rows.
class SpillMerge {
 public:
  /// Rewinds `files` and loads each one's first chunk. The files must
  /// outlive the merge.
  Status Open(const std::vector<SpillFile*>& files, ExecStats* stats);
  /// Appends up to kChunkSize merged rows to `*out`, whose columns are
  /// the streams' columns without idx. Sets `*done` once every stream is
  /// exhausted.
  Status Next(Chunk* out, bool* done, ExecStats* stats);

 private:
  struct Stream {
    SpillFile* file = nullptr;
    Chunk chunk;
    size_t row = 0;
    bool exhausted = false;
  };

  /// Loads the stream's next chunk once its current one is consumed.
  static Status Advance(Stream* s, ExecStats* stats);

  std::vector<Stream> streams_;
};

}  // namespace agora

#endif  // AGORA_EXEC_SPILL_UTIL_H_
