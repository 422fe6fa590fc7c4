#ifndef AGORA_STORAGE_SPILL_H_
#define AGORA_STORAGE_SPILL_H_

#include <cstdint>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/mutex.h"
#include "common/result.h"
#include "common/status.h"
#include "common/thread_annotations.h"
#include "storage/chunk.h"

namespace agora {

class SpillManager;

/// A temp-file-backed stream of serialized Chunk blocks and raw byte
/// blobs, used by budgeted operators to park cold partitions on disk.
/// Strictly write-then-read: append with WriteChunk/WriteBlob, call
/// Rewind() once, then drain with ReadChunk/ReadBlob in write order.
///
/// On-disk layout (native endianness; spill files never outlive the
/// process): a sequence of records, each either
///   [u32 kChunkMagic][u32 ncols][u32 nrows]
///     per column: [u8 type][nrows validity bytes][payload]
///   [u32 kBlobMagic][u64 size][size bytes]
/// Int64/double payloads are raw arrays (bit-exact round trip — the
/// byte-identity guarantee for doubles depends on this); string payloads
/// are u32-length-prefixed bytes, length 0 for NULL rows. A dictionary
/// column is written decoded; when every chunk wrote one column position
/// from the same dictionary, ReadChunk re-encodes it into that dictionary
/// (the file keeps it alive), so a reloaded partition is as compact as
/// the one that was spilled.
class SpillFile {
 public:
  ~SpillFile();

  SpillFile(const SpillFile&) = delete;
  SpillFile& operator=(const SpillFile&) = delete;

  Status WriteChunk(const Chunk& chunk);
  Status WriteBlob(const void* data, size_t size);

  /// Flushes writes and repositions at the start for reading.
  Status Rewind();

  /// Reads the next chunk record; sets `*eof` (and leaves `out` empty)
  /// when the stream is exhausted.
  Status ReadChunk(Chunk* out, bool* eof);
  Status ReadBlob(std::string* out);

  int64_t bytes_written() const { return bytes_written_; }
  int64_t bytes_read() const { return bytes_read_; }
  const std::string& path() const { return path_; }

 private:
  friend class SpillManager;

  SpillFile(std::string path, std::FILE* file);

  Status WriteRaw(const void* data, size_t size);
  Status ReadRaw(void* data, size_t size);
  /// Records how column position `c` was written (see encodings_).
  void NoteEncoding(size_t c, const ColumnVector& col);

  std::string path_;
  std::FILE* file_ = nullptr;
  int64_t bytes_written_ = 0;
  int64_t bytes_read_ = 0;
  /// Per column position: typeless until a chunk is written there; an
  /// empty dictionary vector while every chunk wrote that position from
  /// the same dictionary; a flat VARCHAR vector once any did not.
  std::vector<ColumnVector> encodings_;
};

/// Hands out recycled temp files for spilling and guarantees cleanup:
/// a SpillFile unlinks its backing file on destruction, and files handed
/// back via Recycle() are truncated, reused by later Create() calls, and
/// unlinked when the manager dies. Operators therefore cannot leak temp
/// files on either success or error paths — dropping the SpillFile is
/// the cleanup.
class SpillManager {
 public:
  /// `dir` selects where temp files live; empty means AGORA_SPILL_DIR,
  /// then TMPDIR, then /tmp.
  explicit SpillManager(std::string dir = "");
  ~SpillManager();

  SpillManager(const SpillManager&) = delete;
  SpillManager& operator=(const SpillManager&) = delete;

  /// Opens a fresh (or recycled, truncated) temp file.
  Result<std::unique_ptr<SpillFile>> Create();

  /// Returns a file to the free list for reuse by later Create() calls.
  void Recycle(std::unique_ptr<SpillFile> file);

  const std::string& dir() const { return dir_; }
  int64_t files_created() const {
    MutexLock lock(mu_);
    return files_created_;
  }

 private:
  mutable Mutex mu_;
  std::string dir_;
  uint64_t next_id_ AGORA_GUARDED_BY(mu_) = 0;
  int64_t files_created_ AGORA_GUARDED_BY(mu_) = 0;
  std::vector<std::unique_ptr<SpillFile>> free_ AGORA_GUARDED_BY(mu_);
};

}  // namespace agora

#endif  // AGORA_STORAGE_SPILL_H_
