#include "storage/spill.h"

#include <unistd.h>

#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace agora {
namespace {

constexpr uint32_t kChunkMagic = 0x41435055;  // "APCU"
constexpr uint32_t kBlobMagic = 0x41424C42;   // "ABLB"

std::string ResolveSpillDir(std::string dir) {
  if (!dir.empty()) return dir;
  if (const char* env = std::getenv("AGORA_SPILL_DIR")) {
    if (env[0] != '\0') return env;
  }
  if (const char* env = std::getenv("TMPDIR")) {
    if (env[0] != '\0') return env;
  }
  return "/tmp";
}

}  // namespace

SpillFile::SpillFile(std::string path, std::FILE* file)
    : path_(std::move(path)), file_(file) {}

SpillFile::~SpillFile() {
  if (file_ != nullptr) std::fclose(file_);
  if (!path_.empty()) std::remove(path_.c_str());
}

Status SpillFile::WriteRaw(const void* data, size_t size) {
  if (size == 0) return Status::OK();
  if (std::fwrite(data, 1, size, file_) != size) {
    return Status::IoError("spill write failed on " + path_);
  }
  bytes_written_ += static_cast<int64_t>(size);
  return Status::OK();
}

Status SpillFile::ReadRaw(void* data, size_t size) {
  if (size == 0) return Status::OK();
  if (std::fread(data, 1, size, file_) != size) {
    return Status::IoError("spill read failed on " + path_ +
                           " (truncated record)");
  }
  bytes_read_ += static_cast<int64_t>(size);
  return Status::OK();
}

Status SpillFile::WriteChunk(const Chunk& chunk) {
  uint32_t magic = kChunkMagic;
  uint32_t ncols = static_cast<uint32_t>(chunk.num_columns());
  uint32_t nrows = static_cast<uint32_t>(chunk.num_rows());
  AGORA_RETURN_IF_ERROR(WriteRaw(&magic, sizeof(magic)));
  AGORA_RETURN_IF_ERROR(WriteRaw(&ncols, sizeof(ncols)));
  AGORA_RETURN_IF_ERROR(WriteRaw(&nrows, sizeof(nrows)));
  for (size_t c = 0; c < chunk.num_columns(); ++c) {
    // Copy-flatten so constant columns serialize as their logical rows
    // and dictionary columns as decoded strings (the format has one
    // string encoding); flat columns share the payload (no copy).
    NoteEncoding(c, chunk.column(c));
    ColumnVector col = chunk.column(c);
    col.Flatten();
    uint8_t type = static_cast<uint8_t>(col.type());
    AGORA_RETURN_IF_ERROR(WriteRaw(&type, sizeof(type)));
    AGORA_RETURN_IF_ERROR(WriteRaw(col.validity_data(), nrows));
    switch (col.type()) {
      case TypeId::kBool:
      case TypeId::kInt64:
      case TypeId::kDate:
        AGORA_RETURN_IF_ERROR(
            WriteRaw(col.int64_data(), nrows * sizeof(int64_t)));
        break;
      case TypeId::kDouble:
        AGORA_RETURN_IF_ERROR(
            WriteRaw(col.double_data(), nrows * sizeof(double)));
        break;
      case TypeId::kString: {
        const std::string* strings = col.string_data();
        const uint8_t* validity = col.validity_data();
        for (uint32_t r = 0; r < nrows; ++r) {
          uint32_t len =
              validity[r] != 0 ? static_cast<uint32_t>(strings[r].size())
                               : 0;
          AGORA_RETURN_IF_ERROR(WriteRaw(&len, sizeof(len)));
          if (len != 0) {
            AGORA_RETURN_IF_ERROR(WriteRaw(strings[r].data(), len));
          }
        }
        break;
      }
      case TypeId::kInvalid:
        return Status::Internal("cannot spill invalid-typed column");
    }
  }
  return Status::OK();
}

void SpillFile::NoteEncoding(size_t c, const ColumnVector& col) {
  if (encodings_.size() <= c) encodings_.resize(c + 1);
  ColumnVector& seen = encodings_[c];
  if (seen.type() == TypeId::kInvalid) {  // first chunk at this position
    seen = col.is_dictionary() ? col.EmptyLike()
                               : ColumnVector(TypeId::kString);
  } else if (seen.is_dictionary() && !seen.SharesDictionaryWith(col)) {
    seen = ColumnVector(TypeId::kString);
  }
}

Status SpillFile::WriteBlob(const void* data, size_t size) {
  uint32_t magic = kBlobMagic;
  uint64_t size64 = size;
  AGORA_RETURN_IF_ERROR(WriteRaw(&magic, sizeof(magic)));
  AGORA_RETURN_IF_ERROR(WriteRaw(&size64, sizeof(size64)));
  return WriteRaw(data, size);
}

Status SpillFile::Rewind() {
  if (std::fflush(file_) != 0 || std::fseek(file_, 0, SEEK_SET) != 0) {
    return Status::IoError("spill rewind failed on " + path_);
  }
  return Status::OK();
}

Status SpillFile::ReadChunk(Chunk* out, bool* eof) {
  *out = Chunk();
  *eof = false;
  uint32_t magic = 0;
  if (std::fread(&magic, 1, sizeof(magic), file_) != sizeof(magic)) {
    *eof = true;
    return Status::OK();
  }
  bytes_read_ += sizeof(magic);
  if (magic != kChunkMagic) {
    return Status::Internal("spill stream corrupt: expected chunk record");
  }
  uint32_t ncols = 0, nrows = 0;
  AGORA_RETURN_IF_ERROR(ReadRaw(&ncols, sizeof(ncols)));
  AGORA_RETURN_IF_ERROR(ReadRaw(&nrows, sizeof(nrows)));
  std::vector<uint8_t> validity(nrows);
  for (uint32_t c = 0; c < ncols; ++c) {
    uint8_t type = 0;
    AGORA_RETURN_IF_ERROR(ReadRaw(&type, sizeof(type)));
    TypeId type_id = static_cast<TypeId>(type);
    AGORA_RETURN_IF_ERROR(ReadRaw(validity.data(), nrows));
    ColumnVector col(type_id);
    switch (type_id) {
      case TypeId::kBool:
      case TypeId::kInt64:
      case TypeId::kDate:
        col.ResizeForOverwrite(nrows);
        AGORA_RETURN_IF_ERROR(
            ReadRaw(col.mutable_int64_data(), nrows * sizeof(int64_t)));
        std::memcpy(col.mutable_validity_data(), validity.data(), nrows);
        break;
      case TypeId::kDouble:
        col.ResizeForOverwrite(nrows);
        AGORA_RETURN_IF_ERROR(
            ReadRaw(col.mutable_double_data(), nrows * sizeof(double)));
        std::memcpy(col.mutable_validity_data(), validity.data(), nrows);
        break;
      case TypeId::kString: {
        if (c < encodings_.size() && encodings_[c].is_dictionary()) {
          col = encodings_[c];  // appends intern into the written dictionary
        }
        col.Reserve(nrows);
        std::string value;
        for (uint32_t r = 0; r < nrows; ++r) {
          uint32_t len = 0;
          AGORA_RETURN_IF_ERROR(ReadRaw(&len, sizeof(len)));
          value.resize(len);
          if (len != 0) {
            AGORA_RETURN_IF_ERROR(ReadRaw(value.data(), len));
          }
          if (validity[r] != 0) {
            col.AppendString(value);
          } else {
            col.AppendNull();
          }
        }
        break;
      }
      case TypeId::kInvalid:
        return Status::Internal("spill stream corrupt: invalid column type");
    }
    out->AddColumn(std::move(col));
  }
  if (ncols == 0) out->SetExplicitRowCount(nrows);
  return Status::OK();
}

Status SpillFile::ReadBlob(std::string* out) {
  uint32_t magic = 0;
  AGORA_RETURN_IF_ERROR(ReadRaw(&magic, sizeof(magic)));
  if (magic != kBlobMagic) {
    return Status::Internal("spill stream corrupt: expected blob record");
  }
  uint64_t size = 0;
  AGORA_RETURN_IF_ERROR(ReadRaw(&size, sizeof(size)));
  out->resize(size);
  return ReadRaw(out->data(), size);
}

SpillManager::SpillManager(std::string dir)
    : dir_(ResolveSpillDir(std::move(dir))) {}

SpillManager::~SpillManager() = default;

Result<std::unique_ptr<SpillFile>> SpillManager::Create() {
  MutexLock lock(mu_);
  if (!free_.empty()) {
    std::unique_ptr<SpillFile> file = std::move(free_.back());
    free_.pop_back();
    // Truncate in place; the FILE* stream is reopened on the same path.
    std::FILE* reopened =
        std::freopen(file->path_.c_str(), "wb+", file->file_);
    if (reopened == nullptr) {
      file->file_ = nullptr;  // freopen closed the stream on failure
      return Status::IoError("cannot reopen spill file " + file->path_);
    }
    file->file_ = reopened;
    file->bytes_written_ = 0;
    file->bytes_read_ = 0;
    file->encodings_.clear();
    return file;
  }
  std::string path = dir_ + "/agora_spill_" +
                     std::to_string(static_cast<long>(getpid())) + "_" +
                     std::to_string(next_id_++) + ".tmp";
  std::FILE* f = std::fopen(path.c_str(), "wb+");
  if (f == nullptr) {
    return Status::IoError("cannot create spill file " + path);
  }
  ++files_created_;
  return std::unique_ptr<SpillFile>(new SpillFile(std::move(path), f));
}

void SpillManager::Recycle(std::unique_ptr<SpillFile> file) {
  if (file == nullptr) return;
  MutexLock lock(mu_);
  free_.push_back(std::move(file));
}

}  // namespace agora
