#include "exec/spill_util.h"

namespace agora {

Status SpillMerge::Open(const std::vector<SpillFile*>& files,
                        ExecStats* stats) {
  streams_.clear();
  for (SpillFile* file : files) {
    Stream s;
    s.file = file;
    AGORA_RETURN_IF_ERROR(file->Rewind());
    AGORA_RETURN_IF_ERROR(Advance(&s, stats));
    streams_.push_back(std::move(s));
  }
  return Status::OK();
}

Status SpillMerge::Advance(Stream* s, ExecStats* stats) {
  while (!s->exhausted && s->row >= s->chunk.num_rows()) {
    s->row = 0;
    Chunk next;
    bool eof = false;
    AGORA_RETURN_IF_ERROR(SpillReadChunk(s->file, &next, &eof, stats));
    s->exhausted = eof;
    s->chunk = std::move(next);
  }
  return Status::OK();
}

Status SpillMerge::Next(Chunk* out, bool* done, ExecStats* stats) {
  const size_t ncols = out->num_columns();
  // Runs are often a row or two long, so growing the columns run by run
  // would leave them up to twice their size; a full chunk fits exactly.
  for (size_t c = 0; c < ncols; ++c) out->column(c).Reserve(kChunkSize);
  while (out->num_rows() < kChunkSize) {
    // Find the stream with the smallest head index (indices are disjoint
    // across streams, so ties cannot happen) and the runner-up bound.
    size_t best = SIZE_MAX;
    int64_t best_idx = 0;
    int64_t second = INT64_MAX;
    for (size_t i = 0; i < streams_.size(); ++i) {
      Stream& s = streams_[i];
      if (s.exhausted) continue;
      const int64_t idx = s.chunk.column(ncols).GetInt64(s.row);
      if (best == SIZE_MAX) {
        best = i;
        best_idx = idx;
      } else if (idx < best_idx) {
        second = best_idx;
        best = i;
        best_idx = idx;
      } else if (idx < second) {
        second = idx;
      }
    }
    if (best == SIZE_MAX) break;  // every stream exhausted
    Stream& s = streams_[best];
    // Take the longest run from this stream that stays below every other
    // head and fits the output chunk, then copy it as one range.
    const int64_t* idxs = s.chunk.column(ncols).int64_data();
    const size_t room = kChunkSize - out->num_rows();
    size_t end = s.row + 1;
    while (end < s.chunk.num_rows() && idxs[end] < second &&
           end - s.row < room) {
      ++end;
    }
    for (size_t c = 0; c < ncols; ++c) {
      out->column(c).AppendRange(s.chunk.column(c), s.row, end - s.row);
    }
    s.row = end;
    AGORA_RETURN_IF_ERROR(Advance(&s, stats));
  }
  bool drained = true;
  for (const Stream& s : streams_) drained &= s.exhausted;
  if (drained) {
    streams_.clear();
    // The last chunk is short: copy it out of its full-size buffers.
    const size_t rows = out->num_rows();
    for (size_t c = 0; c < ncols; ++c) {
      ColumnVector exact = out->column(c).EmptyLike();
      exact.AppendRange(out->column(c), 0, rows);
      out->column(c) = std::move(exact);
    }
  }
  *done = drained;
  return Status::OK();
}

}  // namespace agora
