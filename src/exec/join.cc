#include "exec/join.h"

#include <algorithm>
#include <numeric>

#include "common/thread_pool.h"
#include "exec/parallel.h"
#include "exec/scan.h"
#include "exec/spill_util.h"

namespace agora {

namespace {

// Appends left row `lrow` ⊕ right row `rrow` to `out` (whose columns are
// left columns followed by right columns). `rrow` < 0 pads NULLs.
void AppendJoinedRow(const Chunk& left, size_t lrow, const Chunk& right,
                     int64_t rrow, Chunk* out) {
  size_t lcols = left.num_columns();
  for (size_t c = 0; c < lcols; ++c) {
    out->column(c).AppendFrom(left.column(c), lrow);
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    if (rrow < 0) {
      out->column(lcols + c).AppendNull();
    } else {
      out->column(lcols + c).AppendFrom(right.column(c),
                                        static_cast<size_t>(rrow));
    }
  }
}

/// The `output` columns of `all` (all of them when `output` is empty).
Schema OutputSchema(const Schema& all, const std::vector<size_t>& output) {
  if (output.empty()) return all;
  std::vector<Field> fields;
  for (size_t c : output) fields.push_back(all.field(c));
  return Schema(std::move(fields));
}

/// Column `c` of probe ⊕ build for the joined pairs (lsel[i], rsel[i]);
/// rsel[i] == UINT32_MAX pads NULL.
ColumnVector GatherJoined(size_t c, const Chunk& probe, const Chunk& build,
                          const std::vector<uint32_t>& lsel,
                          const std::vector<uint32_t>& rsel) {
  const size_t lcols = probe.num_columns();
  const bool left = c < lcols;
  const ColumnVector& src = left ? probe.column(c) : build.column(c - lcols);
  const std::vector<uint32_t>& sel = left ? lsel : rsel;
  ColumnVector out(src.type());
  out.AppendGatherPadded(src, sel.data(), sel.size());
  return out;
}

/// `output`, or every position of an `arity`-column input when empty.
std::vector<size_t> ResolveOutput(std::vector<size_t> output, size_t arity) {
  if (output.empty()) {
    output.resize(arity);
    std::iota(output.begin(), output.end(), size_t{0});
  }
  return output;
}

}  // namespace

PhysicalHashJoin::PhysicalHashJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                                   std::vector<ExprPtr> left_keys,
                                   std::vector<ExprPtr> right_keys,
                                   ExprPtr residual, PhysicalJoinKind kind,
                                   std::vector<size_t> output,
                                   ExecContext* context)
    : PhysicalOperator(
          OutputSchema(left->schema().Concat(right->schema()), output),
          context),
      left_(std::move(left)),
      right_(std::move(right)),
      left_keys_(std::move(left_keys)),
      right_keys_(std::move(right_keys)),
      residual_(std::move(residual)),
      kind_(kind),
      build_phase_id_(context != nullptr ? context->RegisterOp() : -1),
      probe_phase_id_(context != nullptr ? context->RegisterOp() : -1) {
  AGORA_CHECK(!left_keys_.empty() && left_keys_.size() == right_keys_.size());
  const size_t arity =
      left_->schema().num_fields() + right_->schema().num_fields();
  output_ = ResolveOutput(std::move(output), arity);
  residual_reads_.assign(arity, false);
  if (residual_ != nullptr) {
    std::vector<size_t> refs;
    residual_->CollectColumnRefs(&refs);
    for (size_t c : refs) residual_reads_[c] = true;
  }
  // Padding is decided per probe row before the residual runs, so a
  // residual could not turn a dropped match into a padded row.
  AGORA_CHECK(residual_ == nullptr || kind_ != PhysicalJoinKind::kLeftOuter);
  // Budgeted queries take the spill-capable path. The decision depends
  // only on the budget configuration (never on worker count or data), so
  // the plan behaves identically at every thread count.
  spill_mode_ = context != nullptr && context->spill != nullptr &&
                context->memory_limited();
}

Status PhysicalHashJoin::OpenImpl() {
  probe_done_ = false;
  if (spill_mode_) return OpenSpill();
  // The build side collects through the morsel pipeline when eligible;
  // chunks come back in morsel order, so row ids match the serial layout.
  AGORA_ASSIGN_OR_RETURN(Chunk data,
                         ParallelCollectAll(right_.get(), context_));
  context_->stats.bytes_materialized +=
      static_cast<int64_t>(data.MemoryBytes());
  {
    // The build phase covers hashing + table fill, not the child
    // collection above (that time belongs to the child operators).
    MetricSpan span = StatsSpan(&context_->stats, build_phase_id_);
    AGORA_RETURN_IF_ERROR(BuildTable(std::move(data), &build_));
    CountBuild(build_);
  }
  // The probe side opens only now, so a join filter published to a scan
  // below it exists before anything there can read.
  return left_->Open();
}

Status PhysicalHashJoin::BuildTable(Chunk data, JoinBuild* build) const {
  build->data = std::move(data);
  build->keys.resize(right_keys_.size());
  for (size_t k = 0; k < right_keys_.size(); ++k) {
    AGORA_RETURN_IF_ERROR(
        right_keys_[k]->Evaluate(build->data, &build->keys[k]));
  }
  const size_t rows = build->data.num_rows();
  // Column-at-a-time key hashing. The salt only perturbs slot/Bloom bit
  // choice: both sides fold it in identically, so the match relation is
  // unchanged. NULL keys (any column) never match.
  HashJoinKeys(build->keys, nullptr, rows, &build->hashes, &build->valid);

  // Partition the insertions across workers: worker p owns partition p
  // outright, so no locks are needed and chains stay in ascending row
  // order — the partition count never changes results.
  size_t num_partitions = 1;
  if (context_->pool != nullptr && context_->num_workers > 1 &&
      rows >= context_->parallel_min_rows) {
    num_partitions = static_cast<size_t>(context_->num_workers);
  }
  AGORA_RETURN_IF_ERROR(build->table.Build(
      build->hashes.data(), build->valid.data(), rows, num_partitions,
      num_partitions > 1 ? context_->pool : nullptr));
  build->filter.Build(build->keys, left_keys_[0]->result_type(),
                      build->hashes.data(), build->valid.data(), rows);
  return Status::OK();
}

void PhysicalHashJoin::CountBuild(const JoinBuild& build) {
  context_->stats.hash_table_entries += build.table.entries();
  context_->stats.hash_table_slots += build.table.slot_count();
  if (build.filter.exact()) context_->stats.join_filters_exact++;
}

Status PhysicalHashJoin::Probe(const JoinBuild& build, const Chunk& probe,
                               const std::vector<uint32_t>* decide,
                               const int64_t* tags, const ProbeKeys* keys,
                               Chunk* out, ExecStats* stats) const {
  MetricSpan span = StatsSpan(stats, probe_phase_id_);
  const uint32_t* sel = decide != nullptr ? decide->data() : nullptr;
  const size_t n = decide != nullptr ? decide->size() : probe.num_rows();
  // Evaluate probe keys for the whole chunk, unless the caller did.
  std::vector<ColumnVector> evaluated;
  if (keys == nullptr) {
    evaluated.resize(left_keys_.size());
    for (size_t k = 0; k < left_keys_.size(); ++k) {
      AGORA_RETURN_IF_ERROR(left_keys_[k]->Evaluate(probe, &evaluated[k]));
    }
  }
  const std::vector<ColumnVector>& probe_keys =
      keys != nullptr ? keys->keys : evaluated;

  // Candidate probe rows, ascending, and their key hashes: the rows the
  // join's filter keeps, or, when the probe-side scan already applied
  // it, every row with a non-NULL key.
  std::vector<uint32_t> cand(n);
  std::vector<uint64_t> hashes;
  size_t m = n;
  const uint32_t* tested = sel;
  if (filter_pushed_ || keys != nullptr) {
    // The rows with non-NULL keys and their hashes (the spill path's
    // routing pass already hashed every probe row).
    AGORA_DCHECK(!filter_pushed_ || keys == nullptr);  // spill never pushes
    std::vector<uint8_t> valid;
    if (keys == nullptr) {
      HashJoinKeys(probe_keys, sel, n, &hashes, &valid);
    } else {
      hashes.resize(n);
      valid.resize(n);
      for (size_t i = 0; i < n; ++i) {
        const uint32_t r = sel != nullptr ? sel[i] : static_cast<uint32_t>(i);
        hashes[i] = keys->hashes[r];
        valid[i] = keys->valid[r];
      }
    }
    m = 0;
    for (size_t i = 0; i < n; ++i) {
      cand[m] = sel != nullptr ? sel[i] : static_cast<uint32_t>(i);
      hashes[m] = hashes[i];
      m += valid[i];
    }
    hashes.resize(m);
    tested = cand.data();
  }
  if (!filter_pushed_) {
    // The join's filter; it hashes the rows unless they arrive hashed.
    int64_t checked = 0;
    m = build.filter.Select(probe_keys, 0, tested, m, cand.data(), &checked,
                            &hashes);
    stats->bloom_checked_rows += checked;
    stats->bloom_filtered_rows += checked - static_cast<int64_t>(m);
  }

  // Gather candidate (probe row, build row) pairs by the hash-chain walk.
  // Pairs are grouped by probe row in row order, with chains in
  // ascending build-row order.
  HashTableStats ht;
  std::vector<uint32_t> pair_l, pair_b;
  for (size_t j = 0; j < m; ++j) {
    for (uint32_t ref = build.table.Find(hashes[j], &ht); ref != 0;
         ref = build.table.Next(ref)) {
      stats->probe_calls++;
      pair_l.push_back(cand[j]);
      pair_b.push_back(ref - 1);
    }
  }
  stats->hash_table_lookups += ht.lookups;
  stats->hash_table_probe_steps += ht.probe_steps;

  // Verify all candidates column-at-a-time against the build keys.
  const size_t pairs = pair_l.size();
  std::vector<uint8_t> equal(pairs, 1);
  for (size_t k = 0; k < probe_keys.size(); ++k) {
    probe_keys[k].BatchEqualRows(pair_l.data(), build.keys[k],
                                 pair_b.data(), pairs,
                                 /*bitwise_doubles=*/false, equal.data());
  }

  // Emit survivors in probe-row order (UINT32_MAX pads outer-join rows).
  std::vector<uint32_t> lsel, rsel;
  size_t ptr = 0;
  for (size_t i = 0; i < n; ++i) {
    const uint32_t r = sel != nullptr ? sel[i] : static_cast<uint32_t>(i);
    bool matched = false;
    while (ptr < pairs && pair_l[ptr] == r) {
      if (equal[ptr] != 0) {
        lsel.push_back(r);
        rsel.push_back(pair_b[ptr]);
        matched = true;
      }
      ++ptr;
    }
    if (!matched && kind_ == PhysicalJoinKind::kLeftOuter) {
      lsel.push_back(r);
      rsel.push_back(UINT32_MAX);
    }
  }

  // The residual reads only its own columns of the pairs (the others are
  // constant NULL stand-ins) and narrows the pairs before any output
  // column is gathered; columns it gathered are reused for the output.
  Chunk pairs_read;
  Selection kept;
  if (residual_ != nullptr && !lsel.empty()) {
    for (size_t c = 0; c < residual_reads_.size(); ++c) {
      if (residual_reads_[c]) {
        pairs_read.AddColumn(GatherJoined(c, probe, build.data, lsel, rsel));
      } else {
        const size_t lcols = probe.num_columns();
        const TypeId type = c < lcols ? probe.column(c).type()
                                      : build.data.column(c - lcols).type();
        pairs_read.AddColumn(
            ColumnVector::MakeConstant(type, Value::Null(type), lsel.size()));
      }
    }
    AGORA_RETURN_IF_ERROR(SelectRows(*residual_, pairs_read, &kept, stats));
    if (!kept.all) {
      for (size_t i = 0; i < kept.rows.size(); ++i) {
        lsel[i] = lsel[kept.rows[i]];
        rsel[i] = rsel[kept.rows[i]];
      }
      lsel.resize(kept.rows.size());
      rsel.resize(kept.rows.size());
    }
  }

  Chunk result;
  if (lsel.empty()) {
    result = Chunk(schema_);
  } else {
    for (size_t c : output_) {
      if (pairs_read.num_columns() > 0 && residual_reads_[c]) {
        const ColumnVector& read = pairs_read.column(c);
        result.AddColumn(kept.all ? read : read.Gather(kept.rows));
      } else {
        result.AddColumn(GatherJoined(c, probe, build.data, lsel, rsel));
      }
    }
    if (tags != nullptr) {
      ColumnVector tag(TypeId::kInt64);
      for (uint32_t r : lsel) tag.AppendInt64(tags[r]);
      result.AddColumn(std::move(tag));
    }
  }
  stats->rows_joined += static_cast<int64_t>(lsel.size());
  span.AddRows(static_cast<int64_t>(lsel.size()));
  *out = std::move(result);
  return Status::OK();
}

Status PhysicalHashJoin::OpenSpill() {
  any_spilled_ = false;
  parts_.clear();
  immediate_file_.reset();

  AGORA_RETURN_IF_ERROR(left_->Open());
  const size_t num_parts = std::max<size_t>(1, context_->spill_partitions);
  parts_.resize(num_parts);

  // Serial build drain: rows land in their hash partition's buffer (or
  // go straight to its file once the partition has spilled). Shedding
  // decisions happen at chunk granularity and only affect *where* rows
  // wait, never what the join produces.
  MetricSpan span = StatsSpan(&context_->stats, build_phase_id_);
  AGORA_RETURN_IF_ERROR(right_->Open());
  std::vector<std::vector<uint32_t>> psel(num_parts);
  bool done = false;
  while (!done) {
    Chunk chunk;
    AGORA_RETURN_IF_ERROR(right_->Next(&chunk, &done));
    size_t rows = chunk.num_rows();
    if (rows == 0) continue;
    context_->stats.bytes_materialized +=
        static_cast<int64_t>(chunk.MemoryBytes());

    std::vector<ColumnVector> keys(right_keys_.size());
    for (size_t k = 0; k < right_keys_.size(); ++k) {
      AGORA_RETURN_IF_ERROR(right_keys_[k]->Evaluate(chunk, &keys[k]));
    }
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> valid;
    HashJoinKeys(keys, nullptr, rows, &hashes, &valid);
    // NULL-key build rows can never match and the probe side supplies all
    // outer-join padding, so they are dropped here — same net effect as
    // the in-memory table, which skips them at insert time.
    for (std::vector<uint32_t>& sel : psel) sel.clear();
    for (size_t r = 0; r < rows; ++r) {
      if (valid[r] != 0) {
        psel[hashes[r] % num_parts].push_back(static_cast<uint32_t>(r));
      }
    }
    for (size_t p = 0; p < num_parts; ++p) {
      if (psel[p].empty()) continue;
      SpillPartition& part = parts_[p];
      Chunk pc = chunk.GatherRows(psel[p]);
      if (part.spilled) {
        AGORA_RETURN_IF_ERROR(
            SpillWriteChunk(part.build_file.get(), pc, &context_->stats));
      } else {
        part.rows += psel[p].size();
        part.buffered.push_back(std::move(pc));
      }
    }
    while (context_->memory->over_budget() && PickVictim() != SIZE_MAX) {
      AGORA_RETURN_IF_ERROR(SpillPartitionRows(PickVictim()));
    }
  }
  AGORA_RETURN_IF_ERROR(PrepareResident());
  if (!any_spilled_) return Status::OK();  // NextImpl streams the probe

  // Some partitions went to disk: drain the probe side now, spooling
  // index-tagged output, then join each spilled partition from its files.
  AGORA_RETURN_IF_ERROR(DrainProbeToStreams());

  // Release the resident build before the reloads — the deferred
  // partitions need that budget headroom.
  AGORA_RETURN_IF_ERROR(BuildTable(Chunk(right_->schema()), &build_));
  for (SpillPartition& part : parts_) {
    if (part.spilled) {
      AGORA_RETURN_IF_ERROR(ProcessDeferredPartition(&part));
    }
  }

  // Arm the k-way merge: one stream for the immediate output plus one per
  // spilled partition. Probe-row indices are disjoint across streams and
  // ascending within each, so the merge restores global probe order.
  std::vector<SpillFile*> files = {immediate_file_.get()};
  for (SpillPartition& part : parts_) {
    if (part.out_file != nullptr) files.push_back(part.out_file.get());
  }
  return merge_.Open(files, &context_->stats);
}

size_t PhysicalHashJoin::PickVictim() const {
  size_t victim = SIZE_MAX;
  size_t best_rows = 0;
  for (size_t p = 0; p < parts_.size(); ++p) {
    const SpillPartition& part = parts_[p];
    if (!part.spilled && part.rows > best_rows) {
      victim = p;
      best_rows = part.rows;
    }
  }
  return victim;
}

Status PhysicalHashJoin::SpillPartitionRows(size_t p) {
  SpillPartition& part = parts_[p];
  if (part.build_file == nullptr) {
    AGORA_ASSIGN_OR_RETURN(part.build_file, context_->spill->Create());
  }
  for (const Chunk& pc : part.buffered) {
    AGORA_RETURN_IF_ERROR(
        SpillWriteChunk(part.build_file.get(), pc, &context_->stats));
  }
  std::vector<Chunk>().swap(part.buffered);
  part.rows = 0;
  part.spilled = true;
  any_spilled_ = true;
  context_->stats.spill_partitions++;
  return Status::OK();
}

Status PhysicalHashJoin::PrepareResident() {
  // Move the buffered partitions into one concatenation, freeing each
  // buffer chunk as it lands. Partition order + arrival order makes the
  // layout deterministic for a given shed history, and every chain keeps
  // its partition's arrival order, which is the in-memory order.
  Chunk data(right_->schema());
  for (SpillPartition& part : parts_) {
    for (Chunk& pc : part.buffered) data.Append(std::move(pc));
    std::vector<Chunk>().swap(part.buffered);
  }
  // If the table and filter push the query back over budget, shed the
  // largest partition and rebuild over the rest — at most P rounds.
  const size_t num_parts = parts_.size();
  for (;;) {
    AGORA_RETURN_IF_ERROR(BuildTable(std::move(data), &build_));
    if (!context_->memory->over_budget()) break;
    const size_t victim = PickVictim();
    if (victim == SIZE_MAX) break;  // nothing left to shed; reloads decide
    std::vector<uint32_t> keep, shed;
    for (size_t r = 0; r < build_.hashes.size(); ++r) {
      const bool in_victim = build_.hashes[r] % num_parts == victim;
      (in_victim ? shed : keep).push_back(static_cast<uint32_t>(r));
    }
    parts_[victim].buffered.push_back(build_.data.GatherRows(shed));
    AGORA_RETURN_IF_ERROR(SpillPartitionRows(victim));
    data = build_.data.GatherRows(keep);
  }
  CountBuild(build_);
  return Status::OK();
}

Status PhysicalHashJoin::ProbePartitionedChunk(const Chunk& probe,
                                               int64_t base_idx, Chunk* out,
                                               ExecStats* stats) {
  const size_t num_parts = parts_.size();
  const size_t rows = probe.num_rows();
  // The keys are evaluated and hashed once: the hashes route the rows
  // here and Probe reads them for the rows it decides.
  ProbeKeys keys;
  keys.keys.resize(left_keys_.size());
  for (size_t k = 0; k < left_keys_.size(); ++k) {
    AGORA_RETURN_IF_ERROR(left_keys_[k]->Evaluate(probe, &keys.keys[k]));
  }
  HashJoinKeys(keys.keys, nullptr, rows, &keys.hashes, &keys.valid);
  const std::vector<uint64_t>& hashes = keys.hashes;
  const std::vector<uint8_t>& valid = keys.valid;

  // A probe row belongs to exactly one partition. Rows of spilled
  // partitions divert to that partition's file for the deferred pass;
  // this pass decides every other row, NULL keys included (under LEFT
  // OUTER they pad here).
  std::vector<uint32_t> decide;
  std::vector<std::vector<uint32_t>> divert(num_parts);
  std::vector<int64_t> tags(rows);
  for (size_t r = 0; r < rows; ++r) {
    tags[r] = base_idx + static_cast<int64_t>(r);
    const size_t p = hashes[r] % num_parts;
    if (valid[r] != 0 && parts_[p].spilled) {
      divert[p].push_back(static_cast<uint32_t>(r));
    } else {
      decide.push_back(static_cast<uint32_t>(r));
    }
  }
  AGORA_RETURN_IF_ERROR(
      Probe(build_, probe, &decide, tags.data(), &keys, out, stats));

  for (size_t p = 0; p < num_parts; ++p) {
    if (divert[p].empty()) continue;
    SpillPartition& part = parts_[p];
    if (part.probe_file == nullptr) {
      AGORA_ASSIGN_OR_RETURN(part.probe_file, context_->spill->Create());
    }
    Chunk pc = probe.GatherRows(divert[p]);
    ColumnVector idx(TypeId::kInt64);
    for (uint32_t r : divert[p]) idx.AppendInt64(tags[r]);
    pc.AddColumn(std::move(idx));
    AGORA_RETURN_IF_ERROR(SpillWriteChunk(part.probe_file.get(), pc, stats));
  }
  return Status::OK();
}

Status PhysicalHashJoin::DrainProbeToStreams() {
  AGORA_ASSIGN_OR_RETURN(immediate_file_, context_->spill->Create());
  int64_t base_idx = 0;
  bool done = false;
  while (!done) {
    Chunk probe;
    AGORA_RETURN_IF_ERROR(left_->Next(&probe, &done));
    size_t rows = probe.num_rows();
    if (rows == 0) continue;
    Chunk out;
    AGORA_RETURN_IF_ERROR(
        ProbePartitionedChunk(probe, base_idx, &out, &context_->stats));
    if (out.num_rows() > 0) {
      AGORA_RETURN_IF_ERROR(
          SpillWriteChunk(immediate_file_.get(), out, &context_->stats));
    }
    base_idx += static_cast<int64_t>(rows);
  }
  probe_done_ = true;
  return Status::OK();
}

Status PhysicalHashJoin::ProcessDeferredPartition(SpillPartition* part) {
  // Reload the partition's build rows. A partition that still cannot fit
  // alone is the graceful-failure point of the whole scheme: the query
  // errors with ResourceExhausted instead of thrashing or aborting.
  JoinBuild build;
  {
    MetricSpan span = StatsSpan(&context_->stats, build_phase_id_);
    Chunk data(right_->schema());
    AGORA_RETURN_IF_ERROR(part->build_file->Rewind());
    for (;;) {
      Chunk pc;
      bool eof = false;
      AGORA_RETURN_IF_ERROR(SpillReadChunk(part->build_file.get(), &pc, &eof,
                                           &context_->stats));
      if (eof) break;
      data.Append(std::move(pc));
    }
    context_->spill->Recycle(std::move(part->build_file));
    AGORA_RETURN_IF_ERROR(
        context_->CheckMemoryBudget("HashJoin::spill-reload"));
    AGORA_RETURN_IF_ERROR(BuildTable(std::move(data), &build));
    CountBuild(build);
  }
  if (part->probe_file == nullptr) return Status::OK();  // nothing diverted

  // Probe the diverted rows in file order (= ascending global index).
  AGORA_RETURN_IF_ERROR(part->probe_file->Rewind());
  AGORA_ASSIGN_OR_RETURN(part->out_file, context_->spill->Create());
  for (;;) {
    Chunk pc;
    bool eof = false;
    AGORA_RETURN_IF_ERROR(SpillReadChunk(part->probe_file.get(), &pc, &eof,
                                         &context_->stats));
    if (eof) break;
    // The trailing global-row-index column tags the output.
    const size_t lcols = pc.num_columns() - 1;
    Chunk probe;
    for (size_t c = 0; c < lcols; ++c) probe.AddColumn(pc.column(c));
    Chunk out;
    AGORA_RETURN_IF_ERROR(Probe(build, probe, nullptr,
                                pc.column(lcols).int64_data(), nullptr, &out,
                                &context_->stats));
    if (out.num_rows() > 0) {
      AGORA_RETURN_IF_ERROR(
          SpillWriteChunk(part->out_file.get(), out, &context_->stats));
    }
  }
  context_->spill->Recycle(std::move(part->probe_file));
  return Status::OK();
}

Status PhysicalHashJoin::NextImpl(Chunk* chunk, bool* done) {
  // With spilled partitions the probe already ran during Open(); emit the
  // k-way merge of the spooled streams. Otherwise stream the probe side
  // against build_, which then holds every build row in either mode.
  if (any_spilled_) {
    Chunk out(schema_);
    AGORA_RETURN_IF_ERROR(merge_.Next(&out, done, &context_->stats));
    if (*done) {
      // Hand every stream's file back for reuse by later operators.
      context_->spill->Recycle(std::move(immediate_file_));
      for (SpillPartition& part : parts_) {
        context_->spill->Recycle(std::move(part.out_file));
      }
    }
    *chunk = std::move(out);
    return Status::OK();
  }
  while (!probe_done_) {
    Chunk probe;
    AGORA_RETURN_IF_ERROR(left_->Next(&probe, &probe_done_));
    if (probe.num_rows() == 0) continue;
    Chunk out;
    AGORA_RETURN_IF_ERROR(ProbeChunk(probe, &out, &context_->stats));
    if (out.num_rows() == 0) continue;
    *chunk = std::move(out);
    *done = probe_done_;
    return Status::OK();
  }
  *chunk = Chunk(schema_);
  *done = true;
  return Status::OK();
}

PhysicalNestedLoopJoin::PhysicalNestedLoopJoin(
    PhysicalOpPtr left, PhysicalOpPtr right, ExprPtr condition,
    PhysicalJoinKind kind, std::vector<size_t> output, ExecContext* context)
    : PhysicalOperator(
          OutputSchema(left->schema().Concat(right->schema()), output),
          context),
      left_(std::move(left)),
      right_(std::move(right)),
      condition_(std::move(condition)),
      kind_(kind),
      pairs_schema_(left_->schema().Concat(right_->schema())),
      output_(ResolveOutput(std::move(output), pairs_schema_.num_fields())) {}

Status PhysicalNestedLoopJoin::OpenImpl() {
  probe_done_ = false;
  AGORA_RETURN_IF_ERROR(left_->Open());
  AGORA_ASSIGN_OR_RETURN(build_data_,
                         ParallelCollectAll(right_.get(), context_));
  context_->stats.bytes_materialized +=
      static_cast<int64_t>(build_data_.MemoryBytes());
  return Status::OK();
}

Status PhysicalNestedLoopJoin::NextImpl(Chunk* chunk, bool* done) {
  size_t build_rows = build_data_.num_rows();
  while (!probe_done_) {
    // Nested-loop pairing can square the working set; fail gracefully at
    // chunk granularity instead of overrunning the budget unbounded.
    AGORA_RETURN_IF_ERROR(context_->CheckMemoryBudget("NestedLoopJoin"));
    Chunk probe;
    AGORA_RETURN_IF_ERROR(left_->Next(&probe, &probe_done_));
    size_t rows = probe.num_rows();
    if (rows == 0) continue;

    Chunk out(pairs_schema_);
    // Pair every probe row with every build row, then filter.
    Chunk paired(pairs_schema_);
    for (size_t r = 0; r < rows; ++r) {
      for (size_t b = 0; b < build_rows; ++b) {
        AppendJoinedRow(probe, r, build_data_, static_cast<int64_t>(b),
                        &paired);
      }
    }
    if (condition_ == nullptr) {
      out = std::move(paired);
    } else if (kind_ == PhysicalJoinKind::kLeftOuter) {
      // Track which probe rows matched to pad the rest.
      ColumnVector mask;
      AGORA_RETURN_IF_ERROR(condition_->Evaluate(paired, &mask));
      std::vector<bool> probe_matched(rows, false);
      std::vector<uint32_t> sel;
      for (size_t i = 0; i < paired.num_rows(); ++i) {
        if (!mask.IsNull(i) && mask.GetBool(i)) {
          sel.push_back(static_cast<uint32_t>(i));
          probe_matched[i / build_rows] = true;
        }
      }
      out = paired.GatherRows(sel);
      for (size_t r = 0; r < rows; ++r) {
        if (!probe_matched[r]) {
          AppendJoinedRow(probe, r, build_data_, -1, &out);
        }
      }
    } else {
      AGORA_ASSIGN_OR_RETURN(
          out, FilterChunk(paired, *condition_, &context_->stats));
    }
    if (kind_ == PhysicalJoinKind::kLeftOuter && build_rows == 0) {
      // Empty build side: every probe row survives, NULL-padded.
      out = Chunk(pairs_schema_);
      for (size_t r = 0; r < rows; ++r) {
        AppendJoinedRow(probe, r, build_data_, -1, &out);
      }
    }
    if (out.num_rows() == 0) continue;
    Chunk emitted;
    for (size_t c : output_) emitted.AddColumn(out.column(c));
    context_->stats.rows_joined += static_cast<int64_t>(emitted.num_rows());
    context_->stats.bytes_materialized +=
        static_cast<int64_t>(emitted.MemoryBytes());
    *chunk = std::move(emitted);
    *done = probe_done_;
    return Status::OK();
  }
  *chunk = Chunk(schema_);
  *done = true;
  return Status::OK();
}

}  // namespace agora
