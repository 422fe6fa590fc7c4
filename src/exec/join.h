#ifndef AGORA_EXEC_JOIN_H_
#define AGORA_EXEC_JOIN_H_

#include <memory>
#include <vector>

#include "exec/hash_table.h"
#include "exec/physical_op.h"
#include "exec/spill_util.h"
#include "expr/expr.h"
#include "storage/spill.h"

namespace agora {

enum class PhysicalJoinKind { kInner, kLeftOuter, kCross };

/// Hash join: materializes and hashes the RIGHT (build) child, then
/// streams the LEFT (probe) child. Output schema is the `output` columns
/// of left ⊕ right (all of them when `output` is empty). NULL keys never
/// match; kLeftOuter emits unmatched probe rows padded with NULLs.
///
/// Late materialization: a probe decides its (probe row, build row)
/// pairs from the keys alone, the residual reads only the columns it
/// references, and only the `output` columns are gathered into the
/// result, so columns read by no parent cost nothing.
///
/// Every build side, in memory or in spill mode, is one JoinBuild: the
/// rows, their evaluated keys and key hashes, one JoinHashTable and one
/// JoinKeyFilter (an exact key bitmap for a dense integer key, else a
/// Bloom filter), filled by BuildTable. The table's rows are
/// hash-partitioned (`hash % P`); with a worker pool available the P
/// partition directories are filled by parallel workers, each owning its
/// partition outright. Chains iterate in ascending build-row order, so
/// probe output is identical for every partition and worker count. Every
/// probe goes through one routine, Probe, which is read-only, so
/// ProbeChunk() lets the morsel pipeline probe on any worker; the filter
/// rejects matchless probe rows before they touch the slot directory.
/// Build and probe book their self time into separate phase slots
/// (EXPLAIN ANALYZE shows HashJoin::build/::probe).
///
/// Join filter: outside spill mode, Open() builds the table and filter
/// before it opens the probe child. The planner may hand build_filter()
/// to the PhysicalScan that produces every probe key (AddJoinFilter);
/// that scan then drops filter misses and NULL keys before it gathers
/// anything, and set_filter_pushed() makes the probe skip its own, now
/// redundant, check. The filter is immutable once built, so morsel
/// workers read it without synchronization, and it has no false
/// negatives, so results do not change. Spill mode publishes nothing
/// and tests each build's filter in the probe. See DESIGN.md, "Join
/// filters".
class PhysicalHashJoin : public PhysicalOperator {
 public:
  /// `left_keys[i]` (over the left schema) must equal `right_keys[i]`
  /// (over the right schema) for a match; the planner guarantees matching
  /// key types. `residual` (over left ⊕ right) further filters matches;
  /// a kLeftOuter join has none (the planner lowers those to nested
  /// loops). `output` lists the positions of left ⊕ right to emit, in
  /// order (empty = all).
  PhysicalHashJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                   std::vector<ExprPtr> left_keys,
                   std::vector<ExprPtr> right_keys, ExprPtr residual,
                   PhysicalJoinKind kind, std::vector<size_t> output,
                   ExecContext* context);

  Status OpenImpl() override;
  Status NextImpl(Chunk* chunk, bool* done) override;
  std::string name() const override { return "HashJoin"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

  /// Joins one probe chunk against the built table. Thread-safe once
  /// Open() returned; used by both the serial Next() loop and parallel
  /// morsel workers. `*out` may come back empty.
  Status ProbeChunk(const Chunk& probe, Chunk* out, ExecStats* stats) const {
    return Probe(build_, probe, nullptr, nullptr, nullptr, out, stats);
  }

  PhysicalOperator* probe_child() const { return left_.get(); }
  PhysicalOperator* build_child() const { return right_.get(); }
  PhysicalJoinKind kind() const { return kind_; }
  const std::vector<ExprPtr>& left_keys() const { return left_keys_; }
  /// The position in left ⊕ right of each output column.
  const std::vector<size_t>& output() const { return output_; }

  /// The filter over the build keys, filled by Open() before the probe
  /// child opens. The pointer is stable for the join's lifetime.
  const JoinKeyFilter* build_filter() const { return &build_.filter; }
  /// Called by the planner once the probe-side scan applies
  /// build_filter(): every probe row then already passed it.
  void set_filter_pushed() { filter_pushed_ = true; }

  /// True when this join runs the budgeted (spill-capable) path. Decided
  /// at construction from the budget configuration alone — never from the
  /// worker count — so plan shape and pipeline eligibility stay identical
  /// at every thread count.
  bool spill_mode() const { return spill_mode_; }

  std::vector<OperatorPhase> phases() const override {
    return {{"build", build_phase_id_}, {"probe", probe_phase_id_}};
  }

 private:
  /// One build side: the build rows, their evaluated key columns, the
  /// keys' HashJoinKeys hashes and valid bytes, and the table and filter
  /// over them.
  struct JoinBuild {
    Chunk data;
    std::vector<ColumnVector> keys;
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> valid;  // 0 = some key was NULL
    JoinHashTable table;
    JoinKeyFilter filter;
  };

  /// A probe chunk's evaluated key columns and their HashJoinKeys hashes
  /// and valid bytes, one per probe row.
  struct ProbeKeys {
    std::vector<ColumnVector> keys;
    std::vector<uint64_t> hashes;
    std::vector<uint8_t> valid;
  };

  /// Fills `*build` from `data`: evaluates and hashes the build keys,
  /// then fills the table (in parallel when a pool is available) and the
  /// filter. An empty `data` leaves an empty build, which frees the old.
  Status BuildTable(Chunk data, JoinBuild* build) const;
  /// Books a finished build's table and filter into the query's stats.
  void CountBuild(const JoinBuild& build);

  /// Joins probe rows against `build` and returns the joined rows in
  /// probe-row order. The rows joined are `decide` (ascending) when it is
  /// non-null, else every row of `probe`; kLeftOuter pads exactly those
  /// that match nothing. With `tags`, `*out` gets a trailing BIGINT
  /// column holding tags[r] for each row joined from probe row r. With
  /// `keys` (the spill path's routing pass), the probe keys are not
  /// evaluated or hashed again. Tests the build's filter unless the
  /// probe-side scan already applied it.
  Status Probe(const JoinBuild& build, const Chunk& probe,
               const std::vector<uint32_t>* decide, const int64_t* tags,
               const ProbeKeys* keys, Chunk* out, ExecStats* stats) const;

  // --- budgeted (spill-capable) execution -------------------------------
  //
  // Build rows are partitioned by `hash % P`; when the query tracker
  // crosses its budget the largest resident partition is written to a
  // temp file. The resident partitions then form one JoinBuild. If no
  // partition spilled, NextImpl streams the probe through ProbeChunk as
  // in memory. Otherwise probe rows of spilled partitions divert to
  // per-partition files tagged with their global probe-row index, and
  // everything else joins immediately into a spooled "immediate" stream.
  // Each spilled partition is then reloaded alone into its own JoinBuild,
  // probed from its file, and its output spooled. NextImpl k-way-merges
  // the streams by probe-row index, which restores exactly the order the
  // in-memory path emits — output is byte-identical regardless of which
  // partitions spilled. See DESIGN.md.

  /// One hash partition of the build side. While resident, rows sit in
  /// `buffered` chunks of the right columns; once spilled they live in
  /// `build_file` in the same layout.
  struct SpillPartition {
    std::vector<Chunk> buffered;
    size_t rows = 0;  // resident row count (0 once spilled)
    bool spilled = false;
    std::unique_ptr<SpillFile> build_file;
    std::unique_ptr<SpillFile> probe_file;  // diverted probe rows (+index)
    std::unique_ptr<SpillFile> out_file;    // deferred join output (+index)
  };

  Status OpenSpill();
  /// Largest resident partition, or SIZE_MAX when none remains.
  size_t PickVictim() const;
  /// Writes partition `p`'s buffered chunks to its build file and marks
  /// it spilled.
  Status SpillPartitionRows(size_t p);
  /// Builds build_ over the resident partitions, shedding the largest
  /// one and rebuilding while the query is over budget.
  Status PrepareResident();
  /// Routes one probe chunk: rows of spilled partitions go to their
  /// probe files, the rest join against build_ into `*out`, tagged with
  /// their global probe-row index (`base_idx` + row).
  Status ProbePartitionedChunk(const Chunk& probe, int64_t base_idx,
                               Chunk* out, ExecStats* stats);
  Status DrainProbeToStreams();
  Status ProcessDeferredPartition(SpillPartition* part);

  bool spill_mode_ = false;
  bool any_spilled_ = false;
  std::vector<SpillPartition> parts_;
  std::unique_ptr<SpillFile> immediate_file_;
  SpillMerge merge_;

  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExprPtr residual_;
  std::vector<bool> residual_reads_;  // per column of left ⊕ right
  PhysicalJoinKind kind_;
  std::vector<size_t> output_;
  int build_phase_id_ = -1;
  int probe_phase_id_ = -1;

  JoinBuild build_;  // the whole build side, or spill mode's resident part
  bool filter_pushed_ = false;  // the probe-side scan applies the filter
  bool probe_done_ = false;
};

/// Nested-loop join: materializes the right child and pairs every probe
/// row with every build row, evaluating `condition` (if any), and emits
/// the `output` columns of left ⊕ right (empty = all). Used for cross
/// joins and non-equi conditions — and as the deliberately naive
/// baseline when the optimizer is disabled (experiment E4).
class PhysicalNestedLoopJoin : public PhysicalOperator {
 public:
  PhysicalNestedLoopJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                         ExprPtr condition, PhysicalJoinKind kind,
                         std::vector<size_t> output, ExecContext* context);

  Status OpenImpl() override;
  Status NextImpl(Chunk* chunk, bool* done) override;
  std::string name() const override { return "NestedLoopJoin"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }
  PhysicalJoinKind kind() const { return kind_; }

 private:
  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  ExprPtr condition_;
  PhysicalJoinKind kind_;
  Schema pairs_schema_;  // left ⊕ right
  std::vector<size_t> output_;

  Chunk build_data_;
  bool probe_done_ = false;
};

}  // namespace agora

#endif  // AGORA_EXEC_JOIN_H_
