#ifndef AGORA_EXEC_JOIN_H_
#define AGORA_EXEC_JOIN_H_

#include <memory>
#include <vector>

#include "exec/hash_table.h"
#include "exec/physical_op.h"
#include "expr/expr.h"
#include "storage/spill.h"

namespace agora {

enum class PhysicalJoinKind { kInner, kLeftOuter, kCross };

/// Hash join: materializes and hashes the RIGHT (build) child, then
/// streams the LEFT (probe) child. Output schema is left ⊕ right. NULL
/// keys never match; kLeftOuter emits unmatched probe rows padded with
/// NULLs.
///
/// Keys are hashed column-at-a-time into a JoinHashTable whose build-side
/// rows are hash-partitioned (`hash % P`); with a worker pool available
/// the P partition directories are filled by parallel workers, each
/// owning its partition outright. Chains iterate in ascending build-row
/// order, so probe output is identical for every partition and worker
/// count. Probing is read-only after Open(), exposed per-chunk via
/// ProbeChunk() so the morsel pipeline can run probes on any worker; the
/// join's key filter (JoinKeyFilter: an exact key bitmap for a dense
/// integer key, else a Bloom filter) rejects matchless probe rows before
/// they touch the slot directory. Build and probe book their self time
/// into separate phase slots (EXPLAIN ANALYZE shows HashJoin::build/
/// ::probe).
///
/// Join filter: outside spill mode, Open() builds the table and the one
/// filter the join uses before it opens the probe child. The planner may
/// hand build_filter() to the PhysicalScan that produces every probe key
/// (AddJoinFilter); that scan then drops filter misses and NULL keys
/// before it gathers anything, and set_filter_pushed() makes the probe
/// skip its own, now redundant, check. The filter is immutable once
/// built, so morsel workers read it without synchronization, and it has
/// no false negatives, so results do not change. See DESIGN.md, "Join
/// filters". Spill mode keeps a Bloom filter per resident partition.
class PhysicalHashJoin : public PhysicalOperator {
 public:
  /// `left_keys[i]` (over the left schema) must equal `right_keys[i]`
  /// (over the right schema) for a match; the planner guarantees matching
  /// key types. `residual` (over left ⊕ right) further filters matches.
  PhysicalHashJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                   std::vector<ExprPtr> left_keys,
                   std::vector<ExprPtr> right_keys, ExprPtr residual,
                   PhysicalJoinKind kind, ExecContext* context);

  Status OpenImpl() override;
  Status NextImpl(Chunk* chunk, bool* done) override;
  std::string name() const override { return "HashJoin"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {left_.get(), right_.get()};
  }

  /// Joins one probe chunk against the built table. Thread-safe once
  /// Open() returned; used by both the serial Next() loop and parallel
  /// morsel workers. `*out` may come back empty.
  Status ProbeChunk(const Chunk& probe, Chunk* out, ExecStats* stats) const;

  PhysicalOperator* probe_child() const { return left_.get(); }
  PhysicalOperator* build_child() const { return right_.get(); }
  PhysicalJoinKind kind() const { return kind_; }
  const std::vector<ExprPtr>& left_keys() const { return left_keys_; }

  /// The filter over the build keys, filled by Open() before the probe
  /// child opens. The pointer is stable for the join's lifetime.
  const JoinKeyFilter* build_filter() const { return &filter_; }
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
  /// Evaluates build keys, precomputes row hashes, and fills the
  /// partitioned table (in parallel when a pool is available).
  Status BuildTable();

  // --- budgeted (spill-capable) execution -------------------------------
  //
  // Build rows are partitioned by `hash % P`; when the query tracker
  // crosses its budget the largest resident partition is written to a
  // temp file. Probe rows of spilled partitions divert to per-partition
  // files tagged with their global probe-row index; everything else joins
  // immediately into a spooled "immediate" stream. Each spilled partition
  // is then reloaded alone, probed from its file, and its output spooled.
  // NextImpl k-way-merges the streams by probe-row index, which restores
  // exactly the order the in-memory path emits — output is byte-identical
  // regardless of which partitions spilled. See DESIGN.md.

  /// One hash partition of the build side. While resident, rows sit in
  /// `buffered` chunks (right columns + a trailing int64 hash column);
  /// once spilled they live in `build_file` in the same layout.
  struct SpillPartition {
    std::vector<Chunk> buffered;
    size_t rows = 0;        // resident row count (0 once spilled)
    size_t bytes = 0;       // resident bytes while buffered
    size_t base = 0;        // offset into the resident concatenation
    bool spilled = false;
    std::unique_ptr<JoinHashTable> table;  // resident partitions only
    BloomFilter bloom;                     // over the resident rows
    std::unique_ptr<SpillFile> build_file;
    std::unique_ptr<SpillFile> probe_file;  // diverted probe rows (+index)
    std::unique_ptr<SpillFile> out_file;    // deferred join output (+index)
  };

  /// Cursor over one spooled output stream during the k-way merge.
  struct MergeStream {
    SpillFile* file = nullptr;
    Chunk chunk;
    size_t row = 0;
    bool exhausted = false;
  };

  Status OpenSpill();
  /// Largest resident partition, or SIZE_MAX when none remains.
  size_t PickVictim() const;
  /// Drain-phase shedding: flushes the victim's buffered chunks to disk.
  Status SpillBufferedVictim();
  /// Concatenates resident partitions, sheds further victims while over
  /// budget, and builds one hash table per surviving partition.
  Status PrepareResident();
  Status SpillResidentVictim(size_t victim);
  Status ReconcatResident();
  /// Probes one chunk against the resident partition tables. With spilled
  /// partitions present, appends a global-row-index column to `*out` and
  /// diverts rows of spilled partitions to their probe files.
  Status ProbePartitionedChunk(const Chunk& probe, int64_t base_idx,
                               Chunk* out, ExecStats* stats);
  Status DrainProbeToStreams();
  Status ProcessDeferredPartition(SpillPartition* part);
  Status AdvanceStream(MergeStream* s);
  Status EmitMerged(Chunk* chunk, bool* done);

  bool spill_mode_ = false;
  bool any_spilled_ = false;
  std::vector<SpillPartition> parts_;
  Chunk resident_data_;  // concatenation of resident partitions
  std::vector<ColumnVector> resident_keys_;
  std::vector<uint64_t> resident_hashes_;
  std::vector<uint8_t> resident_valid_;  // all ones (NULL keys dropped)
  std::unique_ptr<SpillFile> immediate_file_;
  std::vector<MergeStream> merge_;

  PhysicalOpPtr left_;
  PhysicalOpPtr right_;
  std::vector<ExprPtr> left_keys_;
  std::vector<ExprPtr> right_keys_;
  ExprPtr residual_;
  PhysicalJoinKind kind_;
  int build_phase_id_ = -1;
  int probe_phase_id_ = -1;

  Chunk build_data_;                      // materialized right side
  std::vector<ColumnVector> build_keys_;  // evaluated right key columns
  std::vector<uint64_t> build_hashes_;    // per-row combined key hash
  std::vector<uint8_t> build_valid_;      // 0 = some key was NULL
  JoinHashTable table_;
  JoinKeyFilter filter_;
  bool filter_pushed_ = false;  // the probe-side scan applies filter_
  bool probe_done_ = false;
};

/// Nested-loop join: materializes the right child and pairs every probe
/// row with every build row, evaluating `condition` (if any). Used for
/// cross joins and non-equi conditions — and as the deliberately naive
/// baseline when the optimizer is disabled (experiment E4).
class PhysicalNestedLoopJoin : public PhysicalOperator {
 public:
  PhysicalNestedLoopJoin(PhysicalOpPtr left, PhysicalOpPtr right,
                         ExprPtr condition, PhysicalJoinKind kind,
                         ExecContext* context);

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

  Chunk build_data_;
  bool probe_done_ = false;
};

}  // namespace agora

#endif  // AGORA_EXEC_JOIN_H_
