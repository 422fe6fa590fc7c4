#ifndef AGORA_EXEC_AGGREGATE_H_
#define AGORA_EXEC_AGGREGATE_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/hash_table.h"
#include "exec/physical_op.h"
#include "expr/expr.h"
#include "expr/expr_rewrite.h"
#include "plan/logical_plan.h"
#include "storage/spill.h"

namespace agora {

/// Blocking hash aggregation. Consumes the whole child in Open(), then
/// streams result groups. Output schema: [group keys..., aggregates...].
/// With no group keys, emits exactly one row (SQL scalar-aggregate rule).
///
/// Grouping runs through a GroupKeyTable (exec/hash_table.h): keys are
/// hashed and verified column-at-a-time and live columnar inside the
/// table, so the per-row work is a vectorized lookup plus fixed-width
/// accumulator updates — no per-row key strings, Values, or map nodes.
/// Accumulators are a flat group-major AggState array; only string
/// MIN/MAX keeps a side vector of strings.
///
/// When the child is an eligible morsel pipeline (see exec/parallel.h) and
/// no aggregate is DISTINCT, Open() accumulates in parallel: each morsel
/// gets its own partial table (written by exactly one worker, no locks),
/// and the partials are merged in morsel-index order. That fixes both the
/// group output order (first appearance in table order) and the
/// floating-point addition tree, so results are byte-identical at every
/// worker count. DISTINCT aggregates cannot merge partial dedup sets
/// exactly, so they stay on the serial pull path (the planner parallelizes
/// their input through a Gather exchange instead); their dedup runs over
/// per-aggregate GroupKeyTables keyed on (group id, argument) instead of
/// per-row key-string sets.
///
/// Two shortcuts keep the per-row cost down without changing a byte:
///  * Shared inputs. The aggregate arguments are evaluated as one
///    SharedEvalPlan per chunk, so each distinct argument and each
///    shared subexpression (Q1's `l_extendedprice * (1 - l_discount)`)
///    is computed once, and an AVG(x) next to a SUM(x) reads the SUM's
///    accumulator (the two fold identical fields in identical order).
///  * Direct-indexed group ids. When every key of a chunk is a dictionary
///    column or a BIGINT/DATE column and the combined slot space is
///    small, the combined slot indexes a per-table array of group ids;
///    only the first row of each slot goes through
///    GroupKeyTable::FindOrCreate, so group ids, stored keys and hashes
///    stay exactly as the hash path makes them, and merge and spill are
///    unchanged. An integer key's span of values is fixed by the first
///    chunk that fits; a chunk with a value outside it takes the hash
///    path, and so does every later chunk of that table. A literal key
///    arrives flattened and is an integer key of span 1.
class PhysicalHashAggregate : public PhysicalOperator {
 public:
  PhysicalHashAggregate(PhysicalOpPtr child, std::vector<ExprPtr> group_by,
                        std::vector<AggregateSpec> aggregates, Schema schema,
                        ExecContext* context);

  Status OpenImpl() override;
  Status NextImpl(Chunk* chunk, bool* done) override;
  std::string name() const override { return "HashAggregate"; }
  std::vector<const PhysicalOperator*> children() const override {
    return {child_.get()};
  }

 private:
  /// Fixed-width accumulator for one (group, aggregate) pair.
  struct AggState {
    int64_t count = 0;       // COUNT / AVG / STDDEV denominator
    double sum_d = 0;        // SUM/AVG accumulator (double path)
    double sum_sq = 0;       // STDDEV/VARIANCE accumulator
    int64_t sum_i = 0;       // SUM accumulator (int64 path), mod 2^64
    int64_t sum_wraps = 0;   // sum_i's wraps past the int64 range
    int64_t minmax_i = 0;    // running MIN/MAX (int-family args)
    double minmax_d = 0;     // running MIN/MAX (double args)
    bool has_value = false;  // any non-null input seen
  };

  /// How one group key maps to its direct-indexed slot: 0 for NULL,
  /// else code + 1 for a dictionary key over `dict`'s dictionary, or
  /// value - base + 1 (in uint64) for a BIGINT/DATE key whose value lies
  /// in [base, base + values).
  struct DirectKey {
    ColumnVector dict;  // dictionary keys: empty, sharing the dictionary
    int64_t base = 0;
    uint64_t values = 0;  // integer keys: slots other than NULL's
    uint32_t stride = 0;
  };

  /// One aggregation table: the key table plus group-major accumulators
  /// (`states[g * num_aggs + a]`). Per-morsel partials and the global
  /// table share this shape, so merging is a FindOrCreate over the
  /// partial's stored key columns.
  struct AggTable {
    GroupKeyTable keys;
    std::vector<AggState> states;
    /// Running MIN/MAX per group for string-typed aggregates (indexed
    /// [agg][group]; unused aggregates stay empty).
    std::vector<std::vector<std::string>> minmax_strings;
    /// DISTINCT dedup tables keyed on (group id, argument value); only
    /// allocated for DISTINCT aggregates (serial path only).
    std::vector<std::unique_ptr<GroupKeyTable>> distinct;
    /// Direct-indexed group ids, set up by the first chunk whose keys
    /// all fit (see DirectKey) in kMaxDirectGroupSlots combined slots:
    /// per key its slot rule, and group id + 1 per combined slot (0 = no
    /// group yet). The combined slot of a row is the sum over keys of
    /// the key's slot times its stride.
    std::vector<DirectKey> direct_keys;
    std::vector<uint32_t> direct_gids;
    /// Set once an integer key falls outside its span: the keys are
    /// clustered or wider than the first chunk showed, so later chunks
    /// would mostly fill slots only to hash anyway. The table hashes from
    /// then on.
    bool direct_off = false;
    // Scratch reused across chunks.
    std::vector<uint64_t> hash_scratch;
    std::vector<uint32_t> gid_scratch;
    std::vector<uint8_t> created_scratch;
    std::vector<uint32_t> slot_scratch;
    std::vector<uint32_t> order_scratch;
    std::vector<uint32_t> run_scratch;
    std::vector<uint32_t> gid_cursor_scratch;
  };

  /// Most combined slots a direct-indexed group-id array may have: 1 KiB
  /// of group ids per table, which stays in L1. It equals kMaxGroupRuns,
  /// so a table the array serves alone also folds group by group.
  static constexpr size_t kMaxDirectGroupSlots = 256;
  /// Most groups a table may have for its accumulators to fold one
  /// group's rows at a time (see ApplyAccumulators). Measured on SF 0.1
  /// lineitem, one thread of a Xeon VM, grouping by l_orderkey % G with
  /// four aggregates (best of 31 runs): the group-by-group fold beats the
  /// per-row fold by 10-20% at 4 to 64 groups and by 3-4% at 128 and 256,
  /// and loses 2-7% from 512 groups on.
  static constexpr size_t kMaxGroupRuns = 256;

  /// Accumulates one chunk into `table`. Side-effect free apart from its
  /// out-params, so parallel workers can run it on disjoint tables
  /// concurrently.
  Status AccumulateInto(const Chunk& input, AggTable* table,
                        ExecStats* stats) const;
  /// Evaluates every aggregate argument over `input` through
  /// `arg_plan_` (entries of COUNT(*) stay empty).
  Status EvalArgs(const Chunk& input,
                  std::vector<ColumnVector>* arg_cols) const;
  /// Resolves rows [0, rows) to group ids in `table->gid_scratch` through
  /// the direct-indexed array. Returns false, creating no group, when
  /// some key is constant or neither a dictionary column over the
  /// table's cached dictionary nor an integer column inside its span, or
  /// the combined slot space is too large; the hash path runs then.
  bool DirectGroupIds(const std::vector<ColumnVector>& key_cols, size_t rows,
                      AggTable* table, HashTableStats* ht) const;
  /// The columnar accumulator kernels: applies rows [0, n) of the already-
  /// evaluated argument columns to `table` under the given group ids.
  /// Shared by the global, per-morsel, and per-spill-partition paths.
  Status ApplyAccumulators(const std::vector<ColumnVector>& arg_cols,
                           const uint32_t* gids, size_t rows, AggTable* table,
                           ExecStats* stats) const;
  /// Stable counting sort of rows [0, rows) by group id into
  /// `table->order_scratch`, with group g's rows at positions
  /// [run_scratch[g], run_scratch[g + 1]).
  static void SortRowsByGroup(const uint32_t* gids, size_t rows,
                              size_t num_groups, AggTable* table);
  /// Applies one row of aggregate `a` to `state` (post NULL/distinct
  /// gating) — the row-at-a-time mirror of the columnar kernels, used by
  /// the DISTINCT path.
  void ApplyRow(const AggregateSpec& spec, const ColumnVector& arg,
                size_t row, AggState* state, std::string* minmax_str) const;
  /// Folds one morsel's partial into `groups_`, preserving the partial's
  /// first-appearance order for groups not seen before.
  void MergePartial(AggTable&& partial);
  void MergeAggStates(const AggTable& src, size_t src_gid, size_t dst_gid);
  /// Appends groups [begin, begin + count) of `table` to `out`: each key
  /// column as one range append, each aggregate in one typed pass.
  /// Returns OutOfRange when a BIGINT SUM's total does not fit BIGINT.
  Status FinalizeInto(const AggTable& table, size_t begin, size_t count,
                      Chunk* out) const;

  // --- budgeted (spill-capable) execution -------------------------------
  //
  // Groups partition by `group_hash % P`, one AggTable per partition, and
  // every group remembers the global input-row index that created it.
  // When the tracker crosses its budget the largest partition's state is
  // snapshotted to a temp file (stored keys + raw AggState blob) and its
  // later rows append to the same file as [keys, args, hash, index]
  // chunks. After the drain each spilled partition is reloaded alone and
  // the logged rows replay in arrival order — the per-group accumulation
  // sequence (and thus every float sum and MIN/MAX tie-break) is
  // identical to the in-memory path. Finalized groups merge across
  // partitions by first-appearance index, restoring the exact global
  // emission order. See DESIGN.md "Memory governance".

  /// One group-hash partition of the aggregation state.
  struct AggPartition {
    AggTable table;
    std::vector<int64_t> first_idx;  // global row that created group g
    bool spilled = false;
    std::unique_ptr<SpillFile> file;      // snapshot + row replay log
    std::unique_ptr<SpillFile> out_file;  // finalized groups (+index)
    std::vector<Chunk> finalized;         // resident partitions
  };

  /// Cursor over one finalized stream (in-memory or spooled) during the
  /// first-appearance k-way merge.
  struct AggStream {
    std::vector<Chunk> mem;
    size_t mem_pos = 0;
    SpillFile* file = nullptr;
    Chunk chunk;
    size_t row = 0;
    bool exhausted = false;
  };

  Status OpenSpill();
  Status AccumulatePartitioned(const Chunk& input, int64_t base_idx);
  /// Snapshots the largest resident partition to disk and frees it.
  Status SpillAggVictim();
  Status ReloadAndReplay(AggPartition* part, AggTable* table,
                         std::vector<int64_t>* first_idx);
  Status FinalizePartition(const AggTable& table,
                           const std::vector<int64_t>& first_idx,
                           AggPartition* part, bool to_disk);
  Status AdvanceAggStream(AggStream* s);
  Status EmitMerged(Chunk* chunk, bool* done);

  PhysicalOpPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggregateSpec> aggregates_;
  /// The aggregate arguments as one shared evaluation over the child's
  /// columns.
  SharedEvalPlan arg_plan_;
  /// Per aggregate, the aggregate whose AggState holds its accumulator:
  /// itself, or for an AVG the SUM over the same argument.
  std::vector<size_t> acc_of_;

  AggTable groups_;
  bool scalar_default_group_ = false;  // zero-input scalar aggregation
  size_t num_groups_ = 0;
  size_t next_group_ = 0;

  bool spill_mode_ = false;
  std::vector<AggPartition> parts_;
  std::vector<AggStream> streams_;
};

}  // namespace agora

#endif  // AGORA_EXEC_AGGREGATE_H_
