#ifndef AGORA_EXEC_AGGREGATE_H_
#define AGORA_EXEC_AGGREGATE_H_

#include <memory>
#include <string>
#include <vector>

#include "exec/hash_table.h"
#include "exec/physical_op.h"
#include "exec/spill_util.h"
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
/// MIN/MAX keeps a side vector of strings. Every row reaches a table
/// through one routine, Fold, over keys and arguments Evaluate computed:
/// the in-memory table, morsel partials, a budgeted run's resident and
/// replayed rows, and DISTINCT's first occurrences alike.
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
/// per-aggregate GroupKeyTables keyed on (group id, argument), and the
/// first occurrences fold through the same kernels as every other row.
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
    /// Budgeted runs only: per group, the index of the input row that
    /// created it, counted over the child's whole output.
    std::vector<int64_t> first_rows;
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

  /// One chunk's evaluated group keys and aggregate arguments. The
  /// argument of COUNT(*), and of an AVG that reads a SUM's accumulator,
  /// stays empty (see FoldsArg).
  struct AggInput {
    std::vector<ColumnVector> keys;
    std::vector<ColumnVector> args;
    size_t rows = 0;
  };

  /// True when aggregate `a` folds an argument column of its own.
  bool FoldsArg(size_t a) const {
    return arg_plan_.columns[a] != SIZE_MAX && acc_of_[a] == a;
  }
  /// Evaluates the group keys and, through `arg_plan_`, the aggregate
  /// arguments over `input`.
  Status Evaluate(const Chunk& input, AggInput* in) const;
  /// Folds the rows of `in` into `table`: resolves them to group ids
  /// (direct-indexed or hashed), creating unseen groups in row order,
  /// then applies the accumulators. With `row_ids`, every group created
  /// records row_ids[r] of its first row r in `table->first_rows`.
  /// Side-effect free apart from its out-params, so parallel workers can
  /// run it on disjoint tables concurrently.
  Status Fold(const AggInput& in, const int64_t* row_ids, AggTable* table,
              ExecStats* stats) const;
  /// Resolves rows [0, rows) to group ids in `table->gid_scratch` through
  /// the direct-indexed array. Returns false, creating no group, when
  /// some key is constant or neither a dictionary column over the
  /// table's cached dictionary nor an integer column inside its span, or
  /// the combined slot space is too large; the hash path runs then.
  bool DirectGroupIds(const std::vector<ColumnVector>& key_cols, size_t rows,
                      AggTable* table, HashTableStats* ht) const;
  /// The columnar accumulator kernels: applies rows [0, n) of the already-
  /// evaluated argument columns to `table` under the given group ids. A
  /// DISTINCT aggregate applies only the rows whose (group, argument) it
  /// has not seen before.
  Status ApplyAccumulators(const std::vector<ColumnVector>& arg_cols,
                           const uint32_t* gids, size_t rows, AggTable* table,
                           ExecStats* stats) const;
  /// Stable counting sort of rows [0, rows) by group id into
  /// `table->order_scratch`, with group g's rows at positions
  /// [run_scratch[g], run_scratch[g + 1]).
  static void SortRowsByGroup(const uint32_t* gids, size_t rows,
                              size_t num_groups, AggTable* table);
  /// Folds `partial` into `*dst`, preserving the partial's first-
  /// appearance order for groups not seen before.
  void MergePartial(AggTable&& partial, AggTable* dst);
  void MergeAggStates(const AggTable& src, size_t src_gid, AggTable* dst,
                      size_t dst_gid) const;
  /// Appends groups [begin, begin + count) of `table` to `out`: each key
  /// column as one range append, each aggregate in one typed pass.
  /// Returns OutOfRange when a BIGINT SUM's total does not fit BIGINT.
  Status FinalizeInto(const AggTable& table, size_t begin, size_t count,
                      Chunk* out) const;

  // --- budgeted (spill-capable) execution -------------------------------
  //
  // A budgeted grouped aggregate holds the in-memory state: `groups_`
  // and, when the child is a morsel pipeline, `partial_`, the current
  // morsel's partial. Morsels run one at a time in morsel order on the
  // calling thread and merge into `groups_` through MergePartial, as the
  // parallel path merges them, so floating-point sums see the same
  // addition tree. Every group also records the input row that created
  // it (AggTable::first_rows). When the tracker crosses its budget the
  // partition `group_hash % P` with the most resident groups is shed:
  // its groups leave both tables as slices (keys, first rows, string
  // MIN/MAX, then the raw AggStates) written to a temp file, and both
  // tables are rebuilt over the rest. The partition's later rows append
  // to the same file as [keys, args, row id, morsel] chunks. If nothing
  // spilled, Open() finalizes `groups_` into output chunks and frees the
  // table, which NextImpl then hands out in order. Otherwise each
  // spilled partition is reloaded alone: its tables are built from the
  // slices, the logged rows fold into the partial, which merges at each
  // morsel boundary, and the finalized groups spool to a file tagged
  // with their first rows, like the resident groups'. NextImpl merges
  // the files by first row, which is the in-memory emission order. See
  // DESIGN.md "Memory governance".

  /// One group-hash partition. Once spilled, its file holds its slices,
  /// then its logged rows.
  struct AggPartition {
    bool spilled = false;
    int64_t unit = 0;  // morsel of the partial slice
    std::unique_ptr<SpillFile> file;
  };

  /// Folds one input chunk of a budgeted run: rows of spilled partitions
  /// go to their logs, the rest into the resident fold target; then
  /// sheds partitions while the query is over budget.
  Status FoldBudgeted(const Chunk& input, ExecStats* stats);
  /// Sheds the largest resident partition until the query is under
  /// budget or nothing resident is left.
  Status ShedWhileOverBudget(ExecStats* stats);
  /// The resident partition with the most groups, or SIZE_MAX.
  size_t PickVictim() const;
  /// Writes partition `p`'s slices of `groups_` and `partial_` to its
  /// file and rebuilds both tables over the other partitions.
  Status Shed(size_t p, ExecStats* stats);
  /// Groups `gids` of `table` as a slice: [keys..., first row, string
  /// MIN/MAX...] plus their AggStates.
  Chunk SliceOf(const AggTable& table, const std::vector<uint32_t>& gids,
                std::vector<AggState>* states) const;
  /// Builds `*table` afresh from a slice, groups in slice order.
  void LoadSlice(const Chunk& slice, std::vector<AggState> states,
                 AggTable* table) const;
  /// Rebuilds a spilled partition's groups from its file.
  Status ReloadPartition(AggPartition* part, AggTable* table);
  /// Finalizes `table` to a new file in first-row order, each row tagged
  /// with its group's first row, and books the table's counters.
  Status SpoolFinalized(const AggTable& table);

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
  size_t num_groups_ = 0;
  size_t next_group_ = 0;

  bool spill_mode_ = false;
  bool morsel_partials_ = false;  // budgeted: fold per morsel into partial_
  bool any_spilled_ = false;
  AggTable partial_;
  int64_t unit_ = 0;      // morsel index of partial_
  int64_t next_row_ = 0;  // input rows folded or logged so far
  std::vector<AggPartition> parts_;
  std::vector<Chunk> finalized_;  // a budgeted run that spilled nothing
  std::vector<std::unique_ptr<SpillFile>> spooled_;
  SpillMerge merge_;
};

}  // namespace agora

#endif  // AGORA_EXEC_AGGREGATE_H_
