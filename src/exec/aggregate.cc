#include "exec/aggregate.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <utility>

#include "common/hash.h"
#include "exec/parallel.h"
#include "exec/spill_util.h"

namespace agora {

namespace {

/// *sum += v, wrapping modulo 2^64. Returns the wrap: +1 when the true
/// sum exceeded INT64_MAX, -1 when it fell below INT64_MIN, else 0, so a
/// BIGINT SUM is exactly sum_i + sum_wraps * 2^64 in any addition order.
int64_t AddWrapping(int64_t* sum, int64_t v) {
  const bool wrapped = __builtin_add_overflow(*sum, v, sum);
  return wrapped ? (v < 0 ? -1 : 1) : 0;
}

/// The least and greatest valid value among rows [0, n) of an integer
/// column. Returns false when none of the rows is valid.
bool ValidMinMax(const ColumnVector& col, size_t n, int64_t* lo,
                 int64_t* hi) {
  const int64_t* x = col.int64_data();
  const uint8_t* valid = col.validity_data();
  int64_t mn = std::numeric_limits<int64_t>::max();
  int64_t mx = std::numeric_limits<int64_t>::min();
  size_t count = 0;
  for (size_t r = 0; r < n; ++r) {
    const bool ok = valid[r] != 0;
    mn = ok && x[r] < mn ? x[r] : mn;
    mx = ok && x[r] > mx ? x[r] : mx;
    count += ok;
  }
  *lo = mn;
  *hi = mx;
  return count != 0;
}

/// True for MIN/MAX over strings, which keep their running value in
/// AggTable::minmax_strings.
bool IsStringMinMax(const AggregateSpec& spec) {
  return spec.result_type == TypeId::kString &&
         (spec.func == AggFunc::kMin || spec.func == AggFunc::kMax);
}

}  // namespace

PhysicalHashAggregate::PhysicalHashAggregate(
    PhysicalOpPtr child, std::vector<ExprPtr> group_by,
    std::vector<AggregateSpec> aggregates, Schema schema,
    ExecContext* context)
    : PhysicalOperator(std::move(schema), context),
      child_(std::move(child)),
      group_by_(std::move(group_by)),
      aggregates_(std::move(aggregates)) {
  bool has_distinct = false;
  for (const AggregateSpec& spec : aggregates_) {
    has_distinct = has_distinct || spec.distinct;
  }
  // Budgeted grouped aggregation takes the spill-capable path. Scalar
  // aggregation holds O(1) state (nothing to spill) and DISTINCT dedup
  // sets cannot be partially spilled exactly; both stay on the in-memory
  // path, failing gracefully via the per-chunk budget checks instead.
  // Like the join, the decision depends only on the budget configuration,
  // never on worker count or data.
  spill_mode_ = context != nullptr && context->spill != nullptr &&
                context->memory_limited() && !group_by_.empty() &&
                !has_distinct;

  std::vector<ExprPtr> args;
  args.reserve(aggregates_.size());
  for (const AggregateSpec& spec : aggregates_) args.push_back(spec.arg);
  arg_plan_ = PlanSharedEvaluation(args, child_->schema().num_fields());
  acc_of_.resize(aggregates_.size());
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    acc_of_[a] = a;
    const AggregateSpec& spec = aggregates_[a];
    if (spec.func != AggFunc::kAvg || spec.distinct) continue;
    for (size_t b = 0; b < aggregates_.size(); ++b) {
      if (aggregates_[b].func == AggFunc::kSum && !aggregates_[b].distinct &&
          arg_plan_.columns[b] == arg_plan_.columns[a]) {
        acc_of_[a] = b;
        break;
      }
    }
  }
}

Status PhysicalHashAggregate::OpenImpl() {
  groups_ = AggTable{};
  partial_ = AggTable{};
  num_groups_ = 0;
  next_group_ = 0;
  finalized_.clear();
  any_spilled_ = false;
  unit_ = 0;
  next_row_ = 0;
  parts_.clear();
  spooled_.clear();
  if (spill_mode_) {
    parts_.resize(std::max<size_t>(1, context_->spill_partitions));
  }

  bool has_distinct = false;
  for (const AggregateSpec& spec : aggregates_) {
    has_distinct = has_distinct || spec.distinct;
  }
  MorselPipeline pipeline;
  const bool morsels =
      !has_distinct && ParallelEligible(child_.get(), *context_, &pipeline);
  morsel_partials_ = spill_mode_ && morsels;
  AGORA_RETURN_IF_ERROR(child_->Open());
  if (morsels && !spill_mode_) {
    // Parallel accumulate: one partial table per morsel (single-writer),
    // merged below in morsel order — worker count never changes results.
    std::vector<AggTable> partials(pipeline.source()->MorselCount());
    AGORA_RETURN_IF_ERROR(DriveMorselPipeline(
        pipeline, context_,
        [this, &partials](int worker, const Morsel& morsel,
                          Chunk&& chunk) -> Status {
          ExecStats* stats =
              &context_->worker_stats[static_cast<size_t>(worker)];
          // Attribute accumulation to this aggregate (nests under the
          // worker's scan span and subtracts itself from it).
          MetricSpan span = StatsSpan(stats, op_id());
          AggInput in;
          AGORA_RETURN_IF_ERROR(Evaluate(chunk, &in));
          return Fold(in, nullptr, &partials[morsel.index], stats);
        }));
    for (AggTable& partial : partials) {
      MergePartial(std::move(partial), &groups_);
    }
  } else if (morsels) {
    // Budgeted: the same partials, one morsel at a time in morsel order
    // on this thread, so shedding can act between any two chunks.
    AGORA_RETURN_IF_ERROR(DriveMorselPipeline(
        pipeline, context_,
        [this](int worker, const Morsel& morsel, Chunk&& chunk) -> Status {
          ExecStats* stats =
              &context_->worker_stats[static_cast<size_t>(worker)];
          MetricSpan span = StatsSpan(stats, op_id());
          const auto unit = static_cast<int64_t>(morsel.index);
          if (unit != unit_) {
            MergePartial(std::move(partial_), &groups_);
            partial_ = AggTable{};
            unit_ = unit;
          }
          return FoldBudgeted(chunk, stats);
        },
        /*in_order=*/true));
    MergePartial(std::move(partial_), &groups_);
    partial_ = AggTable{};
    AGORA_RETURN_IF_ERROR(ShedWhileOverBudget(&context_->stats));
  } else {
    bool done = false;
    while (!done) {
      Chunk input;
      AGORA_RETURN_IF_ERROR(child_->Next(&input, &done));
      if (spill_mode_) {
        if (input.num_rows() > 0) {
          AGORA_RETURN_IF_ERROR(FoldBudgeted(input, &context_->stats));
        }
        continue;
      }
      // The in-memory table can only grow; fail gracefully at chunk
      // granularity when a budget is set (DISTINCT/scalar paths).
      AGORA_RETURN_IF_ERROR(context_->CheckMemoryBudget("HashAggregate"));
      if (input.num_rows() > 0) {
        AggInput in;
        AGORA_RETURN_IF_ERROR(Evaluate(input, &in));
        AGORA_RETURN_IF_ERROR(Fold(in, nullptr, &groups_, &context_->stats));
      }
    }
  }

  if (any_spilled_) {
    // Spool the resident groups first (freeing their table), then reload
    // the spilled partitions one at a time into the freed headroom; the
    // merge in NextImpl restores first-appearance order across the files.
    if (groups_.keys.group_count() > 0) {
      AGORA_RETURN_IF_ERROR(SpoolFinalized(groups_));
    }
    groups_ = AggTable{};
    for (AggPartition& part : parts_) {
      if (!part.spilled) continue;
      AggTable table;
      AGORA_RETURN_IF_ERROR(ReloadPartition(&part, &table));
      AGORA_RETURN_IF_ERROR(SpoolFinalized(table));
    }
    std::vector<SpillFile*> files;
    for (const std::unique_ptr<SpillFile>& file : spooled_) {
      files.push_back(file.get());
    }
    return merge_.Open(files, &context_->stats);
  }

  num_groups_ = groups_.keys.group_count();
  // Scalar aggregation always yields one group.
  if (group_by_.empty() && num_groups_ == 0) {
    num_groups_ = 1;
    groups_.states.assign(aggregates_.size(), AggState{});
    groups_.minmax_strings.assign(aggregates_.size(), {});
    for (std::vector<std::string>& ms : groups_.minmax_strings) {
      ms.assign(1, std::string());
    }
  }
  context_->stats.hash_table_entries +=
      static_cast<int64_t>(groups_.keys.group_count());
  context_->stats.hash_table_slots +=
      static_cast<int64_t>(groups_.keys.slot_count());
  if (spill_mode_) {
    // Keep only the output, as a run that spilled keeps only its files:
    // the operators above get the headroom the table held.
    for (size_t start = 0; start < num_groups_; start += kChunkSize) {
      finalized_.emplace_back(schema_);
      AGORA_RETURN_IF_ERROR(FinalizeInto(
          groups_, start, std::min(kChunkSize, num_groups_ - start),
          &finalized_.back()));
    }
    groups_ = AggTable{};
  }
  return Status::OK();
}

Status PhysicalHashAggregate::Evaluate(const Chunk& input,
                                       AggInput* in) const {
  if (input.num_columns() != child_->schema().num_fields()) {
    return Status::Internal("HashAggregate input has " +
                            std::to_string(input.num_columns()) +
                            " columns, expected " +
                            std::to_string(child_->schema().num_fields()));
  }
  in->rows = input.num_rows();
  in->keys.assign(group_by_.size(), ColumnVector());
  for (size_t g = 0; g < group_by_.size(); ++g) {
    AGORA_RETURN_IF_ERROR(group_by_[g]->Evaluate(input, &in->keys[g]));
  }
  // Each step reads the input plus the steps before it, so a shared
  // subexpression is one column evaluated once.
  Chunk ext = input;
  for (const ExprPtr& step : arg_plan_.steps) {
    ColumnVector col;
    AGORA_RETURN_IF_ERROR(step->Evaluate(ext, &col));
    ext.AddColumn(std::move(col));
  }
  in->args.assign(aggregates_.size(), ColumnVector());
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    if (!FoldsArg(a)) continue;
    ColumnVector& col = in->args[a];
    col = ext.column(arg_plan_.columns[a]);
    col.FlattenConstant();
  }
  return Status::OK();
}

Status PhysicalHashAggregate::Fold(const AggInput& in,
                                   const int64_t* row_ids, AggTable* table,
                                   ExecStats* stats) const {
  const size_t rows = in.rows;
  const size_t num_aggs = aggregates_.size();
  stats->rows_aggregated += static_cast<int64_t>(rows);
  if (table->minmax_strings.size() != num_aggs) {
    table->minmax_strings.resize(num_aggs);
    table->distinct.resize(num_aggs);
  }

  const size_t groups_before = table->keys.group_count();
  HashTableStats ht;
  if (group_by_.empty()) {
    // Scalar aggregation: one group, no per-row lookups. One
    // FindOrCreate call registers the (empty-key) group on first use.
    uint64_t h = kHashTableSalt;
    uint32_t gid;
    uint8_t created;
    table->keys.FindOrCreate(in.keys, &h, 1, &gid, &created, &ht);
    table->gid_scratch.assign(rows, 0);
  } else if (!DirectGroupIds(in.keys, rows, table, &ht)) {
    // Resolve every row to a dense group id in one vectorized pass.
    table->hash_scratch.assign(rows, kHashTableSalt);
    for (const ColumnVector& col : in.keys) {
      col.HashBatch(table->hash_scratch.data(), rows, /*combine=*/true);
    }
    table->gid_scratch.resize(rows);
    table->created_scratch.resize(rows);
    table->keys.FindOrCreate(in.keys, table->hash_scratch.data(), rows,
                             table->gid_scratch.data(),
                             table->created_scratch.data(), &ht);
  }
  stats->hash_table_lookups += ht.lookups;
  stats->hash_table_probe_steps += ht.probe_steps;
  const size_t groups_after = table->keys.group_count();
  if (row_ids != nullptr) {
    // Groups are created in row order, so the first row of each new
    // group comes after the first row of the group created before it.
    const uint32_t* gids = table->gid_scratch.data();
    auto next = static_cast<uint32_t>(groups_before);
    for (size_t r = 0; next < groups_after; ++r) {
      if (gids[r] == next) {
        table->first_rows.push_back(row_ids[r]);
        ++next;
      }
    }
  }
  table->states.resize(groups_after * num_aggs);
  return ApplyAccumulators(in.args, table->gid_scratch.data(), rows, table,
                           stats);
}

bool PhysicalHashAggregate::DirectGroupIds(
    const std::vector<ColumnVector>& key_cols, size_t rows, AggTable* table,
    HashTableStats* ht) const {
  if (table->direct_off) return false;
  for (const ColumnVector& col : key_cols) {
    // Keys arrive flat from Expr::Evaluate (a literal key too); a
    // constant column would hold one physical row, not `rows`.
    if (col.is_constant() ||
        (!col.is_dictionary() && col.type() != TypeId::kInt64 &&
         col.type() != TypeId::kDate)) {
      return false;
    }
  }
  const size_t num_keys = key_cols.size();
  if (table->direct_keys.empty()) {
    // Fix each key's slots from this chunk: a dictionary's entries, an
    // integer key's span between its least and greatest valid value.
    std::vector<DirectKey> keys(num_keys);
    uint64_t slots = 1;
    for (size_t k = 0; k < num_keys; ++k) {
      const ColumnVector& col = key_cols[k];
      DirectKey& key = keys[k];
      key.stride = static_cast<uint32_t>(slots);
      if (col.is_dictionary()) {
        key.dict = col.EmptyLike();
        slots *= col.dictionary().size() + 1;
      } else {
        int64_t lo = 0;
        int64_t hi = 0;
        if (!ValidMinMax(col, rows, &lo, &hi)) return false;
        const uint64_t span = static_cast<uint64_t>(hi) -
                              static_cast<uint64_t>(lo);
        if (span >= kMaxDirectGroupSlots) return false;
        key.base = lo;
        key.values = span + 1;
        slots *= key.values + 1;
      }
      if (slots > kMaxDirectGroupSlots) return false;
    }
    table->direct_keys = std::move(keys);
    table->direct_gids.assign(slots, 0);
  }

  // Combined slot per row: the first key writes it, the others add. A
  // key outside the table's cached dictionary or span sends the whole
  // chunk down the hash path; one outside the span, the table too.
  table->slot_scratch.resize(rows);
  uint32_t* slot = table->slot_scratch.data();
  for (size_t k = 0; k < num_keys; ++k) {
    const ColumnVector& col = key_cols[k];
    const DirectKey& key = table->direct_keys[k];
    const uint8_t* valid = col.validity_data();
    const uint32_t stride = key.stride;
    auto fill = [&](const auto& part) {
      if (k == 0) {
        for (size_t r = 0; r < rows; ++r) slot[r] = part(r);
      } else {
        for (size_t r = 0; r < rows; ++r) slot[r] += part(r);
      }
    };
    if (col.is_dictionary()) {
      if (!col.SharesDictionaryWith(key.dict)) return false;
      const uint32_t* codes = col.codes_data();
      fill([&](size_t r) {
        return (codes[r] + 1) * static_cast<uint32_t>(valid[r] != 0) * stride;
      });
    } else {
      const int64_t* x = col.int64_data();
      const auto base = static_cast<uint64_t>(key.base);
      const uint64_t values = key.values;
      uint8_t outside = 0;
      fill([&](size_t r) {
        const uint64_t offset = static_cast<uint64_t>(x[r]) - base;
        const auto ok = static_cast<uint32_t>(valid[r] != 0);
        outside |= static_cast<uint8_t>(ok & (offset >= values));
        return static_cast<uint32_t>(offset + 1) * ok * stride;
      });
      if (outside != 0) {
        table->direct_off = true;
        return false;
      }
    }
  }

  // Group ids straight from the array. The first row of each combined
  // slot without a group is collected instead, and those rows resolve
  // through the key table in row order, exactly as the hash path would.
  constexpr uint32_t kPending = UINT32_MAX;
  uint32_t* direct = table->direct_gids.data();
  table->gid_scratch.resize(rows);
  uint32_t* gids = table->gid_scratch.data();
  std::vector<uint32_t> first_rows;
  for (size_t r = 0; r < rows; ++r) {
    const uint32_t g = direct[slot[r]];
    if (g == 0) {
      direct[slot[r]] = kPending;
      first_rows.push_back(static_cast<uint32_t>(r));
    }
    gids[r] = g - 1;
  }
  if (first_rows.empty()) return true;
  const size_t m = first_rows.size();
  std::vector<ColumnVector> first_keys;
  first_keys.reserve(num_keys);
  for (const ColumnVector& col : key_cols) {
    first_keys.push_back(col.Gather(first_rows));
  }
  std::vector<uint64_t> hashes(m, kHashTableSalt);
  for (const ColumnVector& col : first_keys) {
    col.HashBatch(hashes.data(), m, /*combine=*/true);
  }
  std::vector<uint32_t> new_gids(m);
  std::vector<uint8_t> created(m);
  table->keys.FindOrCreate(first_keys, hashes.data(), m, new_gids.data(),
                           created.data(), ht);
  for (size_t j = 0; j < m; ++j) {
    direct[slot[first_rows[j]]] = new_gids[j] + 1;
  }
  for (size_t r = first_rows.front(); r < rows; ++r) {
    gids[r] = direct[slot[r]] - 1;
  }
  return true;
}

void PhysicalHashAggregate::SortRowsByGroup(const uint32_t* gids,
                                            size_t rows, size_t num_groups,
                                            AggTable* table) {
  std::vector<uint32_t>& run = table->run_scratch;
  run.assign(num_groups + 1, 0);
  for (size_t r = 0; r < rows; ++r) run[gids[r] + 1]++;
  for (size_t g = 0; g < num_groups; ++g) run[g + 1] += run[g];
  std::vector<uint32_t>& cursor = table->gid_cursor_scratch;
  cursor.assign(run.begin(), run.end() - 1);
  uint32_t* order = table->order_scratch.data();
  for (size_t r = 0; r < rows; ++r) {
    order[cursor[gids[r]]++] = static_cast<uint32_t>(r);
  }
}

Status PhysicalHashAggregate::ApplyAccumulators(
    const std::vector<ColumnVector>& arg_cols, const uint32_t* gids,
    size_t rows, AggTable* table, ExecStats* stats) const {
  size_t num_aggs = aggregates_.size();
  size_t num_groups = table->keys.group_count();
  AggState* states = table->states.data();

  // Column-at-a-time accumulator updates: one type-dispatched fold per
  // aggregate, never materializing Values. With few groups, a stable
  // counting sort of the rows by group id (group g's rows are
  // order[run[g]..run[g+1]), in row order) lets each fold take one
  // group's rows at a time and accumulate in registers, so no row's
  // update waits on the store of the row before it; otherwise each row
  // is folded alone. Either way every group sees its rows in input
  // order, so floating-point sums and MIN/MAX tie-breaks are
  // bit-identical.
  const bool by_group = num_groups <= kMaxGroupRuns;
  std::vector<uint32_t>& order = table->order_scratch;
  std::vector<uint32_t>& run = table->run_scratch;
  order.resize(rows);
  if (by_group && num_groups > 1) {
    SortRowsByGroup(gids, rows, num_groups, table);
  } else {
    std::iota(order.begin(), order.end(), 0u);
    run.assign({0, static_cast<uint32_t>(rows)});
  }
  // A DISTINCT aggregate folds only the first occurrences, one by one.
  std::vector<uint32_t> firsts;
  const std::vector<uint32_t>* only = nullptr;
  auto fold_rows = [&](const auto& fold) {
    if (only != nullptr) {
      for (const uint32_t& r : *only) fold(size_t{gids[r]}, &r, &r + 1);
    } else if (by_group) {
      for (size_t g = 0; g + 1 < run.size(); ++g) {
        if (run[g] != run[g + 1]) {
          fold(g, order.data() + run[g], order.data() + run[g + 1]);
        }
      }
    } else {
      for (size_t r = 0; r < rows; ++r) {
        fold(size_t{gids[r]}, order.data() + r, order.data() + r + 1);
      }
    }
  };

  for (size_t a = 0; a < num_aggs; ++a) {
    const AggregateSpec& spec = aggregates_[a];
    if (acc_of_[a] != a) continue;  // reads another aggregate's state
    auto state = [&](size_t g) -> AggState& {
      return states[g * num_aggs + a];
    };
    if (spec.func == AggFunc::kCountStar) {
      fold_rows([&](size_t g, const uint32_t* it, const uint32_t* end) {
        state(g).count += end - it;
      });
      continue;
    }
    const ColumnVector& arg = arg_cols[a];
    const uint8_t* valid = arg.validity_data();
    only = nullptr;
    if (spec.distinct) {
      // DISTINCT: dedup (group id, argument) pairs through a hashed key
      // table — no per-row key strings — and fold the pairs seen first.
      std::vector<uint32_t> sel;
      for (size_t r = 0; r < rows; ++r) {
        if (valid[r] != 0) sel.push_back(static_cast<uint32_t>(r));
      }
      if (sel.empty()) continue;
      std::vector<ColumnVector> dkeys;
      dkeys.emplace_back(TypeId::kInt64);
      dkeys[0].Reserve(sel.size());
      for (uint32_t r : sel) {
        dkeys[0].AppendInt64(static_cast<int64_t>(gids[r]));
      }
      dkeys.push_back(arg.Gather(sel));
      std::vector<uint64_t> dhashes(sel.size(), kHashTableSalt);
      dkeys[0].HashBatch(dhashes.data(), sel.size(), true);
      dkeys[1].HashBatch(dhashes.data(), sel.size(), true);
      if (table->distinct[a] == nullptr) {
        table->distinct[a] = std::make_unique<GroupKeyTable>();
      }
      std::vector<uint32_t> dgids(sel.size());
      std::vector<uint8_t> dcreated(sel.size());
      HashTableStats dht;
      table->distinct[a]->FindOrCreate(dkeys, dhashes.data(), sel.size(),
                                       dgids.data(), dcreated.data(), &dht);
      stats->hash_table_lookups += dht.lookups;
      stats->hash_table_probe_steps += dht.probe_steps;
      firsts.clear();
      for (size_t j = 0; j < sel.size(); ++j) {
        if (dcreated[j] != 0) firsts.push_back(sel[j]);
      }
      only = &firsts;
    }
    switch (spec.func) {
      case AggFunc::kCount:
        fold_rows([&](size_t g, const uint32_t* it, const uint32_t* end) {
          int64_t c = 0;
          for (; it != end; ++it) c += valid[*it] != 0 ? 1 : 0;
          if (c == 0) return;
          state(g).has_value = true;
          state(g).count += c;
        });
        break;
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (arg.type() == TypeId::kDouble) {
          const double* data = arg.double_data();
          fold_rows([&](size_t g, const uint32_t* it, const uint32_t* end) {
            AggState& st = state(g);
            double sum = st.sum_d;
            int64_t count = st.count;
            for (; it != end; ++it) {
              if (valid[*it] == 0) continue;
              sum += data[*it];
              ++count;
            }
            st.has_value = st.has_value || count != st.count;
            st.sum_d = sum;
            st.count = count;
          });
        } else {
          const int64_t* data = arg.int64_data();
          fold_rows([&](size_t g, const uint32_t* it, const uint32_t* end) {
            AggState& st = state(g);
            int64_t sum_i = st.sum_i;
            int64_t wraps = st.sum_wraps;
            double sum = st.sum_d;
            int64_t count = st.count;
            for (; it != end; ++it) {
              if (valid[*it] == 0) continue;
              wraps += AddWrapping(&sum_i, data[*it]);
              sum += static_cast<double>(data[*it]);
              ++count;
            }
            st.has_value = st.has_value || count != st.count;
            st.sum_i = sum_i;
            st.sum_wraps = wraps;
            st.sum_d = sum;
            st.count = count;
          });
        }
        break;
      case AggFunc::kStddev:
      case AggFunc::kVariance:
        fold_rows([&](size_t g, const uint32_t* it, const uint32_t* end) {
          AggState& st = state(g);
          for (; it != end; ++it) {
            if (valid[*it] == 0) continue;
            double v = arg.GetNumeric(*it);
            st.has_value = true;
            st.count++;
            st.sum_d += v;
            st.sum_sq += v * v;
          }
        });
        break;
      case AggFunc::kMin:
      case AggFunc::kMax: {
        const bool is_min = spec.func == AggFunc::kMin;
        if (arg.type() == TypeId::kString) {
          std::vector<std::string>& ms = table->minmax_strings[a];
          ms.resize(num_groups);
          fold_rows([&](size_t g, const uint32_t* it, const uint32_t* end) {
            AggState& st = state(g);
            for (; it != end; ++it) {
              if (valid[*it] == 0) continue;
              st.has_value = true;
              const std::string& s = arg.GetString(*it);
              std::string& cur = ms[g];
              if (st.count == 0 || (is_min ? s < cur : s > cur)) cur = s;
              st.count++;
            }
          });
        } else if (arg.type() == TypeId::kDouble) {
          const double* data = arg.double_data();
          fold_rows([&](size_t g, const uint32_t* it, const uint32_t* end) {
            AggState& st = state(g);
            for (; it != end; ++it) {
              if (valid[*it] == 0) continue;
              st.has_value = true;
              double v = data[*it];
              if (st.count == 0 ||
                  (is_min ? v < st.minmax_d : v > st.minmax_d)) {
                st.minmax_d = v;
              }
              st.count++;
            }
          });
        } else {
          const int64_t* data = arg.int64_data();
          fold_rows([&](size_t g, const uint32_t* it, const uint32_t* end) {
            AggState& st = state(g);
            for (; it != end; ++it) {
              if (valid[*it] == 0) continue;
              st.has_value = true;
              int64_t v = data[*it];
              if (st.count == 0 ||
                  (is_min ? v < st.minmax_i : v > st.minmax_i)) {
                st.minmax_i = v;
              }
              st.count++;
            }
          });
        }
        break;
      }
      case AggFunc::kCountStar:
        break;
    }
  }
  return Status::OK();
}

void PhysicalHashAggregate::MergeAggStates(const AggTable& src,
                                           size_t src_gid, AggTable* dst,
                                           size_t dst_gid) const {
  size_t num_aggs = aggregates_.size();
  for (size_t a = 0; a < num_aggs; ++a) {
    const AggState& s = src.states[src_gid * num_aggs + a];
    AggState& d = dst->states[dst_gid * num_aggs + a];
    // MIN/MAX compare before the counts fold in (count == 0 means "no
    // value yet" on both sides of the comparison).
    switch (aggregates_[a].func) {
      case AggFunc::kMin:
      case AggFunc::kMax: {
        if (s.count == 0) break;
        const bool is_min = aggregates_[a].func == AggFunc::kMin;
        if (aggregates_[a].result_type == TypeId::kString) {
          const std::string& sv = src.minmax_strings[a][src_gid];
          std::string& dv = dst->minmax_strings[a][dst_gid];
          if (d.count == 0 || (is_min ? sv < dv : sv > dv)) dv = sv;
        } else if (aggregates_[a].result_type == TypeId::kDouble) {
          if (d.count == 0 ||
              (is_min ? s.minmax_d < d.minmax_d : s.minmax_d > d.minmax_d)) {
            d.minmax_d = s.minmax_d;
          }
        } else {
          if (d.count == 0 ||
              (is_min ? s.minmax_i < d.minmax_i : s.minmax_i > d.minmax_i)) {
            d.minmax_i = s.minmax_i;
          }
        }
        break;
      }
      default:
        break;
    }
    d.count += s.count;
    d.sum_d += s.sum_d;
    d.sum_sq += s.sum_sq;
    d.sum_wraps += s.sum_wraps + AddWrapping(&d.sum_i, s.sum_i);
    d.has_value = d.has_value || s.has_value;
  }
}

void PhysicalHashAggregate::MergePartial(AggTable&& partial, AggTable* dst) {
  size_t n = partial.keys.group_count();
  if (n == 0) return;
  size_t num_aggs = aggregates_.size();
  if (dst->minmax_strings.size() != num_aggs) {
    dst->minmax_strings.resize(num_aggs);
    dst->distinct.resize(num_aggs);
  }
  // The partial's stored key columns and (already salted) group hashes
  // feed straight back through FindOrCreate — no re-encoding.
  std::vector<uint32_t> gids(n);
  std::vector<uint8_t> created(n);
  HashTableStats ht;
  dst->keys.FindOrCreate(partial.keys.keys(),
                         partial.keys.group_hashes().data(), n, gids.data(),
                         created.data(), &ht);
  context_->stats.hash_table_lookups += ht.lookups;
  context_->stats.hash_table_probe_steps += ht.probe_steps;
  size_t total = dst->keys.group_count();
  dst->states.resize(total * num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    if (!partial.minmax_strings.empty() &&
        !partial.minmax_strings[a].empty()) {
      partial.minmax_strings[a].resize(n);
      dst->minmax_strings[a].resize(total);
    } else if (!dst->minmax_strings[a].empty()) {
      dst->minmax_strings[a].resize(total);
    }
  }
  for (size_t g = 0; g < n; ++g) {
    size_t d = gids[g];
    if (created[g] != 0) {
      for (size_t a = 0; a < num_aggs; ++a) {
        dst->states[d * num_aggs + a] = partial.states[g * num_aggs + a];
        if (!dst->minmax_strings[a].empty() &&
            !partial.minmax_strings.empty() &&
            !partial.minmax_strings[a].empty()) {
          dst->minmax_strings[a][d] = std::move(partial.minmax_strings[a][g]);
        }
      }
      if (spill_mode_) dst->first_rows.push_back(partial.first_rows[g]);
    } else {
      MergeAggStates(partial, g, dst, d);
    }
  }
}

Status PhysicalHashAggregate::FinalizeInto(const AggTable& table,
                                           size_t begin, size_t count,
                                           Chunk* out) const {
  size_t col = 0;
  for (const ColumnVector& key : table.keys.keys()) {
    out->column(col++).AppendRange(key, begin, count);
  }
  const size_t num_aggs = aggregates_.size();
  const size_t end = begin + count;
  for (size_t a = 0; a < num_aggs; ++a) {
    const AggregateSpec& spec = aggregates_[a];
    const AggState* states = table.states.data() + acc_of_[a];
    auto state = [&](size_t gid) -> const AggState& {
      return states[gid * num_aggs];
    };
    ColumnVector& target = out->column(col++);
    target.Reserve(target.size() + count);
    switch (spec.func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
        for (size_t g = begin; g < end; ++g) target.AppendInt64(state(g).count);
        break;
      case AggFunc::kSum:
        for (size_t g = begin; g < end; ++g) {
          const AggState& st = state(g);
          if (!st.has_value) {
            target.AppendNull();
          } else if (spec.result_type == TypeId::kDouble) {
            target.AppendDouble(st.sum_d);
          } else if (st.sum_wraps != 0) {
            return Status::OutOfRange("BIGINT out of range");
          } else {
            target.AppendInt64(st.sum_i);
          }
        }
        break;
      case AggFunc::kAvg:
        for (size_t g = begin; g < end; ++g) {
          const AggState& st = state(g);
          if (!st.has_value) {
            target.AppendNull();
          } else {
            target.AppendDouble(st.sum_d / static_cast<double>(st.count));
          }
        }
        break;
      case AggFunc::kMin:
      case AggFunc::kMax:
        for (size_t g = begin; g < end; ++g) {
          const AggState& st = state(g);
          if (!st.has_value) {
            target.AppendNull();
          } else if (spec.result_type == TypeId::kString) {
            target.AppendString(table.minmax_strings[a][g]);
          } else if (spec.result_type == TypeId::kDouble) {
            target.AppendDouble(st.minmax_d);
          } else {
            target.AppendInt64(st.minmax_i);
          }
        }
        break;
      case AggFunc::kStddev:
      case AggFunc::kVariance:
        for (size_t g = begin; g < end; ++g) {
          const AggState& st = state(g);
          if (st.count < 2) {
            target.AppendNull();
            continue;
          }
          double n = static_cast<double>(st.count);
          double mean = st.sum_d / n;
          double variance =
              std::max(0.0, (st.sum_sq - n * mean * mean) / (n - 1.0));
          target.AppendDouble(spec.func == AggFunc::kVariance
                                  ? variance
                                  : std::sqrt(variance));
        }
        break;
    }
  }
  return Status::OK();
}

Status PhysicalHashAggregate::FoldBudgeted(const Chunk& input,
                                           ExecStats* stats) {
  AggInput in;
  AGORA_RETURN_IF_ERROR(Evaluate(input, &in));
  const size_t rows = in.rows;
  std::vector<int64_t> ids(rows);
  std::iota(ids.begin(), ids.end(), next_row_);
  next_row_ += static_cast<int64_t>(rows);
  AggTable* target = morsel_partials_ ? &partial_ : &groups_;
  if (!any_spilled_) {
    AGORA_RETURN_IF_ERROR(Fold(in, ids.data(), target, stats));
  } else {
    // Route rows by group hash: rows of a spilled partition append to its
    // log as [keys..., args..., row id, morsel]; the rest fold as usual.
    const size_t num_parts = parts_.size();
    std::vector<uint64_t> hashes(rows, kHashTableSalt);
    for (const ColumnVector& col : in.keys) {
      col.HashBatch(hashes.data(), rows, /*combine=*/true);
    }
    std::vector<std::vector<uint32_t>> sel(num_parts + 1);  // last: resident
    for (size_t r = 0; r < rows; ++r) {
      const size_t p = hashes[r] % num_parts;
      sel[parts_[p].spilled ? p : num_parts].push_back(
          static_cast<uint32_t>(r));
    }
    for (size_t p = 0; p <= num_parts; ++p) {
      const std::vector<uint32_t>& rs = sel[p];
      if (rs.empty()) continue;
      AggInput part_in;
      part_in.rows = rs.size();
      for (const ColumnVector& col : in.keys) {
        part_in.keys.push_back(col.Gather(rs));
      }
      part_in.args.resize(aggregates_.size());
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        if (FoldsArg(a)) part_in.args[a] = in.args[a].Gather(rs);
      }
      std::vector<int64_t> part_ids(rs.size());
      for (size_t i = 0; i < rs.size(); ++i) part_ids[i] = ids[rs[i]];
      if (p == num_parts) {
        AGORA_RETURN_IF_ERROR(Fold(part_in, part_ids.data(), target, stats));
        continue;
      }
      Chunk log;
      for (ColumnVector& col : part_in.keys) log.AddColumn(std::move(col));
      for (size_t a = 0; a < aggregates_.size(); ++a) {
        if (FoldsArg(a)) log.AddColumn(std::move(part_in.args[a]));
      }
      ColumnVector id_col(TypeId::kInt64);
      ColumnVector unit_col(TypeId::kInt64);
      for (int64_t id : part_ids) {
        id_col.AppendInt64(id);
        unit_col.AppendInt64(unit_);
      }
      log.AddColumn(std::move(id_col));
      log.AddColumn(std::move(unit_col));
      AGORA_RETURN_IF_ERROR(SpillWriteChunk(parts_[p].file.get(), log, stats));
    }
  }
  return ShedWhileOverBudget(stats);
}

Status PhysicalHashAggregate::ShedWhileOverBudget(ExecStats* stats) {
  while (context_->memory->over_budget()) {
    const size_t victim = PickVictim();
    if (victim == SIZE_MAX) break;  // nothing to shed; reload checks decide
    AGORA_RETURN_IF_ERROR(Shed(victim, stats));
  }
  return Status::OK();
}

size_t PhysicalHashAggregate::PickVictim() const {
  std::vector<size_t> groups(parts_.size());
  for (const AggTable* table : {&groups_, &partial_}) {
    for (uint64_t h : table->keys.group_hashes()) groups[h % parts_.size()]++;
  }
  size_t victim = SIZE_MAX;
  size_t best = 0;
  for (size_t p = 0; p < parts_.size(); ++p) {
    if (!parts_[p].spilled && groups[p] > best) {
      victim = p;
      best = groups[p];
    }
  }
  return victim;
}

Status PhysicalHashAggregate::Shed(size_t p, ExecStats* stats) {
  AggPartition& part = parts_[p];
  AGORA_ASSIGN_OR_RETURN(part.file, context_->spill->Create());
  for (AggTable* table : {&groups_, &partial_}) {
    std::vector<uint32_t> shed, keep;
    const std::vector<uint64_t>& hashes = table->keys.group_hashes();
    for (size_t g = 0; g < hashes.size(); ++g) {
      (hashes[g] % parts_.size() == p ? shed : keep)
          .push_back(static_cast<uint32_t>(g));
    }
    // AggState is trivially copyable, and raw bytes round-trip doubles
    // bit-exactly.
    std::vector<AggState> states;
    AGORA_RETURN_IF_ERROR(
        SpillWriteChunk(part.file.get(), SliceOf(*table, shed, &states), stats));
    AGORA_RETURN_IF_ERROR(SpillWriteBlob(part.file.get(), states.data(),
                                         states.size() * sizeof(AggState),
                                         stats));
    if (shed.empty()) continue;
    Chunk rest = SliceOf(*table, keep, &states);
    LoadSlice(rest, std::move(states), table);
  }
  part.spilled = true;
  part.unit = unit_;
  any_spilled_ = true;
  stats->spill_partitions++;
  return Status::OK();
}

Chunk PhysicalHashAggregate::SliceOf(const AggTable& table,
                                     const std::vector<uint32_t>& gids,
                                     std::vector<AggState>* states) const {
  const size_t num_aggs = aggregates_.size();
  states->clear();
  if (gids.empty()) return Chunk();  // the table may never have been typed
  Chunk slice;
  for (const ColumnVector& key : table.keys.keys()) {
    slice.AddColumn(key.Gather(gids));
  }
  ColumnVector first(TypeId::kInt64);
  states->reserve(gids.size() * num_aggs);
  for (uint32_t g : gids) {
    first.AppendInt64(table.first_rows[g]);
    const AggState* row = table.states.data() + size_t{g} * num_aggs;
    states->insert(states->end(), row, row + num_aggs);
  }
  slice.AddColumn(std::move(first));
  for (size_t a = 0; a < num_aggs; ++a) {
    if (!IsStringMinMax(aggregates_[a])) continue;
    const std::vector<std::string>& ms = table.minmax_strings[a];
    ColumnVector col(TypeId::kString);
    for (uint32_t g : gids) col.AppendString(ms[g]);
    slice.AddColumn(std::move(col));
  }
  return slice;
}

void PhysicalHashAggregate::LoadSlice(const Chunk& slice,
                                      std::vector<AggState> states,
                                      AggTable* table) const {
  *table = AggTable{};
  const size_t n = slice.num_rows();
  if (n == 0) return;
  const size_t num_keys = group_by_.size();
  const size_t num_aggs = aggregates_.size();
  // A fresh table assigns identity group ids in slice order.
  std::vector<ColumnVector> keys;
  std::vector<uint64_t> hashes(n, kHashTableSalt);
  for (size_t k = 0; k < num_keys; ++k) {
    keys.push_back(slice.column(k));
    keys.back().HashBatch(hashes.data(), n, /*combine=*/true);
  }
  std::vector<uint32_t> gids(n);
  std::vector<uint8_t> created(n);
  HashTableStats ht;
  table->keys.FindOrCreate(keys, hashes.data(), n, gids.data(),
                           created.data(), &ht);
  table->states = std::move(states);
  const int64_t* first = slice.column(num_keys).int64_data();
  table->first_rows.assign(first, first + n);
  table->minmax_strings.resize(num_aggs);
  table->distinct.resize(num_aggs);
  size_t c = num_keys + 1;
  for (size_t a = 0; a < num_aggs; ++a) {
    if (!IsStringMinMax(aggregates_[a])) continue;
    std::vector<std::string>& ms = table->minmax_strings[a];
    ms.resize(n);
    for (size_t g = 0; g < n; ++g) ms[g] = slice.column(c).GetString(g);
    ++c;
  }
}

Status PhysicalHashAggregate::ReloadPartition(AggPartition* part,
                                              AggTable* table) {
  const size_t num_aggs = aggregates_.size();
  ExecStats* stats = &context_->stats;
  AGORA_RETURN_IF_ERROR(part->file->Rewind());
  // The merged groups, then the partial of morsel `part->unit`.
  AggTable partial;
  for (AggTable* t : {table, &partial}) {
    Chunk slice;
    bool eof = false;
    AGORA_RETURN_IF_ERROR(
        SpillReadChunk(part->file.get(), &slice, &eof, stats));
    if (eof) return Status::IoError("spill file missing aggregate slice");
    std::string blob;
    AGORA_RETURN_IF_ERROR(SpillReadBlob(part->file.get(), &blob, stats));
    std::vector<AggState> states(slice.num_rows() * num_aggs);
    if (blob.size() != states.size() * sizeof(AggState)) {
      return Status::IoError("spill slice accumulator size mismatch");
    }
    if (!blob.empty()) std::memcpy(states.data(), blob.data(), blob.size());
    LoadSlice(slice, std::move(states), t);
  }

  // Fold the logged rows as the resident path would have: into the
  // partial of their morsel, merging it at each morsel boundary.
  int64_t unit = part->unit;
  for (;;) {
    Chunk log;
    bool eof = false;
    AGORA_RETURN_IF_ERROR(SpillReadChunk(part->file.get(), &log, &eof, stats));
    if (eof) break;
    AggInput in;
    in.rows = log.num_rows();
    size_t c = 0;
    for (size_t k = 0; k < group_by_.size(); ++k) {
      in.keys.push_back(log.column(c++));
    }
    in.args.resize(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      if (FoldsArg(a)) in.args[a] = log.column(c++);
    }
    const int64_t log_unit = log.column(c + 1).GetInt64(0);
    if (log_unit != unit) {
      MergePartial(std::move(partial), table);
      partial = AggTable{};
      unit = log_unit;
    }
    AGORA_RETURN_IF_ERROR(Fold(in, log.column(c).int64_data(),
                               morsel_partials_ ? &partial : table, stats));
  }
  MergePartial(std::move(partial), table);
  partial = AggTable{};
  context_->spill->Recycle(std::move(part->file));
  // A partition that cannot fit alone even after spilling is the scheme's
  // graceful-failure point.
  return context_->CheckMemoryBudget("HashAggregate::spill-reload");
}

Status PhysicalHashAggregate::SpoolFinalized(const AggTable& table) {
  const size_t n = table.keys.group_count();
  context_->stats.hash_table_entries += static_cast<int64_t>(n);
  context_->stats.hash_table_slots +=
      static_cast<int64_t>(table.keys.slot_count());
  AGORA_ASSIGN_OR_RETURN(std::unique_ptr<SpillFile> file,
                         context_->spill->Create());
  // Output is batched far below kChunkSize: the merge later holds one
  // loaded batch per file while the result chunk is accumulating, so the
  // batch size is the merge's memory floor.
  const size_t batch = std::min<size_t>(kChunkSize, 256);
  for (size_t start = 0; start < n; start += batch) {
    const size_t count = std::min(batch, n - start);
    Chunk out(schema_);
    AGORA_RETURN_IF_ERROR(FinalizeInto(table, start, count, &out));
    ColumnVector idx(TypeId::kInt64);
    idx.Reserve(count);
    for (size_t g = start; g < start + count; ++g) {
      idx.AppendInt64(table.first_rows[g]);
    }
    out.AddColumn(std::move(idx));
    AGORA_RETURN_IF_ERROR(SpillWriteChunk(file.get(), out, &context_->stats));
  }
  spooled_.push_back(std::move(file));
  return Status::OK();
}

Status PhysicalHashAggregate::NextImpl(Chunk* chunk, bool* done) {
  Chunk out(schema_);
  if (any_spilled_) {
    AGORA_RETURN_IF_ERROR(merge_.Next(&out, done, &context_->stats));
    if (*done) {
      for (std::unique_ptr<SpillFile>& file : spooled_) {
        context_->spill->Recycle(std::move(file));
      }
      spooled_.clear();
    }
  } else {
    const size_t count = std::min(kChunkSize, num_groups_ - next_group_);
    if (finalized_.empty()) {
      AGORA_RETURN_IF_ERROR(FinalizeInto(groups_, next_group_, count, &out));
    } else {
      out = std::move(finalized_[next_group_ / kChunkSize]);
    }
    next_group_ += count;
    *done = next_group_ >= num_groups_;
  }
  context_->stats.bytes_materialized += static_cast<int64_t>(out.MemoryBytes());
  *chunk = std::move(out);
  return Status::OK();
}

}  // namespace agora
