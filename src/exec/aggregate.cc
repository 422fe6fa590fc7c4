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
  num_groups_ = 0;
  next_group_ = 0;
  scalar_default_group_ = false;
  if (spill_mode_) return OpenSpill();

  bool has_distinct = false;
  for (const AggregateSpec& spec : aggregates_) {
    has_distinct = has_distinct || spec.distinct;
  }

  MorselPipeline pipeline;
  if (!has_distinct &&
      ParallelEligible(child_.get(), *context_, &pipeline)) {
    // Parallel accumulate: one partial table per morsel (single-writer),
    // merged below in morsel order — worker count never changes results.
    AGORA_RETURN_IF_ERROR(child_->Open());
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
          return AccumulateInto(chunk, &partials[morsel.index], stats);
        }));
    for (AggTable& partial : partials) {
      MergePartial(std::move(partial));
    }
  } else {
    AGORA_RETURN_IF_ERROR(child_->Open());
    bool done = false;
    while (!done) {
      Chunk input;
      AGORA_RETURN_IF_ERROR(child_->Next(&input, &done));
      // The in-memory table can only grow; fail gracefully at chunk
      // granularity when a budget is set (DISTINCT/scalar paths).
      AGORA_RETURN_IF_ERROR(context_->CheckMemoryBudget("HashAggregate"));
      if (input.num_rows() > 0) {
        AGORA_RETURN_IF_ERROR(
            AccumulateInto(input, &groups_, &context_->stats));
      }
    }
  }

  num_groups_ = groups_.keys.group_count();
  // Scalar aggregation always yields one group.
  if (group_by_.empty() && num_groups_ == 0) {
    scalar_default_group_ = true;
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
  return Status::OK();
}

Status PhysicalHashAggregate::AccumulateInto(const Chunk& input,
                                             AggTable* table,
                                             ExecStats* stats) const {
  size_t rows = input.num_rows();
  size_t num_aggs = aggregates_.size();
  stats->rows_aggregated += static_cast<int64_t>(rows);
  if (table->minmax_strings.size() != num_aggs) {
    table->minmax_strings.resize(num_aggs);
    table->distinct.resize(num_aggs);
  }

  // Evaluate group keys and aggregate arguments once per chunk.
  std::vector<ColumnVector> key_cols(group_by_.size());
  for (size_t g = 0; g < group_by_.size(); ++g) {
    AGORA_RETURN_IF_ERROR(group_by_[g]->Evaluate(input, &key_cols[g]));
  }
  std::vector<ColumnVector> arg_cols;
  AGORA_RETURN_IF_ERROR(EvalArgs(input, &arg_cols));

  HashTableStats ht;
  if (group_by_.empty()) {
    // Scalar aggregation: one group, no per-row lookups. One
    // FindOrCreate call registers the (empty-key) group on first use.
    uint64_t h = kHashTableSalt;
    uint32_t gid;
    uint8_t created;
    table->keys.FindOrCreate(key_cols, &h, 1, &gid, &created, &ht);
    table->gid_scratch.assign(rows, 0);
  } else if (!DirectGroupIds(key_cols, rows, table, &ht)) {
    // Resolve every row to a dense group id in one vectorized pass.
    table->hash_scratch.assign(rows, kHashTableSalt);
    for (const ColumnVector& col : key_cols) {
      col.HashBatch(table->hash_scratch.data(), rows, /*combine=*/true);
    }
    table->gid_scratch.resize(rows);
    table->created_scratch.resize(rows);
    table->keys.FindOrCreate(key_cols, table->hash_scratch.data(), rows,
                             table->gid_scratch.data(),
                             table->created_scratch.data(), &ht);
  }
  stats->hash_table_lookups += ht.lookups;
  stats->hash_table_probe_steps += ht.probe_steps;
  table->states.resize(table->keys.group_count() * num_aggs);
  return ApplyAccumulators(arg_cols, table->gid_scratch.data(), rows, table,
                           stats);
}

Status PhysicalHashAggregate::EvalArgs(
    const Chunk& input, std::vector<ColumnVector>* arg_cols) const {
  if (input.num_columns() != child_->schema().num_fields()) {
    return Status::Internal("HashAggregate input has " +
                            std::to_string(input.num_columns()) +
                            " columns, expected " +
                            std::to_string(child_->schema().num_fields()));
  }
  // Each step reads the input plus the steps before it, so a shared
  // subexpression is one column evaluated once.
  Chunk ext = input;
  for (const ExprPtr& step : arg_plan_.steps) {
    ColumnVector col;
    AGORA_RETURN_IF_ERROR(step->Evaluate(ext, &col));
    ext.AddColumn(std::move(col));
  }
  arg_cols->assign(aggregates_.size(), ColumnVector());
  for (size_t a = 0; a < aggregates_.size(); ++a) {
    if (arg_plan_.columns[a] == SIZE_MAX) continue;
    ColumnVector& col = (*arg_cols)[a];
    col = ext.column(arg_plan_.columns[a]);
    col.FlattenConstant();
  }
  return Status::OK();
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
  auto fold_rows = [&](const auto& fold) {
    if (by_group) {
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
    if (spec.distinct) {
      // DISTINCT: dedup (group id, argument) pairs through a hashed key
      // table — no per-row key strings — then apply first occurrences
      // through the row-at-a-time mirror.
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
      bool is_string = spec.result_type == TypeId::kString &&
                       (spec.func == AggFunc::kMin ||
                        spec.func == AggFunc::kMax);
      if (is_string) table->minmax_strings[a].resize(num_groups);
      for (size_t j = 0; j < sel.size(); ++j) {
        if (dcreated[j] == 0) continue;
        size_t r = sel[j];
        size_t g = gids[r];
        ApplyRow(spec, arg, r, &states[g * num_aggs + a],
                 is_string ? &table->minmax_strings[a][g] : nullptr);
      }
      continue;
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

void PhysicalHashAggregate::ApplyRow(const AggregateSpec& spec,
                                       const ColumnVector& arg, size_t row,
                                       AggState* state,
                                       std::string* minmax_str) const {
  state->has_value = true;
  switch (spec.func) {
    case AggFunc::kCount:
      state->count++;
      break;
    case AggFunc::kSum:
    case AggFunc::kAvg:
      state->count++;
      if (arg.type() == TypeId::kDouble) {
        state->sum_d += arg.GetDouble(row);
      } else {
        const int64_t v = arg.GetInt64(row);
        state->sum_wraps += AddWrapping(&state->sum_i, v);
        state->sum_d += static_cast<double>(v);
      }
      break;
    case AggFunc::kStddev:
    case AggFunc::kVariance: {
      double v = arg.GetNumeric(row);
      state->count++;
      state->sum_d += v;
      state->sum_sq += v * v;
      break;
    }
    case AggFunc::kMin:
    case AggFunc::kMax: {
      const bool is_min = spec.func == AggFunc::kMin;
      if (arg.type() == TypeId::kString) {
        const std::string& s = arg.GetString(row);
        if (state->count == 0 ||
            (is_min ? s < *minmax_str : s > *minmax_str)) {
          *minmax_str = s;
        }
      } else if (arg.type() == TypeId::kDouble) {
        double v = arg.GetDouble(row);
        if (state->count == 0 ||
            (is_min ? v < state->minmax_d : v > state->minmax_d)) {
          state->minmax_d = v;
        }
      } else {
        int64_t v = arg.GetInt64(row);
        if (state->count == 0 ||
            (is_min ? v < state->minmax_i : v > state->minmax_i)) {
          state->minmax_i = v;
        }
      }
      state->count++;
      break;
    }
    case AggFunc::kCountStar:
      break;
  }
}

void PhysicalHashAggregate::MergeAggStates(const AggTable& src,
                                             size_t src_gid,
                                             size_t dst_gid) {
  size_t num_aggs = aggregates_.size();
  for (size_t a = 0; a < num_aggs; ++a) {
    const AggState& s = src.states[src_gid * num_aggs + a];
    AggState& d = groups_.states[dst_gid * num_aggs + a];
    // MIN/MAX compare before the counts fold in (count == 0 means "no
    // value yet" on both sides of the comparison).
    switch (aggregates_[a].func) {
      case AggFunc::kMin:
      case AggFunc::kMax: {
        if (s.count == 0) break;
        const bool is_min = aggregates_[a].func == AggFunc::kMin;
        if (aggregates_[a].result_type == TypeId::kString) {
          const std::string& sv = src.minmax_strings[a][src_gid];
          std::string& dv = groups_.minmax_strings[a][dst_gid];
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

void PhysicalHashAggregate::MergePartial(AggTable&& partial) {
  size_t n = partial.keys.group_count();
  if (n == 0) return;
  size_t num_aggs = aggregates_.size();
  if (groups_.minmax_strings.size() != num_aggs) {
    groups_.minmax_strings.resize(num_aggs);
    groups_.distinct.resize(num_aggs);
  }
  // The partial's stored key columns and (already salted) group hashes
  // feed straight back through FindOrCreate — no re-encoding.
  std::vector<uint32_t> gids(n);
  std::vector<uint8_t> created(n);
  HashTableStats ht;
  groups_.keys.FindOrCreate(partial.keys.keys(),
                            partial.keys.group_hashes().data(), n,
                            gids.data(), created.data(), &ht);
  context_->stats.hash_table_lookups += ht.lookups;
  context_->stats.hash_table_probe_steps += ht.probe_steps;
  size_t total = groups_.keys.group_count();
  groups_.states.resize(total * num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    if (!partial.minmax_strings.empty() &&
        !partial.minmax_strings[a].empty()) {
      partial.minmax_strings[a].resize(n);
      groups_.minmax_strings[a].resize(total);
    } else if (!groups_.minmax_strings[a].empty()) {
      groups_.minmax_strings[a].resize(total);
    }
  }
  for (size_t g = 0; g < n; ++g) {
    size_t dst = gids[g];
    if (created[g] != 0) {
      for (size_t a = 0; a < num_aggs; ++a) {
        groups_.states[dst * num_aggs + a] =
            partial.states[g * num_aggs + a];
        if (!groups_.minmax_strings[a].empty() &&
            !partial.minmax_strings.empty() &&
            !partial.minmax_strings[a].empty()) {
          groups_.minmax_strings[a][dst] =
              std::move(partial.minmax_strings[a][g]);
        }
      }
    } else {
      MergeAggStates(partial, g, dst);
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

Status PhysicalHashAggregate::OpenSpill() {
  parts_.clear();
  streams_.clear();
  const size_t num_parts = std::max<size_t>(1, context_->spill_partitions);
  parts_.resize(num_parts);

  // Serial input drain; the serial chunk order equals the morsel order,
  // so results match the parallel in-memory path by construction.
  AGORA_RETURN_IF_ERROR(child_->Open());
  int64_t base_idx = 0;
  bool done = false;
  while (!done) {
    Chunk input;
    AGORA_RETURN_IF_ERROR(child_->Next(&input, &done));
    size_t rows = input.num_rows();
    if (rows == 0) continue;
    AGORA_RETURN_IF_ERROR(AccumulatePartitioned(input, base_idx));
    base_idx += static_cast<int64_t>(rows);
    while (context_->memory->over_budget()) {
      size_t resident = 0;
      for (const AggPartition& part : parts_) {
        resident += part.table.keys.group_count();
      }
      if (resident == 0) break;  // nothing to shed; reload checks decide
      AGORA_RETURN_IF_ERROR(SpillAggVictim());
    }
  }

  // Finalize resident partitions first (frees their tables), then reload
  // spilled partitions one at a time into the freed headroom. Once any
  // partition spilled, resident output spools to disk too: keeping it in
  // memory would shrink the headroom the reloads were spilled to create.
  bool any_spilled = false;
  for (const AggPartition& part : parts_) {
    any_spilled = any_spilled || part.spilled;
  }
  for (AggPartition& part : parts_) {
    if (part.spilled) continue;
    if (part.table.keys.group_count() > 0) {
      AGORA_RETURN_IF_ERROR(
          FinalizePartition(part.table, part.first_idx, &part, any_spilled));
    }
    part.table = AggTable{};
    std::vector<int64_t>().swap(part.first_idx);
  }
  for (AggPartition& part : parts_) {
    if (!part.spilled) continue;
    AggTable table;
    std::vector<int64_t> first_idx;
    AGORA_RETURN_IF_ERROR(ReloadAndReplay(&part, &table, &first_idx));
    AGORA_RETURN_IF_ERROR(
        FinalizePartition(table, first_idx, &part, /*to_disk=*/true));
  }

  // Arm the first-appearance merge: one stream per non-empty partition.
  for (AggPartition& part : parts_) {
    if (part.out_file != nullptr) {
      AggStream s;
      s.file = part.out_file.get();
      AGORA_RETURN_IF_ERROR(s.file->Rewind());
      streams_.push_back(std::move(s));
    } else if (!part.finalized.empty()) {
      AggStream s;
      s.mem = std::move(part.finalized);
      streams_.push_back(std::move(s));
    }
  }
  for (AggStream& s : streams_) {
    AGORA_RETURN_IF_ERROR(AdvanceAggStream(&s));
  }
  return Status::OK();
}

Status PhysicalHashAggregate::AccumulatePartitioned(const Chunk& input,
                                                    int64_t base_idx) {
  const size_t num_parts = parts_.size();
  size_t rows = input.num_rows();
  size_t num_aggs = aggregates_.size();
  ExecStats* stats = &context_->stats;
  stats->rows_aggregated += static_cast<int64_t>(rows);

  // Evaluate keys and arguments once, then scatter rows to their group-
  // hash partition. All rows of a group share a partition, so per-group
  // accumulation order is the global arrival order — unchanged.
  std::vector<ColumnVector> key_cols(group_by_.size());
  for (size_t g = 0; g < group_by_.size(); ++g) {
    AGORA_RETURN_IF_ERROR(group_by_[g]->Evaluate(input, &key_cols[g]));
  }
  std::vector<ColumnVector> arg_cols;
  AGORA_RETURN_IF_ERROR(EvalArgs(input, &arg_cols));
  std::vector<uint64_t> hashes(rows, kHashTableSalt);
  for (const ColumnVector& col : key_cols) {
    col.HashBatch(hashes.data(), rows, /*combine=*/true);
  }
  std::vector<std::vector<uint32_t>> psel(num_parts);
  for (size_t r = 0; r < rows; ++r) {
    psel[hashes[r] % num_parts].push_back(static_cast<uint32_t>(r));
  }

  for (size_t p = 0; p < num_parts; ++p) {
    const std::vector<uint32_t>& sel = psel[p];
    if (sel.empty()) continue;
    AggPartition& part = parts_[p];
    size_t n = sel.size();
    std::vector<ColumnVector> pkeys;
    pkeys.reserve(key_cols.size());
    for (const ColumnVector& col : key_cols) pkeys.push_back(col.Gather(sel));
    std::vector<uint64_t> phashes(n);
    for (size_t i = 0; i < n; ++i) phashes[i] = hashes[sel[i]];

    if (part.spilled) {
      // Append to the partition's replay log:
      // [keys..., args (non-null specs)..., hash, global index].
      Chunk rc;
      for (ColumnVector& col : pkeys) rc.AddColumn(std::move(col));
      for (size_t a = 0; a < num_aggs; ++a) {
        if (aggregates_[a].arg != nullptr) {
          rc.AddColumn(arg_cols[a].Gather(sel));
        }
      }
      ColumnVector hcol(TypeId::kInt64);
      ColumnVector icol(TypeId::kInt64);
      for (size_t i = 0; i < n; ++i) {
        hcol.AppendInt64(static_cast<int64_t>(phashes[i]));
        icol.AppendInt64(base_idx + sel[i]);
      }
      rc.AddColumn(std::move(hcol));
      rc.AddColumn(std::move(icol));
      AGORA_RETURN_IF_ERROR(SpillWriteChunk(part.file.get(), rc, stats));
      continue;
    }

    AggTable& table = part.table;
    if (table.minmax_strings.size() != num_aggs) {
      table.minmax_strings.resize(num_aggs);
      table.distinct.resize(num_aggs);
    }
    std::vector<uint32_t> gids(n);
    std::vector<uint8_t> created(n);
    HashTableStats ht;
    table.keys.FindOrCreate(pkeys, phashes.data(), n, gids.data(),
                            created.data(), &ht);
    stats->hash_table_lookups += ht.lookups;
    stats->hash_table_probe_steps += ht.probe_steps;
    for (size_t i = 0; i < n; ++i) {
      if (created[i] != 0) {
        part.first_idx.push_back(base_idx + sel[i]);
      }
    }
    table.states.resize(table.keys.group_count() * num_aggs);
    std::vector<ColumnVector> pargs(num_aggs);
    for (size_t a = 0; a < num_aggs; ++a) {
      if (aggregates_[a].arg != nullptr) pargs[a] = arg_cols[a].Gather(sel);
    }
    AGORA_RETURN_IF_ERROR(
        ApplyAccumulators(pargs, gids.data(), n, &table, stats));
  }
  return Status::OK();
}

Status PhysicalHashAggregate::SpillAggVictim() {
  size_t victim = SIZE_MAX;
  size_t best = 0;
  for (size_t p = 0; p < parts_.size(); ++p) {
    size_t n = parts_[p].table.keys.group_count();
    if (!parts_[p].spilled && n > best) {
      victim = p;
      best = n;
    }
  }
  AGORA_CHECK(victim != SIZE_MAX);
  AggPartition& part = parts_[victim];
  const AggTable& table = part.table;
  size_t n = table.keys.group_count();
  size_t num_aggs = aggregates_.size();
  if (part.file == nullptr) {
    AGORA_ASSIGN_OR_RETURN(part.file, context_->spill->Create());
  }

  // Snapshot record 1: the stored group keys, hashes, and first-
  // appearance indices as one group-major chunk.
  Chunk snap;
  for (const ColumnVector& key : table.keys.keys()) snap.AddColumn(key);
  ColumnVector hcol(TypeId::kInt64);
  ColumnVector icol(TypeId::kInt64);
  for (size_t g = 0; g < n; ++g) {
    hcol.AppendInt64(static_cast<int64_t>(table.keys.group_hashes()[g]));
    icol.AppendInt64(part.first_idx[g]);
  }
  snap.AddColumn(std::move(hcol));
  snap.AddColumn(std::move(icol));
  AGORA_RETURN_IF_ERROR(
      SpillWriteChunk(part.file.get(), snap, &context_->stats));

  // Snapshot record 2: the accumulators, raw (AggState is trivially
  // copyable, and raw bytes round-trip doubles bit-exactly).
  AGORA_RETURN_IF_ERROR(SpillWriteBlob(part.file.get(), table.states.data(),
                                       n * num_aggs * sizeof(AggState),
                                       &context_->stats));

  // Snapshot record 3: string MIN/MAX side state, one column per
  // aggregate (all-NULL when the aggregate keeps none).
  Chunk mm;
  for (size_t a = 0; a < num_aggs; ++a) {
    ColumnVector col(TypeId::kString);
    if (table.minmax_strings.size() > a &&
        table.minmax_strings[a].size() == n) {
      for (size_t g = 0; g < n; ++g) {
        col.AppendString(table.minmax_strings[a][g]);
      }
    } else {
      for (size_t g = 0; g < n; ++g) col.AppendNull();
    }
    mm.AddColumn(std::move(col));
  }
  if (num_aggs == 0) mm.SetExplicitRowCount(n);
  AGORA_RETURN_IF_ERROR(
      SpillWriteChunk(part.file.get(), mm, &context_->stats));

  part.table = AggTable{};
  std::vector<int64_t>().swap(part.first_idx);
  part.spilled = true;
  context_->stats.spill_partitions++;
  return Status::OK();
}

Status PhysicalHashAggregate::ReloadAndReplay(AggPartition* part,
                                              AggTable* table,
                                              std::vector<int64_t>* first_idx) {
  size_t num_aggs = aggregates_.size();
  size_t num_keys = group_by_.size();
  AGORA_RETURN_IF_ERROR(part->file->Rewind());

  // Snapshot: rebuild the key table from the stored keys (a fresh table
  // assigns identity group ids in row order), then overlay the raw
  // accumulators and string MIN/MAX state.
  Chunk snap;
  bool eof = false;
  AGORA_RETURN_IF_ERROR(
      SpillReadChunk(part->file.get(), &snap, &eof, &context_->stats));
  if (eof) {
    return Status::IoError("spill file missing aggregate state snapshot");
  }
  size_t n = snap.num_rows();
  std::vector<ColumnVector> kcols;
  kcols.reserve(num_keys);
  for (size_t k = 0; k < num_keys; ++k) kcols.push_back(snap.column(k));
  std::vector<uint64_t> hashes(n);
  const int64_t* hdata = snap.column(num_keys).int64_data();
  for (size_t g = 0; g < n; ++g) hashes[g] = static_cast<uint64_t>(hdata[g]);
  std::vector<uint32_t> gids(n);
  std::vector<uint8_t> created(n);
  HashTableStats ht;
  table->keys.FindOrCreate(kcols, hashes.data(), n, gids.data(),
                           created.data(), &ht);
  const int64_t* idata = snap.column(num_keys + 1).int64_data();
  first_idx->assign(idata, idata + n);
  // The table now owns its own copy of the keys; drop the snapshot and
  // the scratch arrays before reading the accumulators so the reload
  // never holds two copies of the partition at once.
  kcols.clear();
  snap = Chunk();
  std::vector<uint64_t>().swap(hashes);
  std::vector<uint32_t>().swap(gids);
  std::vector<uint8_t>().swap(created);

  std::string blob;
  AGORA_RETURN_IF_ERROR(
      SpillReadBlob(part->file.get(), &blob, &context_->stats));
  if (blob.size() != n * num_aggs * sizeof(AggState)) {
    return Status::IoError("spill snapshot accumulator size mismatch");
  }
  table->states.resize(n * num_aggs);
  if (!blob.empty()) {
    std::memcpy(table->states.data(), blob.data(), blob.size());
  }
  std::string().swap(blob);
  Chunk mm;
  AGORA_RETURN_IF_ERROR(
      SpillReadChunk(part->file.get(), &mm, &eof, &context_->stats));
  if (eof) return Status::IoError("spill file missing MIN/MAX snapshot");
  table->minmax_strings.resize(num_aggs);
  table->distinct.resize(num_aggs);
  for (size_t a = 0; a < num_aggs; ++a) {
    const AggregateSpec& spec = aggregates_[a];
    if (spec.result_type != TypeId::kString ||
        (spec.func != AggFunc::kMin && spec.func != AggFunc::kMax)) {
      continue;
    }
    std::vector<std::string>& ms = table->minmax_strings[a];
    ms.resize(n);
    for (size_t g = 0; g < n; ++g) {
      if (!mm.column(a).IsNull(g)) ms[g] = mm.column(a).GetString(g);
    }
  }
  mm = Chunk();

  // Replay the logged rows in arrival order: identical per-group
  // accumulation sequence to the never-spilled execution.
  for (;;) {
    Chunk rc;
    AGORA_RETURN_IF_ERROR(
        SpillReadChunk(part->file.get(), &rc, &eof, &context_->stats));
    if (eof) break;
    size_t rows = rc.num_rows();
    std::vector<ColumnVector> rkeys;
    rkeys.reserve(num_keys);
    for (size_t k = 0; k < num_keys; ++k) rkeys.push_back(rc.column(k));
    std::vector<ColumnVector> rargs(num_aggs);
    size_t c = num_keys;
    for (size_t a = 0; a < num_aggs; ++a) {
      if (aggregates_[a].arg != nullptr) rargs[a] = rc.column(c++);
    }
    const int64_t* rh = rc.column(c).int64_data();
    const int64_t* ri = rc.column(c + 1).int64_data();
    std::vector<uint64_t> rhashes(rows);
    for (size_t r = 0; r < rows; ++r) {
      rhashes[r] = static_cast<uint64_t>(rh[r]);
    }
    std::vector<uint32_t> rgids(rows);
    std::vector<uint8_t> rcreated(rows);
    HashTableStats rht;
    table->keys.FindOrCreate(rkeys, rhashes.data(), rows, rgids.data(),
                             rcreated.data(), &rht);
    context_->stats.hash_table_lookups += rht.lookups;
    context_->stats.hash_table_probe_steps += rht.probe_steps;
    for (size_t r = 0; r < rows; ++r) {
      if (rcreated[r] != 0) first_idx->push_back(ri[r]);
    }
    table->states.resize(table->keys.group_count() * num_aggs);
    AGORA_RETURN_IF_ERROR(
        ApplyAccumulators(rargs, rgids.data(), rows, table, &context_->stats));
  }
  context_->spill->Recycle(std::move(part->file));
  // A partition that cannot fit alone even after spilling is the scheme's
  // graceful-failure point.
  return context_->CheckMemoryBudget("HashAggregate::spill-reload");
}

Status PhysicalHashAggregate::FinalizePartition(
    const AggTable& table, const std::vector<int64_t>& first_idx,
    AggPartition* part, bool to_disk) {
  size_t n = table.keys.group_count();
  context_->stats.hash_table_entries += static_cast<int64_t>(n);
  context_->stats.hash_table_slots +=
      static_cast<int64_t>(table.keys.slot_count());
  if (to_disk) {
    AGORA_ASSIGN_OR_RETURN(part->out_file, context_->spill->Create());
  }
  // Output is batched far below kChunkSize: the k-way merge later holds
  // one loaded batch per disk stream — and frees a memory stream's batch
  // only once fully consumed — *while the result chunk is accumulating*,
  // so the batch size is the merge's memory floor either way.
  const size_t batch = std::min<size_t>(kChunkSize, 256);
  for (size_t start = 0; start < n; start += batch) {
    size_t count = std::min(batch, n - start);
    Chunk out(schema_);
    AGORA_RETURN_IF_ERROR(FinalizeInto(table, start, count, &out));
    ColumnVector idx(TypeId::kInt64);
    idx.Reserve(count);
    for (size_t g = start; g < start + count; ++g) {
      idx.AppendInt64(first_idx[g]);
    }
    out.AddColumn(std::move(idx));
    if (to_disk) {
      AGORA_RETURN_IF_ERROR(
          SpillWriteChunk(part->out_file.get(), out, &context_->stats));
    } else {
      part->finalized.push_back(std::move(out));
    }
  }
  return Status::OK();
}

Status PhysicalHashAggregate::AdvanceAggStream(AggStream* s) {
  while (!s->exhausted && s->row >= s->chunk.num_rows()) {
    s->row = 0;
    if (s->file != nullptr) {
      Chunk next;
      bool eof = false;
      AGORA_RETURN_IF_ERROR(
          SpillReadChunk(s->file, &next, &eof, &context_->stats));
      if (eof) {
        s->exhausted = true;
        s->chunk = Chunk();
      } else {
        s->chunk = std::move(next);
      }
    } else if (s->mem_pos < s->mem.size()) {
      s->chunk = std::move(s->mem[s->mem_pos++]);
    } else {
      s->exhausted = true;
      s->chunk = Chunk();
    }
  }
  return Status::OK();
}

Status PhysicalHashAggregate::EmitMerged(Chunk* chunk, bool* done) {
  const size_t ncols = schema_.num_fields();
  Chunk out(schema_);
  std::vector<uint32_t> sel;
  while (out.num_rows() < kChunkSize) {
    // Smallest head index wins (indices are disjoint across partitions —
    // a group is created by exactly one global row).
    size_t best = SIZE_MAX;
    int64_t best_idx = 0;
    int64_t second = INT64_MAX;
    for (size_t i = 0; i < streams_.size(); ++i) {
      AggStream& s = streams_[i];
      if (s.exhausted) continue;
      int64_t idx = s.chunk.column(ncols).GetInt64(s.row);
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
    if (best == SIZE_MAX) break;
    AggStream& s = streams_[best];
    const int64_t* idxs = s.chunk.column(ncols).int64_data();
    size_t room = kChunkSize - out.num_rows();
    size_t end = s.row + 1;
    while (end < s.chunk.num_rows() && idxs[end] < second &&
           end - s.row < room) {
      ++end;
    }
    sel.resize(end - s.row);
    std::iota(sel.begin(), sel.end(), static_cast<uint32_t>(s.row));
    for (size_t c = 0; c < ncols; ++c) {
      out.column(c).AppendGatherPadded(s.chunk.column(c), sel.data(),
                                       sel.size());
    }
    s.row = end;
    AGORA_RETURN_IF_ERROR(AdvanceAggStream(&s));
  }

  bool drained = true;
  for (const AggStream& s : streams_) drained &= s.exhausted;
  if (drained) {
    streams_.clear();
    for (AggPartition& part : parts_) {
      if (part.out_file != nullptr) {
        context_->spill->Recycle(std::move(part.out_file));
      }
    }
  }
  context_->stats.bytes_materialized +=
      static_cast<int64_t>(out.MemoryBytes());
  *chunk = std::move(out);
  *done = drained;
  return Status::OK();
}

Status PhysicalHashAggregate::NextImpl(Chunk* chunk, bool* done) {
  if (spill_mode_) return EmitMerged(chunk, done);
  Chunk out(schema_);
  const size_t count = std::min(kChunkSize, num_groups_ - next_group_);
  AGORA_RETURN_IF_ERROR(FinalizeInto(groups_, next_group_, count, &out));
  next_group_ += count;
  context_->stats.bytes_materialized += static_cast<int64_t>(out.MemoryBytes());
  *chunk = std::move(out);
  *done = next_group_ >= num_groups_;
  return Status::OK();
}

}  // namespace agora
