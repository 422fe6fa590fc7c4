#include "lineage/lineage.h"

#include <algorithm>
#include <cmath>
#include <unordered_map>

#include "exec/physical_op.h"  // AppendKeyBytes

namespace agora {

namespace {

/// Merges two sorted-unique lineage sets.
std::vector<LineageRef> MergeLineage(const std::vector<LineageRef>& a,
                                     const std::vector<LineageRef>& b) {
  std::vector<LineageRef> out;
  out.reserve(a.size() + b.size());
  std::merge(a.begin(), a.end(), b.begin(), b.end(),
             std::back_inserter(out));
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

}  // namespace

Result<AnnotatedRelation> LineageScan(const Table& table,
                                      const ExprPtr& predicate,
                                      bool capture) {
  AnnotatedRelation out;
  out.schema = table.schema();
  out.data = Chunk(out.schema);
  size_t n = table.num_rows();
  for (size_t start = 0; start < n; start += kChunkSize) {
    Chunk chunk = table.GetChunk(start, kChunkSize);
    size_t rows = chunk.num_rows();
    std::vector<uint32_t> sel;
    if (predicate != nullptr) {
      ColumnVector mask;
      AGORA_RETURN_IF_ERROR(predicate->Evaluate(chunk, &mask));
      for (size_t i = 0; i < rows; ++i) {
        if (!mask.IsNull(i) && mask.GetBool(i)) {
          sel.push_back(static_cast<uint32_t>(i));
        }
      }
    } else {
      sel.resize(rows);
      for (size_t i = 0; i < rows; ++i) sel[i] = static_cast<uint32_t>(i);
    }
    if (capture) {
      for (uint32_t i : sel) {
        out.lineage.push_back(
            {LineageRef{table.name(), static_cast<int64_t>(start + i)}});
      }
    }
    out.data.Append(chunk.GatherRows(sel));
  }
  return out;
}

Result<AnnotatedRelation> LineageJoin(const AnnotatedRelation& left,
                                      const AnnotatedRelation& right,
                                      size_t left_col, size_t right_col,
                                      bool capture) {
  if (left_col >= left.schema.num_fields() ||
      right_col >= right.schema.num_fields()) {
    return Status::InvalidArgument("join column out of range");
  }
  AnnotatedRelation out;
  out.schema = left.schema.Concat(right.schema);
  out.data = Chunk(out.schema);

  // Build on the right side.
  std::unordered_multimap<uint64_t, size_t> table;
  const ColumnVector& rkey = right.data.column(right_col);
  for (size_t r = 0; r < right.num_rows(); ++r) {
    if (rkey.IsNull(r)) continue;
    table.emplace(rkey.HashRow(r), r);
  }
  const ColumnVector& lkey = left.data.column(left_col);
  size_t lcols = left.schema.num_fields();
  for (size_t l = 0; l < left.num_rows(); ++l) {
    if (lkey.IsNull(l)) continue;
    auto range = table.equal_range(lkey.HashRow(l));
    for (auto it = range.first; it != range.second; ++it) {
      size_t r = it->second;
      if (lkey.CompareRows(l, rkey, r) != 0) continue;
      for (size_t c = 0; c < lcols; ++c) {
        out.data.column(c).AppendFrom(left.data.column(c), l);
      }
      for (size_t c = 0; c < right.schema.num_fields(); ++c) {
        out.data.column(lcols + c).AppendFrom(right.data.column(c), r);
      }
      if (capture) {
        const std::vector<LineageRef>& ll =
            l < left.lineage.size() ? left.lineage[l]
                                    : std::vector<LineageRef>{};
        const std::vector<LineageRef>& rl =
            r < right.lineage.size() ? right.lineage[r]
                                     : std::vector<LineageRef>{};
        out.lineage.push_back(MergeLineage(ll, rl));
      }
    }
  }
  return out;
}

Result<AnnotatedRelation> LineageAggregate(
    const AnnotatedRelation& input, const std::vector<size_t>& group_cols,
    const std::vector<AggregateSpec>& aggregates, bool capture) {
  struct AggState {
    int64_t count = 0;
    double sum = 0;
    double sum_sq = 0;
    Value min_max;
    bool has_value = false;
  };
  struct Group {
    std::vector<Value> keys;
    std::vector<AggState> states;
    std::vector<LineageRef> lineage;
  };

  // Pre-evaluate aggregate arguments over the whole input.
  std::vector<ColumnVector> arg_cols(aggregates.size());
  for (size_t a = 0; a < aggregates.size(); ++a) {
    if (aggregates[a].arg != nullptr) {
      AGORA_RETURN_IF_ERROR(
          aggregates[a].arg->Evaluate(input.data, &arg_cols[a]));
    }
  }

  std::unordered_map<std::string, Group> groups;
  std::vector<Group*> ordered;
  std::string key;
  for (size_t row = 0; row < input.num_rows(); ++row) {
    key.clear();
    for (size_t c : group_cols) {
      AppendKeyBytes(input.data.column(c), row, &key);
    }
    auto [it, inserted] = groups.try_emplace(key);
    Group& group = it->second;
    if (inserted) {
      for (size_t c : group_cols) {
        group.keys.push_back(input.data.column(c).GetValue(row));
      }
      group.states.resize(aggregates.size());
      ordered.push_back(&group);
    }
    if (capture && row < input.lineage.size()) {
      // Append now, dedup once at finalize (merging per row would be
      // quadratic in the group size).
      group.lineage.insert(group.lineage.end(), input.lineage[row].begin(),
                           input.lineage[row].end());
    }
    for (size_t a = 0; a < aggregates.size(); ++a) {
      AggState& state = group.states[a];
      if (aggregates[a].func == AggFunc::kCountStar) {
        state.count++;
        continue;
      }
      const ColumnVector& arg = arg_cols[a];
      if (arg.IsNull(row)) continue;
      state.has_value = true;
      switch (aggregates[a].func) {
        case AggFunc::kCount:
          state.count++;
          break;
        case AggFunc::kSum:
        case AggFunc::kAvg:
          state.count++;
          state.sum += arg.GetNumeric(row);
          break;
        case AggFunc::kStddev:
        case AggFunc::kVariance: {
          double v = arg.GetNumeric(row);
          state.count++;
          state.sum += v;
          state.sum_sq += v * v;
          break;
        }
        case AggFunc::kMin: {
          Value v = arg.GetValue(row);
          if (state.count == 0 || v.Compare(state.min_max) < 0) {
            state.min_max = std::move(v);
          }
          state.count++;
          break;
        }
        case AggFunc::kMax: {
          Value v = arg.GetValue(row);
          if (state.count == 0 || v.Compare(state.min_max) > 0) {
            state.min_max = std::move(v);
          }
          state.count++;
          break;
        }
        case AggFunc::kCountStar:
          break;
      }
    }
  }

  AnnotatedRelation out;
  std::vector<Field> fields;
  for (size_t c : group_cols) fields.push_back(input.schema.field(c));
  for (const AggregateSpec& spec : aggregates) {
    fields.push_back(Field{spec.name, spec.result_type, true});
  }
  out.schema = Schema(std::move(fields));
  out.data = Chunk(out.schema);
  for (Group* group : ordered) {
    size_t col = 0;
    for (const Value& k : group->keys) {
      out.data.column(col++).AppendValue(k);
    }
    for (size_t a = 0; a < aggregates.size(); ++a) {
      const AggState& state = group->states[a];
      ColumnVector& target = out.data.column(col++);
      switch (aggregates[a].func) {
        case AggFunc::kCountStar:
        case AggFunc::kCount:
          target.AppendInt64(state.count);
          break;
        case AggFunc::kSum:
          if (!state.has_value) {
            target.AppendNull();
          } else if (aggregates[a].result_type == TypeId::kDouble) {
            target.AppendDouble(state.sum);
          } else {
            target.AppendInt64(static_cast<int64_t>(state.sum));
          }
          break;
        case AggFunc::kAvg:
          if (!state.has_value) {
            target.AppendNull();
          } else {
            target.AppendDouble(state.sum /
                                static_cast<double>(state.count));
          }
          break;
        case AggFunc::kMin:
        case AggFunc::kMax:
          if (!state.has_value) {
            target.AppendNull();
          } else {
            target.AppendValue(state.min_max);
          }
          break;
        case AggFunc::kStddev:
        case AggFunc::kVariance: {
          if (state.count < 2) {
            target.AppendNull();
            break;
          }
          double n = static_cast<double>(state.count);
          double mean = state.sum / n;
          double variance =
              std::max(0.0, (state.sum_sq - n * mean * mean) / (n - 1.0));
          target.AppendDouble(aggregates[a].func == AggFunc::kVariance
                                  ? variance
                                  : std::sqrt(variance));
          break;
        }
      }
    }
    if (capture) {
      std::sort(group->lineage.begin(), group->lineage.end());
      group->lineage.erase(
          std::unique(group->lineage.begin(), group->lineage.end()),
          group->lineage.end());
      out.lineage.push_back(std::move(group->lineage));
    }
  }
  return out;
}

Result<std::vector<LineageRef>> TraceRow(const AnnotatedRelation& relation,
                                         size_t row,
                                         const std::string& table) {
  if (row >= relation.num_rows()) {
    return Status::OutOfRange("row " + std::to_string(row) +
                              " out of range");
  }
  if (relation.lineage.empty()) {
    return Status::InvalidArgument(
        "relation has no lineage (capture was disabled)");
  }
  if (table.empty()) return relation.lineage[row];
  std::vector<LineageRef> out;
  for (const LineageRef& ref : relation.lineage[row]) {
    if (ref.table == table) out.push_back(ref);
  }
  return out;
}

}  // namespace agora
