#include "storage/csv.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <sstream>

#include "common/string_util.h"
#include "storage/table_appender.h"

namespace agora {

namespace {

// Splits one CSV line honoring double-quoted fields with "" escapes.
std::vector<std::string> SplitCsvLine(const std::string& line, char delim) {
  std::vector<std::string> fields;
  std::string current;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        current += c;
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == delim) {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

/// Appends one non-string field, parsed as `type`; the null literal
/// appends NULL.
Status AppendField(const std::string& raw, TypeId type,
                   const CsvOptions& options, TableAppender* rows) {
  if (raw == options.null_literal) {
    rows->Null();
    return Status::OK();
  }
  if (type == TypeId::kBool) {
    std::string low = ToLower(raw);
    if (low == "true" || low == "t" || low == "1") {
      rows->Bool(true);
    } else if (low == "false" || low == "f" || low == "0") {
      rows->Bool(false);
    } else {
      return Status::TypeError("cannot parse '" + raw + "' as BOOLEAN");
    }
    return Status::OK();
  }
  AGORA_ASSIGN_OR_RETURN(Value value, Value::String(raw).CastTo(type));
  if (type == TypeId::kDouble) {
    rows->Double(value.double_value());
  } else if (type == TypeId::kDate) {
    rows->Date(value.int64_value());
  } else {
    rows->Int64(value.int64_value());
  }
  return Status::OK();
}

}  // namespace

Result<std::shared_ptr<Table>> ReadCsv(std::istream& in,
                                       const std::string& table_name,
                                       const Schema& schema,
                                       const CsvOptions& options) {
  auto table = std::make_shared<Table>(table_name, schema);
  TableAppender rows(table.get());
  std::string line;
  size_t line_no = 0;
  if (options.has_header && std::getline(in, line)) ++line_no;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    std::vector<std::string> fields = SplitCsvLine(line, options.delimiter);
    if (fields.size() != schema.num_fields()) {
      return Status::IoError("line " + std::to_string(line_no) + ": expected " +
                             std::to_string(schema.num_fields()) +
                             " fields, got " + std::to_string(fields.size()));
    }
    for (size_t c = 0; c < fields.size(); ++c) {
      const TypeId type = schema.field(c).type;
      if (type == TypeId::kString) {
        rows.String(std::move(fields[c]));
        continue;
      }
      Status parsed = AppendField(fields[c], type, options, &rows);
      if (!parsed.ok()) {
        return Status::IoError("line " + std::to_string(line_no) + ", column " +
                               schema.field(c).name + ": " + parsed.message());
      }
    }
    AGORA_RETURN_IF_ERROR(rows.EndRow());
  }
  AGORA_RETURN_IF_ERROR(rows.Finish());
  return table;
}

Result<std::shared_ptr<Table>> ReadCsvFile(const std::string& path,
                                           const std::string& table_name,
                                           const Schema& schema,
                                           const CsvOptions& options) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::IoError("cannot open '" + path + "'");
  }
  return ReadCsv(in, table_name, schema, options);
}

Status WriteCsv(const Table& table, std::ostream& out,
                const CsvOptions& options) {
  const Schema& schema = table.schema();
  if (options.has_header) {
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      if (c > 0) out << options.delimiter;
      out << schema.field(c).name;
    }
    out << '\n';
  }
  for (size_t r = 0; r < table.num_rows(); ++r) {
    for (size_t c = 0; c < schema.num_fields(); ++c) {
      if (c > 0) out << options.delimiter;
      const ColumnVector& col = table.column(c);
      if (col.IsNull(r)) {
        out << options.null_literal;
        continue;
      }
      std::string text = col.GetValue(r).ToString();
      bool needs_quotes =
          text.find(options.delimiter) != std::string::npos ||
          text.find('"') != std::string::npos ||
          text.find('\n') != std::string::npos;
      if (needs_quotes) {
        out << '"';
        for (char ch : text) {
          if (ch == '"') out << '"';
          out << ch;
        }
        out << '"';
      } else {
        out << text;
      }
    }
    out << '\n';
  }
  if (!out.good()) return Status::IoError("write failed");
  return Status::OK();
}

Status WriteCsvFile(const Table& table, const std::string& path,
                    const CsvOptions& options) {
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::IoError("cannot open '" + path + "' for writing");
  }
  return WriteCsv(table, out, options);
}

}  // namespace agora
