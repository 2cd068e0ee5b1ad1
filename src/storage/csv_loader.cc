#include "storage/csv_loader.h"

#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "common/str_util.h"

namespace n2j {

namespace {

/// Splits one logical CSV record (quotes already balanced) into fields.
std::vector<std::string> SplitRecord(const std::string& line,
                                     char delimiter) {
  std::vector<std::string> fields;
  std::string current;
  bool quoted = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (quoted) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          current.push_back('"');
          ++i;
        } else {
          quoted = false;
        }
      } else {
        current.push_back(c);
      }
    } else if (c == '"' && current.empty()) {
      quoted = true;
    } else if (c == delimiter) {
      fields.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  fields.push_back(std::move(current));
  return fields;
}

/// Reads logical records, letting quoted fields span physical lines.
std::vector<std::string> SplitRecords(const std::string& text) {
  std::vector<std::string> records;
  std::string current;
  bool quoted = false;
  for (size_t i = 0; i < text.size(); ++i) {
    char c = text[i];
    if (c == '"') quoted = !quoted;
    if ((c == '\n' || c == '\r') && !quoted) {
      if (c == '\r' && i + 1 < text.size() && text[i + 1] == '\n') ++i;
      if (!current.empty()) records.push_back(std::move(current));
      current.clear();
    } else {
      current.push_back(c);
    }
  }
  if (!current.empty()) records.push_back(std::move(current));
  return records;
}

Result<Value> CoerceField(const std::string& raw, const Type& type,
                          const CsvOptions& options, size_t record,
                          const std::string& column) {
  auto bad = [&](const char* what) {
    return Status::InvalidArgument(
        StrFormat("record %zu, column '%s': cannot parse '%s' as %s",
                  record, column.c_str(), raw.c_str(), what));
  };
  if (raw.empty() && options.empty_as_null && !type.is_string()) {
    return Value::Null();
  }
  switch (type.kind()) {
    case Type::Kind::kBool:
      if (raw == "true" || raw == "1") return Value::Bool(true);
      if (raw == "false" || raw == "0") return Value::Bool(false);
      return bad("bool");
    // A number must use the whole field (a NUL byte would end the C
    // string early) and fit its type; an underflow toward 0 is kept.
    case Type::Kind::kInt: {
      char* end = nullptr;
      errno = 0;
      long long v = std::strtoll(raw.c_str(), &end, 10);
      if (raw.empty() || end != raw.c_str() + raw.size() || errno == ERANGE) {
        return bad("int");
      }
      return Value::Int(v);
    }
    case Type::Kind::kDouble: {
      char* end = nullptr;
      errno = 0;
      double v = std::strtod(raw.c_str(), &end);
      if (raw.empty() || end != raw.c_str() + raw.size() ||
          (errno == ERANGE && (v == HUGE_VAL || v == -HUGE_VAL))) {
        return bad("double");
      }
      return Value::Double(v);
    }
    case Type::Kind::kString:
      return Value::String(raw);
    default:
      return Status::InvalidArgument(
          "column '" + column + "' has non-atomic type " + type.ToString() +
          " — not loadable from flat CSV");
  }
}

}  // namespace

Result<size_t> LoadCsv(Database* db, const std::string& table,
                       const std::string& csv_text,
                       const CsvOptions& options) {
  const Table* t = db->FindTable(table);
  if (t == nullptr) return Status::NotFound("no such table: " + table);
  const std::vector<TypeField>& schema = t->row_type()->fields();

  std::vector<std::string> records = SplitRecords(csv_text);
  size_t start = 0;
  if (options.has_header) {
    if (records.empty()) {
      return Status::InvalidArgument("missing CSV header");
    }
    std::vector<std::string> header =
        SplitRecord(records[0], options.delimiter);
    if (header.size() != schema.size()) {
      return Status::InvalidArgument(StrFormat(
          "header has %zu columns, table '%s' has %zu attributes",
          header.size(), table.c_str(), schema.size()));
    }
    for (size_t i = 0; i < header.size(); ++i) {
      if (header[i] != schema[i].name) {
        return Status::InvalidArgument(
            "header column '" + header[i] + "' does not match attribute '" +
            schema[i].name + "'");
      }
    }
    start = 1;
  }

  size_t loaded = 0;
  for (size_t r = start; r < records.size(); ++r) {
    std::vector<std::string> fields =
        SplitRecord(records[r], options.delimiter);
    if (fields.size() != schema.size()) {
      return Status::InvalidArgument(StrFormat(
          "record %zu has %zu fields, expected %zu", r, fields.size(),
          schema.size()));
    }
    std::vector<Field> row;
    row.reserve(schema.size());
    for (size_t i = 0; i < schema.size(); ++i) {
      N2J_ASSIGN_OR_RETURN(
          Value v,
          CoerceField(fields[i], *schema[i].type, options, r,
                      schema[i].name));
      row.emplace_back(schema[i].name, std::move(v));
    }
    N2J_RETURN_IF_ERROR(db->Insert(table, Value::Tuple(std::move(row))));
    ++loaded;
  }
  return loaded;
}

Result<size_t> LoadCsvFile(Database* db, const std::string& table,
                           const std::string& path,
                           const CsvOptions& options) {
  std::ifstream in(path);
  if (!in) return Status::NotFound("cannot open " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return LoadCsv(db, table, buffer.str(), options);
}

}  // namespace n2j
