#include "engine/exec/result_set.h"

#include <algorithm>

#include "common/string_util.h"
#include "engine/exec/row_utils.h"

namespace tip::engine {

void CollectingSink::Columns(std::vector<ResultColumn> columns) {
  result_.columns = std::move(columns);
}

size_t CollectingSink::Add(Row* row) {
  const size_t bytes = exec_util::ApproxRowBytes(*row);
  result_.rows.push_back(std::move(*row));
  return bytes;
}

void CollectingSink::Finish(int64_t affected_rows, std::string message) {
  result_.affected_rows = affected_rows;
  result_.message = std::move(message);
}

int ResultSet::FindColumn(std::string_view name) const {
  for (size_t i = 0; i < columns.size(); ++i) {
    if (EqualsIgnoreCase(columns[i].name, name)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

std::string ResultSet::ToTable(const TypeRegistry& types) const {
  if (columns.empty()) {
    return message.empty()
               ? StringPrintf("(%lld rows affected)\n",
                              static_cast<long long>(affected_rows))
               : message + "\n";
  }
  std::vector<size_t> widths(columns.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t i = 0; i < columns.size(); ++i) {
    widths[i] = columns[i].name.size();
  }
  cells.reserve(rows.size());
  for (const Row& row : rows) {
    std::vector<std::string> line;
    line.reserve(columns.size());
    for (size_t i = 0; i < columns.size(); ++i) {
      std::string text = i < row.size() ? types.Format(row[i]) : "";
      widths[i] = std::max(widths[i], text.size());
      line.push_back(std::move(text));
    }
    cells.push_back(std::move(line));
  }
  std::string out;
  auto append_row = [&](const std::vector<std::string>& line) {
    for (size_t i = 0; i < line.size(); ++i) {
      out += i == 0 ? "| " : " | ";
      out += line[i];
      out.append(widths[i] - line[i].size(), ' ');
    }
    out += " |\n";
  };
  std::vector<std::string> header;
  header.reserve(columns.size());
  for (const ResultColumn& c : columns) header.push_back(c.name);
  append_row(header);
  out += "|";
  for (size_t i = 0; i < columns.size(); ++i) {
    out.append(widths[i] + 2, '-');
    out += "|";
  }
  out += "\n";
  for (const auto& line : cells) append_row(line);
  out += StringPrintf("(%zu rows)\n", rows.size());
  return out;
}

}  // namespace tip::engine
