#include "util/csv.hpp"

#include <cstdlib>
#include <sstream>

#include "util/error.hpp"

namespace osprey::util {

CsvTable::CsvTable(std::vector<std::string> header)
    : header_(std::move(header)) {
  OSPREY_REQUIRE(!header_.empty(), "CSV header must not be empty");
}

std::size_t CsvTable::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < header_.size(); ++i) {
    if (header_[i] == name) return i;
  }
  throw NotFound("CSV column not found: " + name);
}

bool CsvTable::has_column(const std::string& name) const {
  for (const std::string& h : header_) {
    if (h == name) return true;
  }
  return false;
}

void CsvTable::add_row(std::vector<std::string> row) {
  OSPREY_REQUIRE(row.size() == header_.size(),
                 "CSV row width does not match header");
  rows_.push_back(std::move(row));
}

const std::vector<std::string>& CsvTable::row(std::size_t i) const {
  OSPREY_REQUIRE(i < rows_.size(), "CSV row index out of range");
  return rows_[i];
}

const std::string& CsvTable::cell(std::size_t row,
                                  const std::string& column) const {
  return this->row(row)[column_index(column)];
}

double CsvTable::cell_double(std::size_t row,
                             const std::string& column) const {
  const std::string& s = cell(row, column);
  char* end = nullptr;
  double v = std::strtod(s.c_str(), &end);
  OSPREY_REQUIRE(end != s.c_str() && *end == '\0',
                 "CSV cell is not numeric: " + s);
  return v;
}

std::vector<double> CsvTable::column_doubles(const std::string& name) const {
  std::size_t col = column_index(name);
  std::vector<double> out;
  out.reserve(rows_.size());
  for (std::size_t r = 0; r < rows_.size(); ++r) {
    const std::string& s = rows_[r][col];
    char* end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    OSPREY_REQUIRE(end != s.c_str() && *end == '\0',
                   "CSV cell is not numeric: " + s);
    out.push_back(v);
  }
  return out;
}

std::vector<std::string> CsvTable::column_strings(
    const std::string& name) const {
  std::size_t col = column_index(name);
  std::vector<std::string> out;
  out.reserve(rows_.size());
  for (const auto& r : rows_) out.push_back(r[col]);
  return out;
}

namespace {

bool needs_quoting(const std::string& field) {
  return field.find_first_of(",\"\n\r") != std::string::npos;
}

}  // namespace

std::string csv_field(const std::string& field) {
  if (!needs_quoting(field)) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

namespace {

void write_field(const std::string& field, std::ostringstream& out) {
  if (needs_quoting(field)) {
    out << csv_field(field);
  } else {
    out << field;
  }
}

void write_row(const std::vector<std::string>& row, std::ostringstream& out) {
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out << ',';
    write_field(row[i], out);
  }
  out << '\n';
}

/// Parse one logical CSV record starting at `pos`; handles quoted fields
/// containing commas/newlines. Returns false at end of input.
bool parse_record(const std::string& text, std::size_t& pos,
                  std::vector<std::string>& fields) {
  fields.clear();
  if (pos >= text.size()) return false;
  std::string cur;
  bool in_quotes = false;
  bool saw_any = false;
  while (pos < text.size()) {
    char c = text[pos];
    if (in_quotes) {
      if (c == '"') {
        if (pos + 1 < text.size() && text[pos + 1] == '"') {
          cur += '"';
          pos += 2;
        } else {
          in_quotes = false;
          ++pos;
        }
      } else {
        cur += c;
        ++pos;
      }
      continue;
    }
    if (c == '"') {
      OSPREY_REQUIRE(cur.empty(), "quote in the middle of a CSV field");
      in_quotes = true;
      saw_any = true;
      ++pos;
    } else if (c == ',') {
      fields.push_back(cur);
      cur.clear();
      saw_any = true;
      ++pos;
    } else if (c == '\n' || c == '\r') {
      // Consume the line terminator (\n, \r, or \r\n).
      ++pos;
      if (c == '\r' && pos < text.size() && text[pos] == '\n') ++pos;
      break;
    } else {
      cur += c;
      saw_any = true;
      ++pos;
    }
  }
  OSPREY_REQUIRE(!in_quotes, "unterminated quoted CSV field");
  if (!saw_any && cur.empty() && fields.empty()) return false;
  fields.push_back(cur);
  return true;
}

}  // namespace

std::string CsvTable::to_string() const {
  std::ostringstream out;
  write_row(header_, out);
  for (const auto& r : rows_) write_row(r, out);
  return out.str();
}

CsvTable CsvTable::parse(const std::string& text) {
  std::size_t pos = 0;
  std::vector<std::string> fields;
  OSPREY_REQUIRE(parse_record(text, pos, fields), "empty CSV document");
  CsvTable table(fields);
  while (parse_record(text, pos, fields)) {
    table.add_row(fields);
  }
  return table;
}

}  // namespace osprey::util
