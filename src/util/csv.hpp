#pragma once

/// \file csv.hpp
/// In-memory CSV reading/writing. Wastewater surveillance payloads and
/// tabular model outputs travel between simulated endpoints as CSV blobs,
/// mirroring the tabular files exchanged in the paper's workflow.

#include <string>
#include <vector>

namespace osprey::util {

/// `field` as one CSV cell, as CsvTable::to_string writes it: quoted,
/// with inner quotes doubled, when it holds a comma, a quote or a line
/// break; unchanged otherwise. For writers that render rows straight
/// into one string.
std::string csv_field(const std::string& field);

/// A parsed CSV document: one header row plus data rows of equal width.
class CsvTable {
 public:
  CsvTable() = default;
  explicit CsvTable(std::vector<std::string> header);

  const std::vector<std::string>& header() const { return header_; }
  std::size_t num_rows() const { return rows_.size(); }
  std::size_t num_cols() const { return header_.size(); }

  /// Index of a named column; throws NotFound when absent.
  std::size_t column_index(const std::string& name) const;
  bool has_column(const std::string& name) const;

  void add_row(std::vector<std::string> row);
  const std::vector<std::string>& row(std::size_t i) const;

  /// Field accessors by (row, column-name).
  const std::string& cell(std::size_t row, const std::string& column) const;
  double cell_double(std::size_t row, const std::string& column) const;

  /// Whole column as doubles.
  std::vector<double> column_doubles(const std::string& name) const;
  std::vector<std::string> column_strings(const std::string& name) const;

  /// Serialize with RFC-4180-style quoting when needed.
  std::string to_string() const;
  /// Parse; throws InvalidArgument on ragged rows or bad quoting.
  static CsvTable parse(const std::string& text);

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace osprey::util
