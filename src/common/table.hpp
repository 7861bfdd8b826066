// Result tables: aligned console rendering plus CSV export.
//
// Every bench binary emits exactly the rows/series the corresponding paper
// table or figure reports, through this one writer, so output formats stay
// uniform across the reproduction.
#pragma once

#include <string>
#include <vector>

namespace qc::common {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Appends one row; must match the header arity.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles/ints with format_double.
  void add_row_values(const std::vector<double>& values);

  std::size_t num_rows() const { return rows_.size(); }
  const std::vector<std::string>& headers() const { return headers_; }
  const std::vector<std::string>& row(std::size_t i) const;

  /// Renders an aligned, boxed ASCII table.
  std::string to_string() const;

  /// RFC-4180-ish CSV (quotes fields containing comma/quote/newline).
  std::string to_csv() const;

  /// Writes CSV to `path` (truncates). Throws on I/O failure.
  void write_csv(const std::string& path) const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace qc::common
