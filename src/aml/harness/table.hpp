// Plain-text table rendering for the benchmark harnesses: aligned columns on
// stdout (the paper-style tables EXPERIMENTS.md quotes). The machine-readable
// copy of every table is the bench's JSON report (report.hpp).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace aml::harness {

class Table {
 public:
  explicit Table(std::string title) : title_(std::move(title)) {}

  Table& headers(std::vector<std::string> headers);
  Table& row(std::vector<std::string> cells);

  /// Render with aligned columns (numbers right-aligned heuristically).
  void print(std::ostream& os) const;
  void print() const;  ///< to stdout

  const std::string& title() const { return title_; }
  std::size_t rows() const { return rows_.size(); }
  const std::vector<std::string>& header_row() const { return headers_; }
  const std::vector<std::vector<std::string>>& row_data() const {
    return rows_;
  }

  // Cell formatting helpers.
  static std::string num(std::uint64_t v);
  static std::string num(double v, int precision = 2);

 private:
  std::string title_;
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace aml::harness
