#include "aml/harness/table.hpp"

#include <algorithm>
#include <cctype>
#include <cstdio>
#include <iostream>

namespace aml::harness {

Table& Table::headers(std::vector<std::string> headers) {
  headers_ = std::move(headers);
  return *this;
}

Table& Table::row(std::vector<std::string> cells) {
  rows_.push_back(std::move(cells));
  return *this;
}

namespace {
bool looks_numeric(const std::string& s) {
  if (s.empty()) return false;
  for (char c : s) {
    if (!std::isdigit(static_cast<unsigned char>(c)) && c != '.' &&
        c != '-' && c != '+' && c != 'e' && c != 'x') {
      return false;
    }
  }
  return true;
}
}  // namespace

void Table::print(std::ostream& os) const {
  std::vector<std::size_t> widths(headers_.size(), 0);
  auto widen = [&](const std::vector<std::string>& cells) {
    if (cells.size() > widths.size()) widths.resize(cells.size(), 0);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      widths[i] = std::max(widths[i], cells[i].size());
    }
  };
  widen(headers_);
  for (const auto& r : rows_) widen(r);

  os << "== " << title_ << " ==\n";
  auto emit = [&](const std::vector<std::string>& cells, bool align_right) {
    for (std::size_t i = 0; i < widths.size(); ++i) {
      const std::string cell = i < cells.size() ? cells[i] : "";
      const bool right = align_right && looks_numeric(cell);
      const std::size_t pad = widths[i] - cell.size();
      if (right) os << std::string(pad, ' ') << cell;
      else os << cell << std::string(pad, ' ');
      os << (i + 1 < widths.size() ? "  " : "");
    }
    os << "\n";
  };
  emit(headers_, false);
  std::size_t total = 0;
  for (std::size_t w : widths) total += w + 2;
  os << std::string(total > 2 ? total - 2 : total, '-') << "\n";
  for (const auto& r : rows_) emit(r, true);
  os << "\n";
}

void Table::print() const { print(std::cout); }

std::string Table::num(std::uint64_t v) { return std::to_string(v); }

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.*f", precision, v);
  return buf;
}

}  // namespace aml::harness
