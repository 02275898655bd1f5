#include "eval/table.hpp"

#include <algorithm>
#include <sstream>

namespace nd::eval {

TextTable::TextTable(std::vector<std::string> header)
    : header_(std::move(header)) {}

void TextTable::add_row(std::vector<std::string> cells) {
  cells.resize(header_.size());
  rows_.push_back(std::move(cells));
}

std::string TextTable::to_string() const {
  std::vector<std::size_t> widths(header_.size());
  for (std::size_t c = 0; c < header_.size(); ++c) {
    widths[c] = header_[c].size();
  }
  for (const auto& row : rows_) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      widths[c] = std::max(widths[c], row[c].size());
    }
  }

  std::ostringstream out;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (std::size_t c = 0; c < row.size(); ++c) {
      out << "| " << row[c];
      out << std::string(widths[c] - row[c].size() + 1, ' ');
    }
    out << "|\n";
  };
  emit_row(header_);
  for (std::size_t c = 0; c < header_.size(); ++c) {
    out << "|" << std::string(widths[c] + 2, '-');
  }
  out << "|\n";
  for (const auto& row : rows_) {
    emit_row(row);
  }
  return out.str();
}

}  // namespace nd::eval
