// Plain-text table rendering for the bench harnesses, so every
// regenerated table prints with the same layout as the paper's.
#pragma once

#include <string>
#include <vector>

namespace nd::eval {

class TextTable {
 public:
  explicit TextTable(std::vector<std::string> header);

  void add_row(std::vector<std::string> cells);

  /// Aligned ASCII rendering with a header separator.
  [[nodiscard]] std::string to_string() const;

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace nd::eval
