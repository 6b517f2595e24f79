// ASCII table rendering for benchmark / report output.
//
// Every report section reproduces one of the paper's tables; TextTable
// renders them aligned with a header rule so the output can be diffed
// against EXPERIMENTS.md.
#pragma once

#include <string>
#include <vector>

namespace entrace {

class TextTable {
 public:
  explicit TextTable(std::string title = "");

  void set_header(std::vector<std::string> header);
  void add_row(std::vector<std::string> row);
  // Horizontal separator row.
  void add_rule();

  std::string render() const;

 private:
  std::string title_;
  std::vector<std::string> header_;
  // Empty vector encodes a rule.
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace entrace
