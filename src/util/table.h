// Console table / CSV emission for the CLI. Every paper artifact and sweep
// prints (a) an aligned human-readable table and (b) optionally a CSV file,
// so results can be diffed against earlier runs and replotted.
#pragma once

#include <string>
#include <vector>

namespace cachesched {

class Table {
 public:
  explicit Table(std::vector<std::string> headers);

  /// Adds a row; must match the header arity.
  void add_row(std::vector<std::string> cells);

  /// Convenience: formats doubles with `precision` significant decimals.
  static std::string num(double v, int precision = 3);
  static std::string num(uint64_t v);
  static std::string num(int64_t v);

  /// Renders an aligned ASCII table.
  std::string to_string() const;

  /// Renders CSV. Cells containing commas, quotes or newlines (e.g.
  /// parameterized scheduler specs) are RFC-4180 quoted; all other cells
  /// are emitted verbatim.
  std::string to_csv() const;

  /// Prints the table to stdout, then writes CSV to `csv_path` if
  /// non-empty; throws std::runtime_error if the file cannot be opened.
  void emit(const std::string& csv_path = "") const;

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace cachesched
