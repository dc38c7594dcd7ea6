#include "util/table.h"

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

namespace cachesched {

Table::Table(std::vector<std::string> headers) : headers_(std::move(headers)) {}

void Table::add_row(std::vector<std::string> cells) {
  if (cells.size() != headers_.size()) {
    throw std::invalid_argument("Table row arity mismatch");
  }
  rows_.push_back(std::move(cells));
}

std::string Table::num(double v, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
  return buf;
}

std::string Table::num(uint64_t v) { return std::to_string(v); }
std::string Table::num(int64_t v) { return std::to_string(v); }

std::string Table::to_string() const {
  std::vector<size_t> width(headers_.size());
  for (size_t c = 0; c < headers_.size(); ++c) width[c] = headers_[c].size();
  for (const auto& row : rows_) {
    for (size_t c = 0; c < row.size(); ++c) {
      width[c] = std::max(width[c], row[c].size());
    }
  }
  std::ostringstream os;
  auto emit_row = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      os << "  ";
      os << row[c];
      os << std::string(width[c] - row[c].size(), ' ');
    }
    os << "\n";
  };
  emit_row(headers_);
  size_t total = 0;
  for (auto w : width) total += w + 2;
  os << std::string(total, '-') << "\n";
  for (const auto& row : rows_) emit_row(row);
  return os.str();
}

std::string Table::to_csv() const {
  std::ostringstream os;
  // RFC 4180: only cells that need it are quoted (commas appear in
  // parameterized scheduler specs like "ws:steal=half,seed=7"); plain
  // cells are emitted verbatim so historical CSV outputs stay
  // byte-identical.
  auto emit_cell = [&](const std::string& cell) {
    if (cell.find_first_of(",\"\n") == std::string::npos) {
      os << cell;
      return;
    }
    os << '"';
    for (char ch : cell) {
      if (ch == '"') os << '"';
      os << ch;
    }
    os << '"';
  };
  auto emit = [&](const std::vector<std::string>& row) {
    for (size_t c = 0; c < row.size(); ++c) {
      if (c) os << ",";
      emit_cell(row[c]);
    }
    os << "\n";
  };
  emit(headers_);
  for (const auto& row : rows_) emit(row);
  return os.str();
}

void Table::emit(const std::string& csv_path) const {
  std::cout << to_string() << std::flush;
  if (!csv_path.empty()) {
    std::ofstream f(csv_path);
    if (!f) throw std::runtime_error("cannot write " + csv_path);
    f << to_csv();
    std::cout << "[csv written to " << csv_path << "]\n";
  }
}

}  // namespace cachesched
