#include "util/csv.h"

#include <iostream>
#include <sstream>

namespace pabr::csv {

std::string escape(const std::string& field) {
  bool needs_quotes = field.find_first_of(",\"\n\r") != std::string::npos;
  if (!needs_quotes) return field;
  std::string out = "\"";
  for (char c : field) {
    if (c == '"') out += '"';
    out += c;
  }
  out += '"';
  return out;
}

std::string join(const std::vector<std::string>& fields) {
  std::string line;
  for (size_t i = 0; i < fields.size(); ++i) {
    if (i) line += ',';
    line += escape(fields[i]);
  }
  return line;
}

Writer::Writer(const std::string& path) {
  if (path.empty()) return;
  out_.open(path);
  if (!out_) std::cerr << "warning: cannot write CSV to " << path << '\n';
}

void Writer::header(const std::vector<std::string>& names) {
  if (!out_) return;
  out_ << join(names) << '\n';
}

void Writer::row(const std::vector<std::string>& fields) {
  if (!out_) return;
  out_ << join(fields) << '\n';
}

std::string Writer::format(double v) {
  std::ostringstream os;
  os.precision(10);
  os << v;
  return os.str();
}

}  // namespace pabr::csv
