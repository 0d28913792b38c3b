// A tiny command-line flag parser used by the bench and example binaries.
//
// Flags are declared up front (`add_flag`), then `parse` consumes
// `--name=value`, `--name value` and bare boolean `--name` forms.
// Unknown flags are an error so that typos in experiment sweeps fail loudly.
#pragma once

#include <functional>
#include <limits>
#include <map>
#include <optional>
#include <string>
#include <vector>

namespace pabr::cli {

/// Declarative command-line parser. Example:
///
///   cli::Parser p("fig08", "AC3 load sweep");
///   double load = 100.0;
///   bool full = false;
///   p.add_double("load", &load, "offered load per cell (BU)");
///   p.add_bool("full", &full, "run the paper-scale configuration");
///   if (!p.parse(argc, argv)) return 1;
class Parser {
 public:
  Parser(std::string program, std::string description);

  void add_bool(const std::string& name, bool* target, std::string help);
  /// Integer flag; values below `min` are rejected at parse time (count
  /// flags pass their smallest meaningful value so a negative count fails
  /// closed instead of reaching the program).
  void add_int(const std::string& name, int* target, std::string help,
               int min = std::numeric_limits<int>::min());
  void add_uint64(const std::string& name, unsigned long long* target,
                  std::string help);
  void add_double(const std::string& name, double* target, std::string help);
  void add_string(const std::string& name, std::string* target,
                  std::string help);

  /// Parses argv. Returns false (after printing usage or an error to
  /// stderr) when parsing fails or `--help` was requested.
  bool parse(int argc, const char* const* argv);

  /// Positional arguments left over after flag parsing.
  const std::vector<std::string>& positional() const { return positional_; }

  /// Renders the usage/help text.
  std::string usage() const;

 private:
  struct Flag {
    enum class Kind { kBool, kInt, kUint64, kDouble, kString };
    Kind kind;
    void* target;
    std::string help;
    std::string default_repr;
    int min = std::numeric_limits<int>::min();  ///< kInt lower bound
  };

  bool assign(const std::string& name, const std::string& value);

  std::string program_;
  std::string description_;
  std::map<std::string, Flag> flags_;
  std::vector<std::string> positional_;
};

}  // namespace pabr::cli
