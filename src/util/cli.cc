#include "util/cli.h"

#include <cstdlib>
#include <iostream>
#include <set>
#include <sstream>

#include "util/check.h"

namespace pabr::cli {
namespace {

std::string bool_repr(bool v) { return v ? "true" : "false"; }

}  // namespace

Parser::Parser(std::string program, std::string description)
    : program_(std::move(program)), description_(std::move(description)) {}

void Parser::add_bool(const std::string& name, bool* target, std::string help) {
  PABR_CHECK(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{Flag::Kind::kBool, target, std::move(help),
                      bool_repr(*target)};
}

void Parser::add_int(const std::string& name, int* target, std::string help,
                     int min) {
  PABR_CHECK(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{Flag::Kind::kInt, target, std::move(help),
                      std::to_string(*target), min};
}

void Parser::add_uint64(const std::string& name, unsigned long long* target,
                        std::string help) {
  PABR_CHECK(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{Flag::Kind::kUint64, target, std::move(help),
                      std::to_string(*target)};
}

void Parser::add_double(const std::string& name, double* target,
                        std::string help) {
  PABR_CHECK(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{Flag::Kind::kDouble, target, std::move(help),
                      std::to_string(*target)};
}

void Parser::add_string(const std::string& name, std::string* target,
                        std::string help) {
  PABR_CHECK(!flags_.count(name), "duplicate flag: " + name);
  flags_[name] = Flag{Flag::Kind::kString, target, std::move(help), *target};
}

bool Parser::assign(const std::string& name, const std::string& value) {
  auto it = flags_.find(name);
  if (it == flags_.end()) {
    std::cerr << program_ << ": unknown flag --" << name << "\n";
    return false;
  }
  Flag& flag = it->second;
  try {
    switch (flag.kind) {
      case Flag::Kind::kBool: {
        bool* t = static_cast<bool*>(flag.target);
        if (value == "" || value == "true" || value == "1") {
          *t = true;
        } else if (value == "false" || value == "0") {
          *t = false;
        } else {
          std::cerr << program_ << ": bad boolean for --" << name << ": '"
                    << value << "'\n";
          return false;
        }
        break;
      }
      case Flag::Kind::kInt: {
        const int v = std::stoi(value);
        if (v < flag.min) {
          std::cerr << program_ << ": bad value for --" << name << ": '"
                    << value << "' (must be >= " << flag.min << ")\n";
          return false;
        }
        *static_cast<int*>(flag.target) = v;
        break;
      }
      case Flag::Kind::kUint64:
        *static_cast<unsigned long long*>(flag.target) = std::stoull(value);
        break;
      case Flag::Kind::kDouble:
        *static_cast<double*>(flag.target) = std::stod(value);
        break;
      case Flag::Kind::kString:
        *static_cast<std::string*>(flag.target) = value;
        break;
    }
  } catch (const std::exception&) {
    std::cerr << program_ << ": bad value for --" << name << ": '" << value
              << "'\n";
    return false;
  }
  return true;
}

bool Parser::parse(int argc, const char* const* argv) {
  // Flags already assigned in this parse: a repeated flag (in either the
  // `--name=value` or the split `--name value` form) is an error, not a
  // silent last-wins — scripted bench invocations that concatenate flag
  // lists must fail loudly instead of dropping the first value.
  std::set<std::string> seen;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      std::cerr << usage();
      return false;
    }
    if (arg.rfind("--", 0) != 0) {
      positional_.push_back(arg);
      continue;
    }
    std::string body = arg.substr(2);
    std::string value;
    bool have_value = false;
    const auto eq = body.find('=');
    if (eq != std::string::npos) {
      value = body.substr(eq + 1);
      body = body.substr(0, eq);
      have_value = true;
    }
    const auto it = flags_.find(body);
    if (it == flags_.end()) {
      std::cerr << program_ << ": unknown flag --" << body << "\n";
      return false;
    }
    if (!seen.insert(body).second) {
      std::cerr << program_ << ": duplicate flag --" << body
                << " (each flag may be given at most once)\n";
      return false;
    }
    if (!have_value) {
      // "--name value" or bare boolean "--name".
      if (it->second.kind == Flag::Kind::kBool) {
        if (!assign(body, "")) return false;
        continue;
      }
      if (i + 1 >= argc) {
        std::cerr << program_ << ": --" << body << " requires a value\n";
        return false;
      }
      value = argv[++i];
    }
    if (!assign(body, value)) return false;
  }
  return true;
}

std::string Parser::usage() const {
  std::ostringstream os;
  os << program_ << " — " << description_ << "\n\nFlags:\n";
  for (const auto& [name, flag] : flags_) {
    os << "  --" << name << "  (default: " << flag.default_repr << ")\n      "
       << flag.help << "\n";
  }
  return os.str();
}

}  // namespace pabr::cli
