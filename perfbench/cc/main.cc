// pabr_perfbench — runs one benchmark workload and prints its raw
// measurements as a single JSON document on stdout.
//
//   pabr_perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Workloads: road_stationary, road_timevarying, torus_sharded. Normally
// driven by perfbench/run.py, which builds this binary, reduces the raw
// samples and checks the digests against perfbench/references.json.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "bench.h"
#include "util/buildinfo.h"

namespace perfbench {

void Json::prefix(const char* key) {
  if (!first_.empty()) {
    if (!first_.back()) out_ += ',';
    first_.back() = false;
  }
  if (key != nullptr) {
    out_ += '"';
    out_ += key;
    out_ += "\":";
  }
}

Json& Json::begin_object(const char* key) {
  prefix(key);
  out_ += '{';
  first_.push_back(true);
  return *this;
}

Json& Json::end_object() {
  out_ += '}';
  first_.pop_back();
  return *this;
}

Json& Json::begin_array(const char* key) {
  prefix(key);
  out_ += '[';
  first_.push_back(true);
  return *this;
}

Json& Json::end_array() {
  out_ += ']';
  first_.pop_back();
  return *this;
}

namespace {
std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

Json& Json::field(const char* key, double v) {
  prefix(key);
  out_ += number(v);
  return *this;
}

Json& Json::field(const char* key, std::uint64_t v) {
  prefix(key);
  out_ += std::to_string(v);
  return *this;
}

Json& Json::field(const char* key, bool v) {
  prefix(key);
  out_ += v ? "true" : "false";
  return *this;
}

Json& Json::field(const char* key, const std::string& v) {
  prefix(key);
  out_ += '"';
  for (const char c : v) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out_ += ' ';
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

Json& Json::field(const char* key, const std::vector<double>& v) {
  begin_array(key);
  for (const double x : v) field(nullptr, x);
  return end_array();
}

std::string hex64(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

LayerMetric& Layers::samples(const std::string& name,
                             const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.name == name) return m;
  }
  metrics_.push_back({name, unit, "samples", {}, 0.0, 0.0, 0.0, 0});
  return metrics_.back();
}

void Layers::value(const std::string& name, const std::string& unit,
                   double v, std::uint64_t n) {
  metrics_.push_back({name, unit, "value", {}, v, 0.0, 0.0, n});
}

void Layers::ratio(const std::string& name, double num, double base) {
  metrics_.push_back({name, "ratio", "ratio", {}, 0.0, num, base, 1});
}

void Layers::write(Json& j) const {
  j.begin_object("layers");
  for (const auto& m : metrics_) {
    j.begin_object(m.name.c_str());
    j.field("unit", m.unit).field("kind", m.kind);
    if (m.kind == "samples") {
      j.field("samples", m.samples);
      // A sample without a batch count stands for one measurement.
      j.field("n", m.n == 0 ? static_cast<std::uint64_t>(m.samples.size())
                            : m.n);
    } else if (m.kind == "value") {
      j.field("value", m.value).field("n", m.n);
    } else {
      j.field("num", m.num).field("base", m.base);
    }
    j.end_object();
  }
  j.end_object();
}

void RunRecord::write(Json& j, const char* key) const {
  j.begin_object(key);
  j.field("setup_s", setup_s)
      .field("wall_s", wall_s)
      .field("sim_s", sim_s)
      .field("events", events)
      .field("digest", hex64(digest))
      .field("pcb", pcb)
      .field("phd", phd)
      .field("n_calc", n_calc)
      .field("oracles_ok", oracles_ok)
      .field("oracle_error", oracle_error)
      .field("traced", traced)
      .field("slice_ms", slice_ms);
  j.end_object();
}

namespace {
double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}
}  // namespace

double overhead_pct(std::vector<double> untraced, std::vector<double> traced) {
  const double off = median(std::move(untraced));
  return (off - median(std::move(traced))) / off * 100.0;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench

namespace {

int usage(const char* why) {
  std::cerr << "pabr_perfbench: " << why
            << "\nusage: pabr_perfbench --workload "
               "<road_stationary|road_timevarying|torus_sharded> "
               "--seed <n> --seconds <s> --trace <0|1>\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      opt.workload = value;
    } else if (flag == "--seed") {
      opt.seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0' || value.empty()) return usage("bad --seed");
    } else if (flag == "--seconds") {
      opt.seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(opt.seconds > 0.0)) return usage("bad --seconds");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") return usage("bad --trace");
      opt.trace = value == "1";
    } else {
      return usage(("unknown flag " + flag).c_str());
    }
  }

  Report report;
  try {
    if (!run_road(opt, report) && !run_torus(opt, report)) {
      return usage(("unknown workload '" + opt.workload + "'").c_str());
    }
  } catch (const std::exception& e) {
    std::cerr << "pabr_perfbench: " << e.what() << "\n";
    return 1;
  }

  Json j;
  j.begin_object();
  j.field("workload", opt.workload)
      .field("seed", opt.seed)
      .field("trace", opt.trace)
      .field("reference_seed", kReferenceSeed);
  j.begin_object("provenance");
  j.field("hw_concurrency",
          static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field("build_type", pabr::buildinfo::build_type())
      .field("git_sha", pabr::buildinfo::git_sha())
      .field("PABR_AUDIT", pabr::buildinfo::audit_enabled())
      .field("PABR_TELEMETRY", pabr::buildinfo::telemetry_enabled())
      .field("PABR_FAULT", pabr::buildinfo::fault_enabled());
  j.end_object();
  report.reference.write(j, "reference");
  j.begin_array("runs");
  for (const auto& r : report.runs) r.write(j);
  j.end_array();
  j.field("slice_ms", report.slice_ms).field("setup_s", report.setup_s);
  j.field("peak_rss_mb", peak_rss_mb());
  report.layers.write(j);
  j.begin_object("notes");
  for (const auto& [k, v] : report.notes) j.field(k.c_str(), v);
  j.end_object();
  j.begin_array("errors");
  for (const auto& e : report.errors) j.field(nullptr, e);
  j.end_array();
  j.end_object();
  std::cout << j.str() << "\n";
  return 0;
}
