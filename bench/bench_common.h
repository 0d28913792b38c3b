// Shared plumbing for the figure/table reproduction binaries.
//
// Every bench accepts:
//   --full        paper-scale run lengths (defaults are shape-preserving
//                 but shorter so the whole suite finishes in minutes)
//   --seed N      simulation seed
//   --csv PATH    mirror the printed rows into a CSV file
//   --json PATH   mirror rows + run counters into a JSON report
//
// Benches whose runs are independent (replications / sweep points) also
// take --threads N (see sim/parallel.h: results are byte-identical to
// --threads 1).
#pragma once

#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "core/scenario.h"
#include "telemetry/telemetry.h"
#include "telemetry/trace.h"
#include "util/buildinfo.h"
#include "util/cli.h"
#include "util/csv.h"

namespace pabr::bench {

struct CommonOptions {
  bool full = false;
  unsigned long long seed = 1;
  std::string csv_path;
  std::string json_path;
  int threads = 1;
  /// --telemetry: collect counters/histograms.
  bool telemetry = false;
  /// --trace-out PATH: write a binary event trace; implies --telemetry.
  std::string trace_out;

  bool telemetry_requested() const {
    return telemetry || !trace_out.empty();
  }

  /// The TelemetryConfig the bench's systems should run with.
  telemetry::TelemetryConfig telemetry_config() const {
    telemetry::TelemetryConfig cfg;
    cfg.enabled = telemetry_requested();
    cfg.trace = !trace_out.empty();
    return cfg;
  }

  core::RunPlan plan() const {
    core::RunPlan p;
    if (full) {
      p.warmup_s = 4000.0;
      p.measure_s = 20000.0;
    } else {
      p.warmup_s = 1000.0;
      p.measure_s = 3000.0;
    }
    return p;
  }
};

/// Registers the common flags on `cli`.
inline void add_common_flags(cli::Parser& cli, CommonOptions& opts) {
  cli.add_bool("full", &opts.full, "paper-scale run lengths");
  cli.add_uint64("seed", &opts.seed, "simulation seed");
  cli.add_string("csv", &opts.csv_path, "also write rows to this CSV file");
  cli.add_string("json", &opts.json_path,
                 "also write rows and run counters to this JSON file");
}

/// Registers --threads (only for benches whose runs fan out in parallel).
inline void add_threads_flag(cli::Parser& cli, CommonOptions& opts) {
  cli.add_int("threads", &opts.threads,
              "worker threads for independent runs (results are identical "
              "to --threads 1)");
}

/// Registers --telemetry / --trace-out (benches that build SystemConfigs
/// through CommonOptions::telemetry_config()). Purely observational:
/// simulation trajectories are byte-identical whatever these are set to.
inline void add_telemetry_flags(cli::Parser& cli, CommonOptions& opts) {
  cli.add_bool("telemetry", &opts.telemetry,
               "collect run counters/histograms (reported under "
               "\"metrics\" in --json)");
  cli.add_string("trace-out", &opts.trace_out,
                 "write a binary event trace (.pabrtrace) to this path; "
                 "implies --telemetry (inspect with pabr-trace)");
}

/// Writes the merged .pabrtrace for a bench run: one stream per
/// replication/sweep slot, stamped in slot order so the file bytes are
/// independent of --threads. No-op when --trace-out was not given.
inline void write_bench_trace(
    const std::string& bench, const CommonOptions& opts,
    const std::vector<std::vector<telemetry::TraceRecord>>& streams,
    std::uint64_t rotated_out) {
  if (opts.trace_out.empty()) return;
  telemetry::TraceMeta meta;
  meta.set("bench", bench);
  meta.set("seed", std::to_string(opts.seed));
  meta.set("threads", std::to_string(opts.threads));
  meta.set("full", opts.full ? "1" : "0");
  meta.set("git_sha", buildinfo::git_sha());
  meta.set("build_type", buildinfo::build_type());
  std::size_t n = 0;
  for (const auto& s : streams) n += s.size();
  if (telemetry::write_merged_trace(opts.trace_out, meta, streams,
                                    rotated_out)) {
    std::cout << "Wrote " << n << " trace records ("
              << streams.size() << " streams) to " << opts.trace_out
              << "\n";
  }
}

/// Convenience overload: pulls the trace streams out of RunResults.
inline void write_bench_trace(const std::string& bench,
                              const CommonOptions& opts,
                              const std::vector<core::RunResult>& runs) {
  if (opts.trace_out.empty()) return;
  std::vector<std::vector<telemetry::TraceRecord>> streams;
  std::uint64_t rotated = 0;
  streams.reserve(runs.size());
  for (const core::RunResult& r : runs) {
    streams.push_back(r.trace);
    rotated += r.trace_rotated_out;
  }
  write_bench_trace(bench, opts, streams, rotated);
}

/// Machine-readable mirror of a bench's output: the printed table rows
/// plus named run counters (wall-clock seconds, B_r calculations, ...).
/// Construct with the path from --json (empty = inert) and call write()
/// once at the end:
///
///   {"bench": "...", "seed": 3, "full": false,
///    "meta": {"git_sha": "...", "build_type": "...", "threads": 1,
///             "telemetry": false},
///    "columns": [...], "rows": [[...], ...],
///    "counters": {"wall_seconds": 12.3, ...},
///    "metrics": {"counters": {...}, "gauges": {...},
///                "histograms": {"admission.ns": {"count": ..., ...}}}}
///
/// "meta" (run provenance) is always present; "metrics" only when a
/// telemetry snapshot was attached via metrics().
class JsonReport {
 public:
  JsonReport(std::string bench, const CommonOptions& opts)
      : bench_(std::move(bench)),
        path_(opts.json_path),
        seed_(opts.seed),
        full_(opts.full) {
    meta_.emplace_back("git_sha", quote(buildinfo::git_sha()));
    meta_.emplace_back("build_type", quote(buildinfo::build_type()));
    meta_.emplace_back("threads", number(opts.threads));
    meta_.emplace_back("telemetry",
                       opts.telemetry_requested() ? "true" : "false");
  }

  bool active() const { return !path_.empty(); }

  void columns(std::vector<std::string> names) { columns_ = std::move(names); }
  void row(std::vector<std::string> fields) {
    rows_.push_back(std::move(fields));
  }
  void counter(const std::string& name, double value) {
    counters_.emplace_back(name, value);
  }
  /// Extra provenance entry (pre-encoded booleans/numbers use meta_raw).
  void meta(const std::string& key, const std::string& value) {
    meta_.emplace_back(key, quote(value));
  }
  void meta_raw(const std::string& key, std::string json_value) {
    meta_.emplace_back(key, std::move(json_value));
  }
  /// Attaches a telemetry snapshot, serialized under "metrics".
  void metrics(telemetry::MetricsSnapshot snapshot) {
    metrics_ = std::move(snapshot);
  }

  /// Serializes the report; best-effort like csv::Writer (an unwritable
  /// path only prints a warning).
  void write() const {
    if (!active()) return;
    std::ofstream out(path_);
    if (!out) {
      std::cerr << "warning: cannot write JSON report to " << path_ << '\n';
      return;
    }
    out << "{\n  \"bench\": " << quote(bench_) << ",\n  \"seed\": " << seed_
        << ",\n  \"full\": " << (full_ ? "true" : "false")
        << ",\n  \"meta\": {";
    for (std::size_t i = 0; i < meta_.size(); ++i) {
      out << (i == 0 ? "\n    " : ",\n    ") << quote(meta_[i].first) << ": "
          << meta_[i].second;
    }
    out << (meta_.empty() ? "}" : "\n  }") << ",\n  \"columns\": ";
    string_array(out, columns_);
    out << ",\n  \"rows\": [";
    for (std::size_t i = 0; i < rows_.size(); ++i) {
      out << (i == 0 ? "\n    " : ",\n    ");
      string_array(out, rows_[i]);
    }
    out << (rows_.empty() ? "]" : "\n  ]") << ",\n  \"counters\": {";
    for (std::size_t i = 0; i < counters_.size(); ++i) {
      out << (i == 0 ? "\n    " : ",\n    ") << quote(counters_[i].first)
          << ": " << number(counters_[i].second);
    }
    out << (counters_.empty() ? "}" : "\n  }");
    if (!metrics_.empty()) {
      out << ",\n  \"metrics\": {\n    \"counters\": {";
      for (std::size_t i = 0; i < metrics_.counters.size(); ++i) {
        out << (i == 0 ? "\n      " : ",\n      ")
            << quote(metrics_.counters[i].first) << ": "
            << metrics_.counters[i].second;
      }
      out << (metrics_.counters.empty() ? "}" : "\n    }")
          << ",\n    \"gauges\": {";
      for (std::size_t i = 0; i < metrics_.gauges.size(); ++i) {
        out << (i == 0 ? "\n      " : ",\n      ")
            << quote(metrics_.gauges[i].first) << ": "
            << number(metrics_.gauges[i].second);
      }
      out << (metrics_.gauges.empty() ? "}" : "\n    }")
          << ",\n    \"histograms\": {";
      for (std::size_t i = 0; i < metrics_.histograms.size(); ++i) {
        const auto& h = metrics_.histograms[i];
        out << (i == 0 ? "\n      " : ",\n      ") << quote(h.name)
            << ": {\"count\": " << h.count << ", \"sum\": " << number(h.sum)
            << ", \"min\": " << number(h.min)
            << ", \"max\": " << number(h.max)
            << ", \"p50\": " << number(h.p50)
            << ", \"p99\": " << number(h.p99)
            << ", \"underflow\": " << h.underflow
            << ", \"overflow\": " << h.overflow << "}";
      }
      out << (metrics_.histograms.empty() ? "}" : "\n    }") << "\n  }";
    }
    out << "\n}\n";
  }

 private:
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\t': out += "\\t"; break;
        default: out += c;
      }
    }
    out += '"';
    return out;
  }

  static std::string number(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
  }

  static void string_array(std::ofstream& out,
                           const std::vector<std::string>& xs) {
    out << '[';
    for (std::size_t i = 0; i < xs.size(); ++i) {
      if (i > 0) out << ", ";
      out << quote(xs[i]);
    }
    out << ']';
  }

  std::string bench_;
  std::string path_;
  unsigned long long seed_;
  bool full_;
  std::vector<std::string> columns_;
  std::vector<std::vector<std::string>> rows_;
  std::vector<std::pair<std::string, double>> counters_;
  /// Provenance key → pre-encoded JSON value, emission order.
  std::vector<std::pair<std::string, std::string>> meta_;
  telemetry::MetricsSnapshot metrics_;
};

inline void print_banner(const std::string& what) {
  std::cout << "==============================================================="
               "=\n"
            << what << "\n"
            << "(reproduction of Choi & Shin, SIGCOMM'98 — shapes, not exact "
               "samples)\n"
            << "==============================================================="
               "=\n";
}

inline const char* policy_flag_name(admission::PolicyKind k) {
  return admission::policy_kind_name(k);
}

}  // namespace pabr::bench
