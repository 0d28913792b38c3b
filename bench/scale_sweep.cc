// Scale sweep for the sharded executor (DESIGN.md §12): how far does
// intra-run cell partitioning take one simulation?
//
// For each (grid, shard-count) point the SAME configuration is executed
// under the sharded executor and three things are recorded:
//   * throughput — simulation events per wall second ("events_per_s"),
//     the column scripts/bench_compare.py gates must-not-fall;
//   * the end-state digest — every shard count of a grid must print the
//     SAME digest (the "match" column), the bitwise-equivalence contract
//     checked continuously by tests/sharded_equivalence_test.cc;
//   * speedup over the single-shard run of the same grid.
//
// Default: two reduced grids (8x8, 16x16) at shards {1, 2, 4}. --full
// runs the acceptance configuration: a 32x32 torus (1024 cells) at
// 0.5 conn/s/cell for 2000 s simulated — over a million generated
// connections — at shards {1, 2, 4}.
//
// Speedup is bounded by the host: "hw_concurrency" in the JSON meta
// records how many hardware threads were actually available. On a
// single-core host every multi-shard run time-slices one CPU and
// speedup <= 1 is expected; the digests still must match.
#include <exception>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "sim/sharded/executor.h"

namespace {

std::string hex_digest(std::uint64_t v) {
  char buf[19];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

std::string fmt(const char* spec, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), spec, v);
  return buf;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  int only_shards = 0;
  int rows_override = 0;
  int cols_override = 0;
  double duration_override = 0.0;
  cli::Parser cli("scale_sweep",
                  "sharded-executor scale sweep: events/s and digest "
                  "equivalence across shard counts");
  bench::add_common_flags(cli, opts);
  bench::add_telemetry_flags(cli, opts);
  cli.add_int("shards", &only_shards,
              "run only this shard count (0 = sweep 1, 2, 4)", 0);
  cli.add_int("rows", &rows_override, "override grid rows (0 = sweep)", 0);
  cli.add_int("cols", &cols_override, "override grid cols (0 = sweep)", 0);
  cli.add_double("duration", &duration_override,
                 "override simulated seconds (0 = per-grid default)", 0.0);
  double checkpoint_every = 0.0;
  std::string checkpoint_path = "scale_sweep.pabrsnap";
  std::string resume_from;
  cli.add_double("checkpoint-every", &checkpoint_every,
                 "write a barrier-slot checkpoint every N simulated "
                 "seconds (0 = off; cadence snaps up to the slot grid)");
  cli.add_string("checkpoint-path", &checkpoint_path,
                 "checkpoint file prefix (suffixed -<cells>c<shards>s per "
                 "sweep point)");
  cli.add_string("resume-from", &resume_from,
                 "resume every sweep point from this snapshot (pin one "
                 "point with --rows/--cols/--shards; the file is "
                 "digest-checked against the point's config)");
  if (!cli.parse(argc, argv)) return 1;
  if (!resume_from.empty() &&
      (rows_override <= 0 || cols_override <= 0 || only_shards <= 0)) {
    std::cerr << "scale_sweep: --resume-from needs --rows, --cols and "
                 "--shards to pin a single sweep point\n";
    return 1;
  }

  bench::print_banner(
      "Scale sweep — deterministic cell-partitioned execution");
  std::cout << "hardware threads available: "
            << std::thread::hardware_concurrency() << "\n\n";

  struct GridPoint {
    int rows;
    int cols;
    double duration_s;
  };
  std::vector<GridPoint> grids;
  if (rows_override > 0 && cols_override > 0) {
    grids.push_back({rows_override, cols_override,
                     duration_override > 0.0 ? duration_override : 200.0});
  } else if (opts.full) {
    // Acceptance point: 1024 cells x 0.5 conn/s/cell x 2000 s
    // ~= 1.02M generated connections.
    grids.push_back({32, 32, 2000.0});
  } else {
    grids.push_back({8, 8, 300.0});
    grids.push_back({16, 16, 200.0});
  }
  std::vector<int> shard_counts;
  if (only_shards > 0) {
    shard_counts.push_back(only_shards);
  } else {
    shard_counts = {1, 2, 4};
  }

  // First column is the row key scripts/bench_compare.py matches on, so
  // it must be unique per (grid, shard-count) point.
  const std::vector<std::string> cols = {
      "point",  "cells",   "shards", "sim_s",   "events", "requests",
      "handoffs", "events_per_s", "speedup", "digest", "match", "pcb",
      "phd"};
  csv::Writer csv(opts.csv_path);
  csv.header(cols);
  bench::JsonReport json("scale_sweep", opts);
  json.columns(cols);
  json.meta_raw("hw_concurrency",
                std::to_string(std::thread::hardware_concurrency()));

  std::printf("%7s %7s %7s %10s %10s %9s %12s %8s %17s %6s\n", "cells",
              "shards", "sim_s", "events", "requests", "handoffs",
              "events_per_s", "speedup", "digest", "match");
  double total_wall = 0.0;
  std::uint64_t total_events = 0;
  bool all_match = true;
  for (const GridPoint& g : grids) {
    double base_eps = 0.0;
    std::uint64_t base_digest = 0;
    for (const int shards : shard_counts) {
      sim::sharded::ShardedConfig cfg;
      cfg.system.rows = g.rows;
      cfg.system.cols = g.cols;
      cfg.system.wrap = true;
      cfg.system.policy = admission::PolicyKind::kAc2;
      cfg.system.arrival_rate_per_cell = 0.5;
      cfg.system.seed = opts.seed;
      cfg.system.telemetry = opts.telemetry_config();
      cfg.shards = shards;
      cfg.duration_s = g.duration_s;
      if (checkpoint_every > 0.0) {
        cfg.checkpoint_every_s = checkpoint_every;
        cfg.checkpoint_path = checkpoint_path + "-" +
                              std::to_string(g.rows * g.cols) + "c" +
                              std::to_string(shards) + "s";
      }
      cfg.resume_from = resume_from;
      sim::sharded::ShardedResult r;
      try {
        r = sim::sharded::ShardedExecutor(cfg).run();
      } catch (const std::exception& e) {
        if (resume_from.empty()) throw;
        std::cerr << "scale_sweep: cannot resume from " << resume_from
                  << ": " << e.what() << "\n";
        return 1;
      }
      total_wall += r.wall_seconds;
      total_events += r.events;

      if (base_digest == 0) {
        base_digest = r.digest;
        base_eps = r.events_per_second;
      }
      const bool match = r.digest == base_digest;
      all_match = all_match && match;
      const double speedup =
          base_eps > 0.0 ? r.events_per_second / base_eps : 0.0;
      const int cells = g.rows * g.cols;

      std::printf("%7d %7d %7.0f %10llu %10llu %9llu %12.0f %8.2f %17s %6s\n",
                  cells, shards, g.duration_s,
                  static_cast<unsigned long long>(r.events),
                  static_cast<unsigned long long>(r.status.requests),
                  static_cast<unsigned long long>(r.status.handoffs),
                  r.events_per_second, speedup,
                  hex_digest(r.digest).c_str(), match ? "yes" : "NO");

      const std::vector<std::string> row = {
          std::to_string(cells) + "c" + std::to_string(shards) + "s",
          std::to_string(cells),
          std::to_string(shards),
          fmt("%.0f", g.duration_s),
          std::to_string(r.events),
          std::to_string(r.status.requests),
          std::to_string(r.status.handoffs),
          fmt("%.1f", r.events_per_second),
          fmt("%.4f", speedup),
          hex_digest(r.digest),
          match ? "yes" : "no",
          fmt("%.6f", r.status.pcb),
          fmt("%.6f", r.status.phd)};
      csv.row(row);
      json.row(row);
    }
  }
  std::printf("\ntotal: %llu events in %.2f s wall\n",
              static_cast<unsigned long long>(total_events), total_wall);
  if (!all_match) {
    std::printf("DIGEST MISMATCH: shard counts disagree — this is a bug\n");
  }
  json.counter("wall_seconds", total_wall);
  json.counter("events_total", static_cast<double>(total_events));
  json.counter("events_per_s",
               total_wall > 0.0
                   ? static_cast<double>(total_events) / total_wall
                   : 0.0);
  json.counter("digests_match", all_match ? 1.0 : 0.0);
  json.write();
  return all_match ? 0 : 1;
}
