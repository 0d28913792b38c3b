// Micro-benchmark of the estimator hot paths behind every B_r term:
// quadruplet ingestion (record), warm-snapshot probability lookups and
// probes, snapshot rebuilds (the arena-backed build_snapshot), the
// finite-T_int select path (periodic windows, priority rule), and the
// footprint export. Partner bench to micro_admission: where that one
// times whole admission tests, this one times the estimator primitives
// they decompose into, so the CI bench gate (scripts/bench_compare.py
// against BENCH_micro_estimator.json) can pin down WHICH layer regressed.
//
// The workload is seed-fixed and iteration counts are constant, so two
// runs execute identical operation sequences — only the ns/op varies.
#include <chrono>
#include <functional>

#include "bench_common.h"
#include "hoef/estimator.h"
#include "sim/random.h"

namespace {

using namespace pabr;

constexpr geom::CellId kSelf = 0;
constexpr geom::CellId kPrevs[] = {0, 1, 2};
constexpr geom::CellId kNexts[] = {1, 2};

hoef::HandoffEstimator seeded_estimator(int events, sim::Duration t_int,
                                        unsigned long long seed) {
  hoef::EstimatorConfig cfg;
  cfg.t_int = t_int;
  hoef::HandoffEstimator e(kSelf, cfg);
  sim::Rng rng(seed);
  sim::Time t = 0.0;
  for (int i = 0; i < events; ++i) {
    t += 0.5;
    e.record({t, kPrevs[rng.uniform_int(0, 2)], kNexts[rng.uniform_int(0, 1)],
              rng.uniform(1.0, 120.0)});
  }
  return e;
}

struct PathResult {
  double ns_per_op = 0.0;
  std::uint64_t ops = 0;
};

/// Times `op` over `ops` iterations (already warmed by the caller).
PathResult timed(std::uint64_t ops, const std::function<void()>& op) {
  PathResult r;
  r.ops = ops;
  const auto t0 = std::chrono::steady_clock::now();
  for (std::uint64_t i = 0; i < ops; ++i) op();
  const auto busy = std::chrono::steady_clock::now() - t0;
  r.ns_per_op = std::chrono::duration<double, std::nano>(busy).count() /
                static_cast<double>(ops);
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  int events = 600;  // ~100 per (prev, next) pair: N_quad-full rings
  cli::Parser cli("micro_estimator",
                  "ns per estimator hot-path operation: record, probe, "
                  "snapshot rebuild, select, footprint");
  bench::add_common_flags(cli, opts);
  cli.add_int("events", &events, "quadruplets pre-recorded per estimator",
              1);
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Micro — estimator hot paths (record / probe / "
                      "snapshot / select / footprint)");
  const std::uint64_t warm_ops = opts.full ? 2000000 : 400000;
  const std::uint64_t build_ops = opts.full ? 50000 : 10000;

  csv::Writer csv(opts.csv_path);
  csv.header({"path", "ns_per_op", "ops"});
  bench::JsonReport json("micro_estimator", opts);
  json.columns({"path", "ns_per_op", "ops"});
  core::TablePrinter table({"path", "ns/op", "ops"}, {24, 10, 9});
  table.print_header();

  const auto t0_wall = std::chrono::steady_clock::now();
  std::vector<std::pair<std::string, PathResult>> rows;

  {  // Quadruplet ingestion into N_quad-capped rings.
    auto e = seeded_estimator(events, sim::kInfiniteDuration, opts.seed);
    sim::Time t = 1e6;
    rows.emplace_back("record", timed(warm_ops, [&] {
      t += 0.5;
      e.record({t, 1, 2, 30.0});
    }));
  }
  {  // Warm-snapshot Eq. (4) lookup (two prefix-sum binary searches).
    auto e = seeded_estimator(events, sim::kInfiniteDuration, opts.seed);
    double ext = 0.0;
    double sink = 0.0;
    rows.emplace_back("probability_warm", timed(warm_ops, [&] {
      ext = ext > 100.0 ? 0.0 : ext + 0.37;
      sink += e.handoff_probability(1e6, 1, 2, ext, 30.0);
    }));
    if (sink < 0.0) std::cout << sink;  // defeat dead-code elimination
  }
  {  // Probe: the lookup plus its validity horizon (engine cache feed).
    auto e = seeded_estimator(events, sim::kInfiniteDuration, opts.seed);
    double ext = 0.0;
    double sink = 0.0;
    rows.emplace_back("probe_warm", timed(warm_ops, [&] {
      ext = ext > 100.0 ? 0.0 : ext + 0.37;
      sink += e.handoff_probability_probe(1e6, 1, 2, ext, 30.0).probability;
    }));
    if (sink < 0.0) std::cout << sink;
  }
  {  // Record + lookup: every iteration invalidates and rebuilds the
     // prev's snapshot (arena reset + select + sort + prefix sums).
    auto e = seeded_estimator(events, sim::kInfiniteDuration, opts.seed);
    sim::Time t = 1e6;
    double sink = 0.0;
    rows.emplace_back("snapshot_rebuild", timed(build_ops, [&] {
      t += 0.5;
      e.record({t, 1, 2, 30.0});
      sink += e.handoff_probability(t, 1, 2, 10.0, 30.0);
    }));
    if (sink < 0.0) std::cout << sink;
  }
  {  // Finite T_int with zero tolerance: every query at a new t0 reruns
     // the periodic-window select (claimed-range walk + priority rule).
    hoef::EstimatorConfig cfg;
    cfg.t_int = 2.0 * sim::kHour;
    cfg.snapshot_tolerance = 0.0;
    hoef::HandoffEstimator e(kSelf, cfg);
    sim::Rng rng(opts.seed);
    sim::Time t = 0.0;
    for (int i = 0; i < events; ++i) {
      t += 30.0;
      e.record({t, kPrevs[rng.uniform_int(0, 2)],
                kNexts[rng.uniform_int(0, 1)], rng.uniform(1.0, 120.0)});
    }
    sim::Time q = t;
    double sink = 0.0;
    rows.emplace_back("select_finite_tint", timed(build_ops, [&] {
      q += 0.25;
      sink += e.handoff_probability(q, 1, 2, 10.0, 30.0);
    }));
    if (sink < 0.0) std::cout << sink;
  }
  {  // Footprint export (paper Fig. 4) off a warm snapshot.
    auto e = seeded_estimator(events, sim::kInfiniteDuration, opts.seed);
    std::size_t sink = 0;
    rows.emplace_back("footprint_warm", timed(build_ops, [&] {
      sink += e.footprint(1e6, 1).size();
    }));
    if (sink == 0) std::cout << "";
  }

  for (const auto& [path, r] : rows) {
    table.print_row({path, core::TablePrinter::fixed(r.ns_per_op, 1),
                     std::to_string(r.ops)});
    csv.row_values(path, r.ns_per_op, static_cast<double>(r.ops));
    json.row({path, csv::Writer::format(r.ns_per_op),
              std::to_string(r.ops)});
  }
  table.print_rule();

  json.counter("wall_seconds",
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0_wall)
                   .count());
  json.write();

  std::cout << "\nReading: probability/probe run on warm snapshots (pure "
               "binary searches over\nflat prefix-sum arrays); "
               "snapshot_rebuild and select_finite_tint pay the\n"
               "arena-backed rebuild, which is the cost every estimator "
               "state change imposes\non the next B_r recomputation.\n";
  return 0;
}
