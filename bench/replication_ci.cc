// Statistical confidence for the headline comparison: the paper reports
// single simulation runs; this bench replicates the L = 300 stationary
// scenario over independent seeds and reports mean ± 95% CI for each
// scheme, showing that the AC1-vs-AC2/AC3 P_HD separation and the N_calc
// ordering are far outside sampling noise.
//
// Replications are independent (one CellularSystem per seed), so
// --threads N fans them over a pool; every per-seed sample and every
// printed row is byte-identical to the sequential run (sim/parallel.h).
//
// Checkpoint/resume (DESIGN.md §13): --checkpoint-every S writes each
// replication's state to <--checkpoint-path>-<policy>-s<i> every S
// simulated seconds; --resume-from FILE skips the table and instead
// finishes the plan from that one snapshot, printing its digest — the
// resumed digest must equal the matching fresh replication's bitwise
// (invariant I10).
#include <chrono>
#include <cstdio>

#include "bench_common.h"

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  int seeds = 5;
  double load = 300.0;
  cli::Parser cli("replication_ci",
                  "multi-seed confidence intervals for the L=300 comparison");
  bench::add_common_flags(cli, opts);
  bench::add_threads_flag(cli, opts);
  bench::add_telemetry_flags(cli, opts);
  cli.add_int("seeds", &seeds, "independent replications per scheme", 1);
  cli.add_double("load", &load, "offered load per cell", 0.0);
  double checkpoint_every = 0.0;
  std::string checkpoint_path = "replication_ci.pabrsnap";
  std::string resume_from;
  cli.add_double("checkpoint-every", &checkpoint_every,
                 "write a checkpoint every N simulated seconds (0 = off)");
  cli.add_string("checkpoint-path", &checkpoint_path,
                 "checkpoint file prefix (suffixed -<policy>-s<i> per "
                 "replication)");
  cli.add_string("resume-from", &resume_from,
                 "finish the plan from this snapshot instead of running "
                 "the replication table");
  if (!cli.parse(argc, argv)) return 1;
  if (opts.full) seeds = std::max(seeds, 10);

  if (!resume_from.empty()) {
    core::RunPlan plan = opts.plan();
    plan.resume_from = resume_from;
    plan.checkpoint_every_s = checkpoint_every;
    if (checkpoint_every > 0.0) {
      plan.checkpoint_path = checkpoint_path + "-resumed";
    }
    const core::RunResult r = core::run_system(core::SystemConfig{}, plan);
    std::printf(
        "resumed %s: %llu events, P_CB %.6f, P_HD %.6f, digest %016llx\n",
        resume_from.c_str(), static_cast<unsigned long long>(r.events),
        r.status.pcb, r.status.phd,
        static_cast<unsigned long long>(r.digest));
    return 0;
  }

  bench::print_banner("Replication — mean ± 95% CI over " +
                      std::to_string(seeds) + " seeds (L = " +
                      core::TablePrinter::fixed(load, 0) +
                      ", R_vo = 1.0, high mobility)");
  csv::Writer csv(opts.csv_path);
  csv.header({"policy", "pcb_mean", "pcb_ci", "phd_mean", "phd_ci",
              "ncalc_mean"});
  bench::JsonReport json("replication_ci", opts);
  json.columns({"policy", "seed_index", "pcb", "phd", "n_calc"});

  const auto t0 = std::chrono::steady_clock::now();
  std::uint64_t br_calculations = 0;
  std::vector<telemetry::MetricsSnapshot> snapshots;
  std::vector<std::vector<telemetry::TraceRecord>> trace_streams;
  std::uint64_t trace_rotated = 0;

  core::TablePrinter table(
      {"policy", "P_CB mean±CI", "P_HD mean±CI", "N_calc"},
      {7, 22, 22, 7});
  table.print_header();
  for (const auto kind :
       {admission::PolicyKind::kAc1, admission::PolicyKind::kAc2,
        admission::PolicyKind::kAc3, admission::PolicyKind::kStatic}) {
    core::StationaryParams p;
    p.offered_load = load;
    p.voice_ratio = 1.0;
    p.mobility = core::Mobility::kHigh;
    p.policy = kind;
    p.seed = opts.seed;
    core::SystemConfig cfg = core::stationary_config(p);
    cfg.telemetry = opts.telemetry_config();
    core::RunPlan plan = opts.plan();
    if (checkpoint_every > 0.0) {
      plan.checkpoint_every_s = checkpoint_every;
      plan.checkpoint_path =
          checkpoint_path + "-" + admission::policy_kind_name(kind);
    }
    const auto rep = core::run_replicated(cfg, plan, seeds, opts.threads);
    const auto pm = [](const core::Replicated& r) {
      return core::TablePrinter::prob(r.mean) + " ± " +
             core::TablePrinter::prob(r.ci95);
    };
    table.print_row({admission::policy_kind_name(kind), pm(rep.pcb),
                     pm(rep.phd),
                     core::TablePrinter::fixed(rep.n_calc.mean, 2)});
    csv.row_values(admission::policy_kind_name(kind), rep.pcb.mean,
                   rep.pcb.ci95, rep.phd.mean, rep.phd.ci95,
                   rep.n_calc.mean);
    for (std::size_t i = 0; i < rep.runs.size(); ++i) {
      br_calculations += rep.runs[i].status.br_calculations;
      json.row({admission::policy_kind_name(kind), std::to_string(i),
                csv::Writer::format(rep.pcb.samples[i]),
                csv::Writer::format(rep.phd.samples[i]),
                csv::Writer::format(rep.n_calc.samples[i])});
      if (opts.telemetry_requested()) {
        snapshots.push_back(rep.runs[i].telemetry);
        trace_streams.push_back(rep.runs[i].trace);
        trace_rotated += rep.runs[i].trace_rotated_out;
      }
    }
  }
  table.print_rule();

  json.counter("wall_seconds",
               std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             t0)
                   .count());
  json.counter("br_calculations", static_cast<double>(br_calculations));
  json.counter("threads", opts.threads);
  if (!snapshots.empty()) {
    json.metrics(telemetry::merge_snapshots(snapshots));
  }
  json.write();
  bench::write_bench_trace("replication_ci", opts, trace_streams,
                           trace_rotated);

  std::cout << "\nReading: AC1's P_HD sits above the 0.01 target by more "
               "than its CI while\nAC2/AC3 sit below by more than theirs — "
               "the paper's Fig. 12 separation is\nstatistically solid, "
               "not a lucky seed.\n";
  return 0;
}
