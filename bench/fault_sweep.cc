// Degraded-mode sweep: P_CB and P_HD vs backhaul fault rate under AC3 at
// a fixed offered load. One knob — the "fault rate" r — scales every
// fault process at once: per-message loss probability r, delay-loss r/2,
// and link/station MTBFs inversely proportional to r (fixed repair
// times), so r = 0 is the pristine baseline and r = 0.2 a heavily
// degraded backhaul.
//
// The question the sweep answers: how gracefully does the predictive
// scheme shed accuracy when signaling fails? Retries recover most
// message loss; sustained outages push the affected p_h terms onto the
// static degraded floor, so P_HD should degrade smoothly toward
// static-reservation behavior rather than collapse.
//
// Each rate point is an independent run; --threads N fans the sweep over
// a pool with byte-identical output.
#include <chrono>

#include "bench_common.h"
#include "sim/parallel.h"

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  double load = 180.0;
  cli::Parser cli("fault_sweep",
                  "P_CB/P_HD vs backhaul fault rate under AC3 "
                  "(degraded-mode reservation)");
  bench::add_common_flags(cli, opts);
  bench::add_threads_flag(cli, opts);
  bench::add_telemetry_flags(cli, opts);
  cli.add_double("load", &load, "offered load per cell (BU)", 0.0);
  if (!cli.parse(argc, argv)) return 1;

  bench::print_banner("Degraded mode — P_CB/P_HD vs fault rate, AC3, load " +
                      csv::Writer::format(load));
  csv::Writer csv(opts.csv_path);
  csv.header({"fault_rate", "pcb", "phd"});
  bench::JsonReport json("fault_sweep", opts);
  json.columns({"fault_rate", "pcb", "phd"});

  const std::vector<double> rates = {0.0, 0.01, 0.02, 0.05, 0.1, 0.2};
  const auto config_for = [&](double rate) {
    core::StationaryParams p;
    p.offered_load = load;
    p.policy = admission::PolicyKind::kAc3;
    p.seed = opts.seed;
    core::SystemConfig cfg = core::stationary_config(p);
    cfg.telemetry = opts.telemetry_config();
    if (rate > 0.0) {
      cfg.fault.enabled = true;
      cfg.fault.seed = sim::derive_seed(opts.seed, "fault-injector");
      cfg.fault.message_loss = rate;
      cfg.fault.message_delay = rate / 2.0;
      cfg.fault.link_mtbf_s = 500.0 / rate;
      cfg.fault.link_mttr_s = 30.0;
      cfg.fault.station_mtbf_s = 2000.0 / rate;
      cfg.fault.station_mttr_s = 60.0;
    }
    return cfg;
  };

  const auto t0 = std::chrono::steady_clock::now();
  const auto runs = sim::parallel_map<core::RunResult>(
      opts.threads, rates.size(), [&](std::size_t i) {
        return core::run_system(config_for(rates[i]), opts.plan());
      });

  std::uint64_t br_calculations = 0;
  std::vector<telemetry::MetricsSnapshot> snapshots;
  std::vector<std::vector<telemetry::TraceRecord>> trace_streams;
  std::uint64_t trace_rotated = 0;

  core::TablePrinter table({"fault rate", "P_CB", "P_HD", "target met"},
                           {10, 10, 10, 11});
  table.print_header();
  for (std::size_t i = 0; i < rates.size(); ++i) {
    const auto& s = runs[i].status;
    if (opts.telemetry_requested()) {
      snapshots.push_back(runs[i].telemetry);
      trace_streams.push_back(runs[i].trace);
      trace_rotated += runs[i].trace_rotated_out;
    }
    table.print_row({core::TablePrinter::fixed(rates[i], 2),
                     core::TablePrinter::prob(s.pcb),
                     core::TablePrinter::prob(s.phd),
                     s.phd <= 0.0125 ? "yes" : "NO"});
    csv.row_values(rates[i], s.pcb, s.phd);
    json.row({csv::Writer::format(rates[i]), csv::Writer::format(s.pcb),
              csv::Writer::format(s.phd)});
    br_calculations += s.br_calculations;
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
  bench::write_bench_trace("fault_sweep", opts, trace_streams, trace_rotated);
  return 0;
}
