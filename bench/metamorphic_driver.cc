// Metamorphic-equivalence driver (DESIGN.md §14) — the hundreds-of-seeds
// version of tests/metamorphic_equivalence_test.cc.
//
// Each seed expands deterministically into a scripted scenario
// (audit/metamorphic/scripted.h): explicit arrival list, dyadic times/
// positions/speeds, optional scripted outage windows. The scenario is
// run once as the base reference, then once per catalogue transform
// (M1 ring rotation, M2 direction mirroring, M3 time-origin shift, M4
// bandwidth-unit rescaling, M5 id relabelling, plus the M1 x M2
// composition). Each transformed observation is mapped back into the
// base frame with the transform's exact inverse mapping and compared
// field by field — bitwise except for the sums the transform provably
// reassociates, which get a 1e-12 relative bound (observation.h).
//
// The whole batch then re-runs across the thread pool (--threads N) and
// every digest and verdict must match the sequential batch exactly.
//
// Exit status: 0 = all seeds clean, 1 = at least one divergence (the
// seed, transform name and first mismatching field are printed — the
// seed alone reproduces the failure).
#include <chrono>
#include <exception>
#include <iostream>
#include <string>
#include <vector>

#include "audit/metamorphic/observation.h"
#include "audit/metamorphic/scripted.h"
#include "audit/metamorphic/transforms.h"
#include "bench_common.h"
#include "sim/parallel.h"

namespace {

struct TransformOutcome {
  std::string name;
  std::uint64_t mapped_digest = 0;
  bool ok = false;
  std::string mismatch;
};

struct SeedResult {
  std::uint64_t base_digest = 0;
  std::vector<TransformOutcome> transforms;
  bool failed = false;
  std::string error;
};

}  // namespace

int main(int argc, char** argv) {
  using namespace pabr;
  namespace meta = pabr::audit::metamorphic;

  bench::CommonOptions opts;
  int seeds = 40;
  unsigned long long base_seed = 1;
  bool faults = false;
  cli::Parser cli("metamorphic_driver",
                  "metamorphic-equivalence harness (scenario transforms "
                  "M1-M5 with exact observation mappings)");
  bench::add_common_flags(cli, opts);
  bench::add_threads_flag(cli, opts);
  cli.add_int("seeds", &seeds, "number of scripted scenarios to check",
              0);
  cli.add_uint64("base-seed", &base_seed, "first scenario seed");
  cli.add_bool("faults", &faults,
               "add scripted outage windows per seed");
  if (!cli.parse(argc, argv)) return 1;
  if (opts.full) seeds = std::max(seeds, 120);
  if (opts.threads <= 0) opts.threads = sim::hardware_threads();

  bench::print_banner("Metamorphic-equivalence harness — " +
                      std::to_string(seeds) + " seeds from " +
                      std::to_string(base_seed) +
                      (faults ? ", scripted outages on" : ""));

  const auto n = static_cast<std::size_t>(seeds);
  const auto run_seed = [&](std::size_t i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    SeedResult r;
    try {
      const meta::ScriptedScenario scenario =
          meta::random_scripted_scenario(seed, faults);
      const meta::Observation base = meta::run_scripted(scenario);
      r.base_digest = meta::digest(base);
      for (const meta::Transform& t : meta::catalogue(scenario, seed)) {
        TransformOutcome out;
        out.name = t.name;
        const meta::Observation mapped =
            t.unmap(meta::run_scripted(t.apply(scenario)));
        out.mapped_digest = meta::digest(mapped);
        const auto diff = meta::compare(base, mapped, t.tolerance);
        out.ok = !diff.has_value();
        if (diff.has_value()) out.mismatch = *diff;
        r.transforms.push_back(std::move(out));
      }
    } catch (const std::exception& e) {
      r.failed = true;
      r.error = e.what();
    }
    return r;
  };

  const auto t0 = std::chrono::steady_clock::now();

  // Phase 1: sequential reference batch.
  const std::vector<SeedResult> sequential =
      sim::parallel_map<SeedResult>(1, n, run_seed);
  // Phase 2: the same batch across the pool — results must be identical.
  const std::vector<SeedResult> threaded =
      sim::parallel_map<SeedResult>(opts.threads, n, run_seed);

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  int violations = 0;
  int threaded_mismatches = 0;
  std::uint64_t transforms_checked = 0;
  csv::Writer csv(opts.csv_path);
  csv.header({"seed", "transform", "base_digest", "mapped_digest",
              "status"});
  bench::JsonReport json("metamorphic_driver", opts);
  json.columns({"seed", "transform", "base_digest", "mapped_digest",
                "status"});
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    const SeedResult& seq = sequential[i];
    const SeedResult& thr = threaded[i];
    if (seq.failed || thr.failed) {
      ++violations;
      const meta::ScriptedScenario scenario =
          meta::random_scripted_scenario(seed, faults);
      std::cout << "FAIL " << scenario.summary() << "\n     "
                << (seq.failed ? seq.error : thr.error + " (threaded)")
                << '\n';
      csv.row({std::to_string(seed), "-", "-", "-", "error"});
      json.row({std::to_string(seed), "-", "-", "-", "error"});
      continue;
    }
    const bool phases_agree =
        seq.base_digest == thr.base_digest &&
        seq.transforms.size() == thr.transforms.size();
    for (std::size_t t = 0; t < seq.transforms.size(); ++t) {
      const TransformOutcome& out = seq.transforms[t];
      ++transforms_checked;
      std::string status = "ok";
      if (!out.ok) {
        status = out.mismatch;
      } else if (phases_agree &&
                 (out.mapped_digest != thr.transforms[t].mapped_digest ||
                  out.ok != thr.transforms[t].ok)) {
        status = "threads=1 != threads=N";
        ++threaded_mismatches;
      }
      if (status != "ok") {
        ++violations;
        const meta::ScriptedScenario scenario =
            meta::random_scripted_scenario(seed, faults);
        std::cout << "FAIL " << scenario.summary() << "\n     " << out.name
                  << ": " << status << '\n';
      }
      csv.row({std::to_string(seed), out.name,
               std::to_string(seq.base_digest),
               std::to_string(out.mapped_digest), status});
      json.row({std::to_string(seed), out.name,
                std::to_string(seq.base_digest),
                std::to_string(out.mapped_digest), status});
    }
    if (!phases_agree) {
      ++violations;
      ++threaded_mismatches;
      std::cout << "FAIL seed=" << seed
                << " sequential/threaded phases disagree on the base "
                   "digest\n";
    }
  }

  std::cout << seeds << " seeds, " << transforms_checked << " transform "
            << "checks, " << violations << " violation"
            << (violations == 1 ? "" : "s") << ", " << opts.threads
            << " threads, " << wall << " s\n";
  json.counter("seeds", static_cast<double>(seeds));
  json.counter("transforms_checked",
               static_cast<double>(transforms_checked));
  json.counter("violations", static_cast<double>(violations));
  json.counter("threaded_mismatches",
               static_cast<double>(threaded_mismatches));
  json.counter("wall_seconds", wall);
  json.write();
  return violations == 0 ? 0 : 1;
}
