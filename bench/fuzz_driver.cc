// Differential scenario fuzzer — the hundreds-of-seeds version of
// tests/fuzz_scenario_test.cc.
//
// Each seed expands deterministically into a randomized short simulation
// (core/random_scenario.h) which is run three times: with the
// reservation served incrementally, recomputed from scratch, and
// incrementally again but snapshotted to memory and reloaded mid-run at
// a seed-derived random point (invariant I10, DESIGN.md §13 —
// --checkpoint-every replaces the random point with a fixed cadence of
// chained snapshots). All three trajectory digests must match bitwise.
// The whole batch is then re-run across the thread pool (--threads N)
// and every digest must match the sequential batch byte for byte. Every
// run carries the per-event invariant audit (--audit-every) and the
// explicit end-of-run sweep.
//
// --resume-from FILE switches to a one-shot branch mode instead: the
// snapshot is loaded (linear or hex, auto-detected), run for
// --resume-for further simulated seconds, swept by audit_invariants()
// and its trajectory digest printed — the command-line way to extend or
// branch a checkpointed run.
//
// --guided switches to the coverage-guided genome fuzzer (DESIGN.md
// §15): scenarios are explicit mutable genomes, a run's coverage is the
// regime-feature signature harvested from its end-of-run counters, and
// a genome joins the --corpus-dir corpus exactly when it reaches a
// feature no earlier run reached. On any oracle violation the genome is
// printed in full, --minimize shrinks it to a 1-minimal reproducer
// (written to --repro-dir, default the corpus dir), and the driver
// exits 1. --inject-bug (self-check only) arms the planted off-by-one
// in src/fuzz/runner.cc; without --guided it runs the same genome
// oracle stack over blind random genomes — the unguided baseline the
// mutation-testing smoke compares against.
//
// Exit status: 0 = all seeds/genomes clean, 1 = at least one divergence
// or invariant violation (the offending seed or genome is printed in a
// form that alone reproduces the failure).
#include <chrono>
#include <exception>
#include <fstream>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "audit/differential.h"
#include "bench_common.h"
#include "core/random_scenario.h"
#include "fuzz/corpus.h"
#include "fuzz/minimize.h"
#include "fuzz/mutate.h"
#include "fuzz/runner.h"
#include "sim/parallel.h"
#include "sim/random.h"
#include "snapshot/format.h"

namespace {

struct SeedResult {
  std::uint64_t incremental = 0;
  std::uint64_t scratch = 0;
  std::uint64_t resumed = 0;
  bool failed = false;
  std::string failed_stage;  ///< which of the three runs threw
  std::string error;
};

// Branch mode for --resume-from: load, extend, audit, report.
int resume_from_file(const std::string& path, double resume_for) {
  using namespace pabr;
  std::optional<snapshot::SystemKind> kind;
  {
    std::ifstream is(path, std::ios::binary);
    if (!is.good()) {
      std::cerr << "fuzz_driver: cannot open " << path << "\n";
      return 1;
    }
    try {
      kind = snapshot::Reader(is).header().kind;
    } catch (const snapshot::FormatError& e) {
      std::cerr << "fuzz_driver: " << path << ": " << e.what() << "\n";
      return 1;
    }
  }
  std::ifstream is(path, std::ios::binary);
  try {
    std::uint64_t digest = 0;
    double t_end = 0.0;
    if (*kind == snapshot::SystemKind::kHex) {
      const auto sys = core::HexCellularSystem::load(is);
      sys->run_for(resume_for);
      sys->audit_invariants();
      digest = audit::trajectory_digest(*sys);
      t_end = sys->now();
    } else if (*kind == snapshot::SystemKind::kLinear) {
      const auto sys = core::CellularSystem::load(is);
      sys->run_for(resume_for);
      sys->audit_invariants();
      digest = audit::trajectory_digest(*sys);
      t_end = sys->now();
    } else {
      std::cerr << "fuzz_driver: " << path
                << ": sharded snapshots resume via scale_sweep "
                   "--resume-from\n";
      return 1;
    }
    std::printf("resumed %s to t=%.17g, digest %016llx, audits clean\n",
                path.c_str(), t_end,
                static_cast<unsigned long long>(digest));
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "fuzz_driver: " << path << ": " << e.what() << "\n";
    return 1;
  }
}

// Shared settings of the genome-based modes (--guided / --inject-bug).
struct GenomeModeOptions {
  std::uint64_t base_seed = 1;
  int audit_every = 8;
  int max_execs = 400;
  int threads = 1;
  bool faults = false;
  bool minimize = false;
  std::string corpus_dir;
  std::string repro_dir;
  pabr::fuzz::BugConfig bug;
};

// Prints the violating genome in full (the .pabrfuzz text alone
// reproduces the failure), optionally minimizes it, and writes the
// reproducer next to the corpus. Always the exit-1 path.
int report_violation(const pabr::fuzz::Genome& genome,
                     const pabr::fuzz::OracleResult& result,
                     const GenomeModeOptions& opt) {
  using namespace pabr;
  std::cout << "VIOLATION [" << result.stage << "] " << result.violation
            << "\n  " << genome.summary() << "\n--- genome ---\n"
            << genome.serialize() << "--------------\n";
  fuzz::Genome repro = genome;
  if (opt.minimize) {
    const std::string stage = result.stage;
    fuzz::MinimizeStats stats;
    repro = fuzz::minimize(
        genome,
        [&](const fuzz::Genome& cand) {
          const fuzz::OracleResult r =
              fuzz::run_oracles(cand, opt.audit_every, opt.bug);
          return !r.ok && r.stage == stage;
        },
        /*max_evals=*/500, &stats);
    const fuzz::OracleResult after =
        fuzz::run_oracles(repro, opt.audit_every, opt.bug);
    std::cout << "minimized in " << stats.evaluations << " evals ("
              << stats.accepted << " reductions): cells="
              << repro.num_cells() << " requests=" << after.requests
              << "\n  " << repro.summary() << "\n--- minimized genome ---\n"
              << repro.serialize() << "------------------------\n";
  }
  const std::string dir =
      !opt.repro_dir.empty() ? opt.repro_dir : opt.corpus_dir;
  if (!dir.empty()) {
    const std::string path = fuzz::save_to_corpus(dir, repro);
    std::cout << "reproducer written to " << path << "\n";
  }
  return 1;
}

// Unguided baseline for the mutation-testing self-check: blind random
// genomes through the same oracle stack, no coverage feedback.
int blind_genome_mode(const GenomeModeOptions& opt) {
  using namespace pabr;
  bench::print_banner("Blind genome fuzzer — " +
                      std::to_string(opt.max_execs) + " random genomes from " +
                      std::to_string(opt.base_seed) +
                      (opt.bug.resumed_off_by_one ? ", planted bug armed" : ""));
  const auto n = static_cast<std::size_t>(opt.max_execs);
  std::vector<fuzz::Genome> genomes;
  genomes.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    genomes.push_back(fuzz::random_genome(
        opt.base_seed + static_cast<std::uint64_t>(i), opt.faults));
  }
  const std::vector<fuzz::OracleResult> results =
      sim::parallel_map<fuzz::OracleResult>(opt.threads, n, [&](std::size_t i) {
        return fuzz::run_oracles(genomes[i], opt.audit_every, opt.bug);
      });
  for (std::size_t i = 0; i < n; ++i) {
    if (!results[i].ok) return report_violation(genomes[i], results[i], opt);
  }
  std::cout << opt.max_execs << " execs, 0 violations\n";
  return 0;
}

// The coverage-guided loop. Each round generates a fixed-size candidate
// batch sequentially from the current corpus (one RNG stream), runs the
// batch through the oracle stack via parallel_map, and merges coverage
// in index order — so the corpus evolution, and therefore the whole
// fuzzing trajectory, is identical at any --threads value.
int guided_mode(const GenomeModeOptions& opt) {
  using namespace pabr;
  bench::print_banner(
      "Coverage-guided genome fuzzer — budget " +
      std::to_string(opt.max_execs) + " execs, corpus '" +
      (opt.corpus_dir.empty() ? std::string("<memory>") : opt.corpus_dir) +
      "'" + (opt.bug.resumed_off_by_one ? ", planted bug armed" : ""));

  fuzz::CoverageMap coverage;
  std::vector<fuzz::Genome> corpus = fuzz::load_corpus(opt.corpus_dir);
  const std::size_t replayed = corpus.size();
  // Bootstrap an empty corpus from blind random genomes.
  if (corpus.empty()) {
    const int boot = std::min(8, opt.max_execs);
    for (int i = 0; i < boot; ++i) {
      corpus.push_back(fuzz::random_genome(
          opt.base_seed + static_cast<std::uint64_t>(i), opt.faults));
    }
  }

  int execs = 0;
  // Replay phase: every corpus entry re-runs under all oracles (checked-in
  // reproducers act as regression tests) and seeds the coverage map.
  {
    const std::size_t n = corpus.size();
    const std::vector<fuzz::OracleResult> results =
        sim::parallel_map<fuzz::OracleResult>(
            opt.threads, n, [&](std::size_t i) {
              return fuzz::run_oracles(corpus[i], opt.audit_every, opt.bug);
            });
    for (std::size_t i = 0; i < n; ++i) {
      ++execs;
      if (!results[i].ok) return report_violation(corpus[i], results[i], opt);
      coverage.merge(results[i].signature);
    }
    std::cout << "replayed " << replayed << " corpus entries, bootstrapped "
              << (n - replayed) << ", features=" << coverage.size() << "\n";
  }

  sim::Rng rng(sim::derive_seed(opt.base_seed, "guided-fuzz"));
  constexpr std::size_t kBatch = 16;  // fixed: independent of --threads
  int round = 0;
  while (execs < opt.max_execs) {
    const std::size_t batch = std::min<std::size_t>(
        kBatch, static_cast<std::size_t>(opt.max_execs - execs));
    std::vector<fuzz::Genome> candidates;
    candidates.reserve(batch);
    for (std::size_t i = 0; i < batch; ++i) {
      const auto pick = [&]() -> const fuzz::Genome& {
        return corpus[static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(corpus.size()) - 1))];
      };
      if (corpus.size() >= 2 && rng.bernoulli(0.35)) {
        candidates.push_back(
            fuzz::mutate(fuzz::crossover(pick(), pick(), rng), rng));
      } else {
        candidates.push_back(fuzz::mutate(pick(), rng));
      }
    }
    const std::vector<fuzz::OracleResult> results =
        sim::parallel_map<fuzz::OracleResult>(
            opt.threads, batch, [&](std::size_t i) {
              return fuzz::run_oracles(candidates[i], opt.audit_every, opt.bug);
            });
    std::size_t kept = 0;
    for (std::size_t i = 0; i < batch; ++i) {
      ++execs;
      if (!results[i].ok) {
        return report_violation(candidates[i], results[i], opt);
      }
      if (coverage.merge(results[i].signature) > 0) {
        corpus.push_back(candidates[i]);
        ++kept;
        if (!opt.corpus_dir.empty()) {
          fuzz::save_to_corpus(opt.corpus_dir, candidates[i]);
        }
      }
    }
    ++round;
    if (round % 8 == 0 || execs >= opt.max_execs) {
      std::cout << "round " << round << ": execs=" << execs
                << " corpus=" << corpus.size()
                << " features=" << coverage.size() << " (+" << kept
                << " kept this round)\n";
    }
  }
  std::cout << execs << " execs, 0 violations, corpus=" << corpus.size()
            << ", features=" << coverage.size() << "\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace pabr;
  bench::CommonOptions opts;
  int seeds = 100;
  unsigned long long base_seed = 1;
  int audit_every = 8;
  bool faults = false;
  cli::Parser cli("fuzz_driver",
                  "differential scenario fuzzer (incremental vs scratch "
                  "reservation, 1 vs N threads, invariant audits)");
  bench::add_common_flags(cli, opts);
  bench::add_threads_flag(cli, opts);
  cli.add_int("seeds", &seeds, "number of scenarios to fuzz", 0);
  cli.add_uint64("base-seed", &base_seed, "first scenario seed");
  cli.add_int("audit-every", &audit_every,
              "run the invariant sweep every Nth event (0 = end-of-run "
              "checkpoint only)", 0);
  cli.add_bool("faults", &faults,
               "draw a random fault schedule per seed (link/station "
               "outages, message loss)");
  double checkpoint_every = 0.0;
  std::string resume_from;
  double resume_for = 0.0;
  cli.add_double("checkpoint-every", &checkpoint_every,
                 "I10 snapshot cadence in simulated seconds (0 = one "
                 "random seed-derived snapshot point per scenario)");
  cli.add_string("resume-from", &resume_from,
                 "branch mode: load this snapshot file, extend and audit "
                 "it instead of fuzzing");
  cli.add_double("resume-for", &resume_for,
                 "extra simulated seconds to run in --resume-from mode");
  bool guided = false;
  std::string corpus_dir;
  std::string repro_dir;
  int max_execs = 400;
  bool minimize = false;
  bool inject_bug = false;
  cli.add_bool("guided", &guided,
               "coverage-guided genome fuzzing instead of blind seeds");
  cli.add_string("corpus-dir", &corpus_dir,
                 "corpus directory of *.pabrfuzz genomes (replayed first; "
                 "coverage-novel genomes are added)");
  cli.add_string("repro-dir", &repro_dir,
                 "where minimized reproducers are written (default: the "
                 "corpus dir)");
  cli.add_int("max-execs", &max_execs,
              "genome execution budget for --guided / --inject-bug modes",
              1);
  cli.add_bool("minimize", &minimize,
               "delta-debug any violating genome down to a 1-minimal "
               "reproducer before writing it out");
  cli.add_bool("inject-bug", &inject_bug,
               "self-check only: arm the planted resumed-digest off-by-one "
               "(with --guided: guided hunt; without: blind genome baseline)");
  if (!cli.parse(argc, argv)) return 1;
  if (!resume_from.empty()) return resume_from_file(resume_from, resume_for);
  if (guided || inject_bug) {
    GenomeModeOptions gopt;
    gopt.base_seed = base_seed;
    gopt.audit_every = audit_every;
    gopt.max_execs = max_execs;
    gopt.threads = opts.threads > 0 ? opts.threads : sim::hardware_threads();
    gopt.faults = faults;
    gopt.minimize = minimize;
    gopt.corpus_dir = corpus_dir;
    gopt.repro_dir = repro_dir;
    gopt.bug.resumed_off_by_one = inject_bug;
    return guided ? guided_mode(gopt) : blind_genome_mode(gopt);
  }
  if (opts.full) seeds = std::max(seeds, 500);
  if (opts.threads <= 0) opts.threads = sim::hardware_threads();

  bench::print_banner("Differential scenario fuzzer — " +
                      std::to_string(seeds) + " seeds from " +
                      std::to_string(base_seed) + ", audit every " +
                      std::to_string(audit_every) + " events" +
                      (faults ? ", fault schedules on" : "") +
                      ", I10 snapshot/resume probes on");

  const auto n = static_cast<std::size_t>(seeds);
  const auto run_seed = [&](std::size_t i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    const core::ScenarioSpec spec = core::random_scenario(seed, faults);
    // I10 snapshot points: a fixed cadence when requested, otherwise one
    // seed-derived random point — a pure function of (seed, flags), so
    // the sequential and threaded phases probe identical points.
    std::vector<double> fractions;
    if (checkpoint_every > 0.0) {
      for (double t = checkpoint_every; t < spec.duration;
           t += checkpoint_every) {
        fractions.push_back(t / spec.duration);
      }
    } else {
      fractions.push_back(audit::snapshot_fraction_for_seed(seed));
    }
    // One try block per run so a failure names the stage that threw —
    // an audit violation inside the resumed third run used to be
    // indistinguishable from one in the first.
    SeedResult r;
    try {
      r.incremental = audit::run_scenario_digest(spec, true, audit_every);
    } catch (const std::exception& e) {
      r.failed = true;
      r.failed_stage = "incremental";
      r.error = e.what();
      return r;
    }
    try {
      r.scratch = audit::run_scenario_digest(spec, false, audit_every);
    } catch (const std::exception& e) {
      r.failed = true;
      r.failed_stage = "scratch";
      r.error = e.what();
      return r;
    }
    try {
      r.resumed =
          audit::run_scenario_resume_digest(spec, true, audit_every, fractions);
    } catch (const std::exception& e) {
      r.failed = true;
      r.failed_stage = "resumed";
      r.error = e.what();
    }
    return r;
  };

  const auto t0 = std::chrono::steady_clock::now();

  // Phase 1: sequential reference batch.
  const std::vector<SeedResult> sequential =
      sim::parallel_map<SeedResult>(1, n, run_seed);
  // Phase 2: the same batch across the pool — digests must be identical.
  const std::vector<SeedResult> threaded =
      sim::parallel_map<SeedResult>(opts.threads, n, run_seed);

  const double wall =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  int violations = 0;
  csv::Writer csv(opts.csv_path);
  csv.header({"seed", "digest", "status"});
  bench::JsonReport json("fuzz_driver", opts);
  json.columns({"seed", "digest", "status"});
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t seed = base_seed + static_cast<std::uint64_t>(i);
    const core::ScenarioSpec spec = core::random_scenario(seed, faults);
    std::string status = "ok";
    if (sequential[i].failed) {
      status = "audit during " + sequential[i].failed_stage +
               " run: " + sequential[i].error;
    } else if (threaded[i].failed) {
      status = "audit during " + threaded[i].failed_stage +
               " run (threaded): " + threaded[i].error;
    } else if (sequential[i].incremental != sequential[i].scratch) {
      status = "incremental != scratch";
    } else if (sequential[i].resumed != sequential[i].incremental) {
      status = "resumed != uninterrupted (I10)";
    } else if (sequential[i].incremental != threaded[i].incremental ||
               sequential[i].scratch != threaded[i].scratch ||
               sequential[i].resumed != threaded[i].resumed) {
      status = "threads=1 != threads=N";
    }
    if (status != "ok") {
      ++violations;
      std::cout << "FAIL " << spec.summary() << "\n     " << status << '\n';
    }
    const std::string digest =
        sequential[i].failed ? "-"
                             : std::to_string(sequential[i].incremental);
    csv.row({std::to_string(seed), digest, status});
    json.row({std::to_string(seed), digest, status});
  }

  std::cout << seeds << " seeds, " << violations << " violation"
            << (violations == 1 ? "" : "s") << ", " << opts.threads
            << " threads, " << wall << " s\n";
  json.counter("seeds", static_cast<double>(seeds));
  json.counter("violations", static_cast<double>(violations));
  json.counter("wall_seconds", wall);
  json.write();
  return violations == 0 ? 0 : 1;
}
