// Oracle runner for the guided fuzzer (DESIGN.md §15): executes one
// genome under every differential oracle the repo maintains and harvests
// the coverage signature from the run's end-of-run observables.
//
// Oracles, in order:
//   1. the run itself completes with audit_invariants() clean (I1-I9 and
//      every PABR_CHECK rail) — a throw anywhere is a violation;
//   2. incremental vs from-scratch reservation digests agree;
//   3. the chained snapshot/discard/reload run at the genome's
//      snap_fractions digests equal to the uninterrupted run (I10).
// Thread-count equivalence (1 vs N) is the driver's job — it is a
// property of the harness, not of one run.
#pragma once

#include <cstdint>
#include <string>

#include "fuzz/coverage.h"
#include "fuzz/genome.h"

namespace pabr::fuzz {

/// Debug-only planted defect for the mutation-testing self-check
/// (scripts/guided_fuzz_smoke.sh, --inject-bug). When armed, the resumed
/// trajectory digest is XOR-ed with 1 — an off-by-one in the lowest
/// bit — iff the run lands in the rare regime conjunction implemented by
/// injected_bug_fires(). Never enabled outside the self-check; the
/// default-constructed config is inert.
struct BugConfig {
  bool resumed_off_by_one = false;
};

/// True when the planted off-by-one perturbs this run: a linear ring
/// with adaptive QoS, §5.3 retries, a wired backbone and a soft
/// hand-off zone all enabled at once, under load that actually forced
/// at least one soft-handoff fallback. Exposed so tests can pin the
/// conjunction the self-check is calibrated against.
bool injected_bug_fires(const Genome& g, const core::SystemStatus& status);

/// Outcome of one genome execution under all oracles.
struct OracleResult {
  bool ok = true;
  /// Failing oracle stage when !ok: "run" (exception / invariant audit),
  /// "scratch-diff" (incremental vs scratch), "resume-diff" (I10).
  std::string stage;
  std::string violation;  ///< human-readable description when !ok
  std::uint64_t incremental = 0;
  std::uint64_t scratch = 0;
  std::uint64_t resumed = 0;
  /// Connection requests the run generated (minimizer's size measure).
  std::uint64_t requests = 0;
  /// Coverage features of the primary (incremental) run. Populated even
  /// for "scratch-diff"/"resume-diff" failures; empty for "run" failures.
  Signature signature;
};

/// Runs `g` under every oracle. `audit_every` is threaded into the
/// per-event invariant sweep cadence (0 disables). Never throws: model
/// exceptions become "run" violations.
OracleResult run_oracles(const Genome& g, int audit_every,
                         const BugConfig& bug = {});

}  // namespace pabr::fuzz
