// Model-level coverage signatures for the guided fuzzer (DESIGN.md §15).
//
// Instead of branch coverage, a run's "coverage" is a set of regime
// features harvested from the end-of-run observables the repo already
// maintains: the SystemStatus counters, the telemetry registry (admission
// outcomes per policy, §5.3 retries, degraded-mode floor substitutions,
// soft hand-off traffic), and structural facts of the genome itself
// (topology shape, outage overlaps, resume-at-boundary probes). Counter
// magnitudes are bucketed into powers of two, AFL-style, so "this regime
// fired a lot" is a different feature from "this regime fired once".
//
// A genome earns a place in the corpus exactly when its run reaches at
// least one feature no earlier run reached — that set-cover dynamic is
// what walks the fuzzer into rare regime *combinations* that blind seed
// sampling only hits by luck.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/metrics.h"
#include "fuzz/genome.h"
#include "telemetry/metrics.h"

namespace pabr::fuzz {

/// The feature set of one run, as sorted unique strings (human-readable
/// on purpose: corpus metadata and --verbose logs print them directly).
struct Signature {
  std::vector<std::string> features;
};

/// Log2 magnitude bucket: 0, 1, 2, 4, 8, ... capped at 2^16. Exposed for
/// the unit tests.
std::uint64_t magnitude_bucket(std::uint64_t n);

/// Builds the feature set of a finished run. `status` comes from the
/// system's system_status(); `metrics` from telemetry_snapshot() (empty
/// when telemetry is disabled — coverage degrades gracefully to the
/// SystemStatus features); `wired_blocks`/`wired_drops` from the linear
/// system's backbone counters (0 for hex runs).
Signature run_signature(const Genome& genome, const core::SystemStatus& status,
                        const telemetry::MetricsSnapshot& metrics,
                        std::uint64_t wired_blocks, std::uint64_t wired_drops);

/// The global feature map the guided loop accumulates into.
class CoverageMap {
 public:
  /// Merges a run's signature; returns how many features were new.
  std::size_t merge(const Signature& sig);
  bool contains(const std::string& feature) const {
    return seen_.count(feature) != 0;
  }
  std::size_t size() const { return seen_.size(); }

 private:
  std::unordered_set<std::string> seen_;
};

}  // namespace pabr::fuzz
