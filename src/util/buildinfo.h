// Build provenance for machine-readable reports: the git revision the
// library was built from and the configured build type. Bench --json reports and trace
// file headers embed these so a result can always be traced back to the
// code and configuration that produced it.
#pragma once

namespace pabr::buildinfo {

/// Abbreviated git commit sha at build time ("unknown" outside a git
/// checkout). A trailing "+" marks uncommitted changes at build time.
const char* git_sha();

/// CMAKE_BUILD_TYPE of this binary ("RelWithDebInfo", "Release", ...).
const char* build_type();

/// Always true: the audit, telemetry and fault hooks are compiled into
/// every build. Kept only because perfbench reports them as provenance.
bool audit_enabled();
bool telemetry_enabled();
bool fault_enabled();

}  // namespace pabr::buildinfo
