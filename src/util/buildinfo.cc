#include "util/buildinfo.h"

// PABR_GIT_SHA / PABR_BUILD_TYPE are injected per-source by
// src/CMakeLists.txt at configure time.
#ifndef PABR_GIT_SHA
#define PABR_GIT_SHA "unknown"
#endif
#ifndef PABR_BUILD_TYPE
#define PABR_BUILD_TYPE "unknown"
#endif

namespace pabr::buildinfo {

const char* git_sha() { return PABR_GIT_SHA; }

const char* build_type() { return PABR_BUILD_TYPE; }

// Hooks are always compiled in; kept only for perfbench's provenance fields.
bool audit_enabled() { return true; }

bool telemetry_enabled() { return true; }

bool fault_enabled() { return true; }

}  // namespace pabr::buildinfo
