#include "util/buildinfo.h"

// PABR_GIT_SHA comes from the header util/buildinfo.cmake writes at build
// time; PABR_BUILD_TYPE is injected by src/CMakeLists.txt at configure
// time.
#include "pabr_git_sha.h"

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
