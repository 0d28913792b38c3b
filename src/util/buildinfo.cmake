# Stamps the git revision into the generated header OUTPUT (included by
# util/buildinfo.cc). Runs on every build, not at configure time, so a
# build tree rebuilt after later commits reports the commit it was built
# from:
#
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<header> -P buildinfo.cmake
#
# The sha is "unknown" outside a git checkout; a trailing "+" marks
# uncommitted changes. OUTPUT is rewritten only when its content changes,
# so a rebuild with nothing new compiles nothing.
execute_process(
  COMMAND git rev-parse --short HEAD
  WORKING_DIRECTORY ${SOURCE_DIR}
  OUTPUT_VARIABLE sha
  OUTPUT_STRIP_TRAILING_WHITESPACE
  ERROR_QUIET)
if(NOT sha)
  set(sha "unknown")
else()
  execute_process(
    COMMAND git diff --quiet HEAD
    WORKING_DIRECTORY ${SOURCE_DIR}
    RESULT_VARIABLE dirty
    ERROR_QUIET)
  if(dirty)
    string(APPEND sha "+")
  endif()
endif()

set(content "#define PABR_GIT_SHA \"${sha}\"\n")
set(old "")
if(EXISTS ${OUTPUT})
  file(READ ${OUTPUT} old)
endif()
if(NOT content STREQUAL old)
  file(WRITE ${OUTPUT} "${content}")
endif()
