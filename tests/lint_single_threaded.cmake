# Lint: the simulator core is single-threaded and deterministic, so no
# file under src/ may include a threading header.
#
#   cmake -DSRC=<repo>/src -P lint_single_threaded.cmake
if(NOT DEFINED SRC)
  message(FATAL_ERROR "lint_single_threaded.cmake needs -DSRC=...")
endif()

file(GLOB_RECURSE files ${SRC}/*)
set(offenders "")
foreach(file ${files})
  file(STRINGS ${file} includes REGEX
       "^[ \t]*#[ \t]*include[ \t]*<(thread|mutex|shared_mutex|condition_variable|future|atomic)>")
  foreach(line ${includes})
    file(RELATIVE_PATH path ${SRC} ${file})
    string(STRIP "${line}" line)
    list(APPEND offenders "src/${path}: ${line}")
  endforeach()
endforeach()

if(offenders)
  list(JOIN offenders "\n  " listing)
  message(FATAL_ERROR
    "the simulator core is single-threaded, but these files include a "
    "threading header:\n  ${listing}\n"
    "ROADMAP.md's north star ('Quality of design') rules that threads, "
    "locks and other machinery a single-threaded deterministic simulator "
    "cannot benefit from must justify themselves with a measurement or go.")
endif()
list(LENGTH files count)
message(STATUS "none of the ${count} files under src/ includes a threading header")
