# Lint over src/, two checks:
#   1. the simulator core is single-threaded and deterministic, so no file
#      under src/ may include a threading header;
#   2. every header under src/ has a consumer: a file under src/, bench/,
#      examples/ or perfbench/ other than the header's own .cpp includes
#      it. A header that only tests reach is a capability nothing runs.
#
#   cmake -DROOT=<repo> -P lint_src.cmake
cmake_minimum_required(VERSION 3.16)
if(NOT DEFINED ROOT)
  message(FATAL_ERROR "lint_src.cmake needs -DROOT=<repo>")
endif()
set(SRC ${ROOT}/src)

# ---- 1. no threading headers ------------------------------------------------
file(GLOB_RECURSE files ${SRC}/*)
set(threaded "")
foreach(file ${files})
  file(STRINGS ${file} includes REGEX
       "^[ \t]*#[ \t]*include[ \t]*<(thread|mutex|shared_mutex|condition_variable|future|atomic)>")
  foreach(line ${includes})
    file(RELATIVE_PATH path ${SRC} ${file})
    string(STRIP "${line}" line)
    list(APPEND threaded "src/${path}: ${line}")
  endforeach()
endforeach()

# ---- 2. every header has a consumer outside tests/ --------------------------
set(include_regex "^[ \t]*#[ \t]*include[ \t]*\"([^\"]+)\"")
set(consumed "")
foreach(tree src bench examples perfbench)
  file(GLOB_RECURSE sources ${ROOT}/${tree}/*.cpp ${ROOT}/${tree}/*.hpp)
  foreach(source ${sources})
    file(RELATIVE_PATH source_path ${ROOT} ${source})
    file(STRINGS ${source} includes REGEX "${include_regex}")
    foreach(line ${includes})
      string(REGEX REPLACE "${include_regex}.*$" "\\1" header "${line}")
      # A header's own .cpp does not count as a consumer.
      string(REGEX REPLACE "\\.hpp$" ".cpp" own_cpp "src/${header}")
      if(NOT source_path STREQUAL own_cpp)
        list(APPEND consumed "${header}")
      endif()
    endforeach()
  endforeach()
endforeach()
file(GLOB_RECURSE headers RELATIVE ${SRC} ${SRC}/*.hpp)
set(unconsumed "")
foreach(header ${headers})
  if(NOT header IN_LIST consumed)
    list(APPEND unconsumed "src/${header}")
  endif()
endforeach()

set(failures "")
if(threaded)
  list(JOIN threaded "\n  " listing)
  string(APPEND failures
    "the simulator core is single-threaded, but these files include a "
    "threading header:\n  ${listing}\n"
    "ROADMAP.md's north star ('Quality of design') rules that threads, "
    "locks and other machinery a single-threaded deterministic simulator "
    "cannot benefit from must justify themselves with a measurement or "
    "go.\n")
endif()
if(unconsumed)
  list(JOIN unconsumed "\n  " listing)
  string(APPEND failures
    "no file under src/, bench/, examples/ or perfbench/ other than its "
    "own .cpp includes these headers:\n  ${listing}\n"
    "Only tests reach them; ROADMAP.md's Dropped list brings a capability "
    "back only with a consumer outside tests.\n")
endif()
if(failures)
  message(FATAL_ERROR "${failures}")
endif()
list(LENGTH files count)
list(LENGTH headers header_count)
message(STATUS "none of the ${count} files under src/ includes a threading "
               "header, and each of its ${header_count} headers has a "
               "consumer outside tests/")
