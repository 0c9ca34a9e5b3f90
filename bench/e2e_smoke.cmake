# Smoke check of the end-to-end replay benchmark: one traced run of every
# epc_contention seed-1 trace, whose run digest must equal the one pinned in
# perfbench/digests.json (simulated behaviour unchanged).
#
#   cmake -DE2E_REPLAY=<e2e_replay> -DDIGESTS=<digests.json> \
#         -DTRACE=<out.json> -P e2e_smoke.cmake
foreach(var E2E_REPLAY DIGESTS TRACE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "e2e_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${E2E_REPLAY} --workload epc_contention --seed 1 --reps 1
          --trace ${TRACE}
  OUTPUT_VARIABLE out
  RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "e2e_replay exited with status ${status}\n${out}")
endif()

if(NOT "\n${out}" MATCHES "\ndigest ([0-9a-f]+)")
  message(FATAL_ERROR "e2e_replay printed no run digest\n${out}")
endif()
set(digest ${CMAKE_MATCH_1})

file(READ ${DIGESTS} pinned_json)
string(JSON pinned GET "${pinned_json}" epc_contention 1)
if(NOT digest STREQUAL pinned)
  message(FATAL_ERROR
    "epc_contention seed 1 digest ${digest} differs from the pinned "
    "${pinned}: simulated behaviour changed")
endif()
message(STATUS "epc_contention seed 1 digest ${digest} matches the pin")
