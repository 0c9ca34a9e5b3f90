# Smoke check of the end-to-end replay benchmark: one traced run of every
# seed-1 trace and one untraced run of every held-out seed-2 trace of all
# four workloads, whose run digests must equal the ones pinned in
# perfbench/digests.json (simulated behaviour unchanged).
# paper_slice is the paper's own configuration, the default ClusterConfig;
# epc_contention is one TSDB shard, five nodes and a deep queue;
# monitor_dense scrapes every second, so TSDB ingest and retention run 10x
# as often; scaled_5x adds four shards, 25 workers and the attestation gate.
#
#   cmake -DE2E_REPLAY=<e2e_replay> -DDIGESTS=<digests.json> \
#         -DTRACE=<out.json> -P e2e_smoke.cmake
#
# Each workload writes its trace next to TRACE, as <out>.<workload>.json.
foreach(var E2E_REPLAY DIGESTS TRACE)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "e2e_smoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(READ ${DIGESTS} pinned_json)
foreach(workload paper_slice epc_contention monitor_dense scaled_5x)
  string(REGEX REPLACE "\\.json$" ".${workload}.json" trace ${TRACE})
  foreach(seed 1 2)
    set(args --workload ${workload} --seed ${seed} --reps 1)
    if(seed EQUAL 1)
      list(APPEND args --trace ${trace})
    endif()
    execute_process(
      COMMAND ${E2E_REPLAY} ${args}
      OUTPUT_VARIABLE out
      RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR
        "e2e_replay ${workload} seed ${seed} exited with status ${status}\n"
        "${out}")
    endif()

    if(NOT "\n${out}" MATCHES "\ndigest ([0-9a-f]+)")
      message(FATAL_ERROR
        "e2e_replay ${workload} seed ${seed} printed no run digest\n${out}")
    endif()
    set(digest ${CMAKE_MATCH_1})

    string(JSON pinned GET "${pinned_json}" ${workload} ${seed})
    if(NOT digest STREQUAL pinned)
      message(FATAL_ERROR
        "${workload} seed ${seed} digest ${digest} differs from the pinned "
        "${pinned}: simulated behaviour changed")
    endif()
    message(STATUS "${workload} seed ${seed} digest ${digest} matches the pin")
  endforeach()
endforeach()
