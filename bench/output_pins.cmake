# Pins every deterministic output: the stdout of each figure, ablation and
# example invocation below must hash (SHA-256) to the line pinned for it
# in output_pins.txt. A change that moves an output re-pins and says so.
#
#   cmake -DBENCH_DIR=<build>/bench -DEXAMPLES_DIR=<build>/examples \
#         -DPINS=<source>/bench/output_pins.txt [-DREPIN=ON] \
#         -P output_pins.cmake
#
# With REPIN=ON the script rewrites PINS from the current binaries instead
# of checking them. No invocation writes a file.
cmake_minimum_required(VERSION 3.16)

foreach(var BENCH_DIR EXAMPLES_DIR PINS)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "output_pins.cmake needs -D${var}=...")
  endif()
endforeach()

set(bench_invocations
  fig03_trace_memory_cdf fig04_trace_duration_cdf fig05_trace_concurrency
  fig06_sgx_startup fig07_pending_queue_epc fig08_waiting_cdf
  fig09_waiting_by_memory fig10_turnaround fig11_limits_enforcement
  ablation_scheduler ablation_migration ablation_workload sgx2_dynamic)
set(example_invocations
  quickstart trace_replay epc_sizing malicious_tenant remote_attestation
  experiment_cli "experiment_cli --help")

if(NOT REPIN)
  file(STRINGS ${PINS} pin_lines REGEX "^[0-9a-f]+ ")
  foreach(line IN LISTS pin_lines)
    string(REGEX MATCH "^([0-9a-f]+) (.+)$" _ "${line}")
    string(MAKE_C_IDENTIFIER "${CMAKE_MATCH_2}" id)
    set(pin_${id} ${CMAKE_MATCH_1})
  endforeach()
endif()

set(repinned "# SHA-256 of each invocation's stdout (bench/output_pins.cmake).\n")
set(failures "")
foreach(dir_var BENCH_DIR EXAMPLES_DIR)
  if(dir_var STREQUAL "BENCH_DIR")
    set(invocations ${bench_invocations})
  else()
    set(invocations ${example_invocations})
  endif()
  foreach(invocation IN LISTS invocations)
    separate_arguments(args UNIX_COMMAND "${invocation}")
    list(POP_FRONT args binary)
    execute_process(
      COMMAND ${${dir_var}}/${binary} ${args}
      OUTPUT_VARIABLE out
      RESULT_VARIABLE status)
    if(NOT status EQUAL 0)
      message(FATAL_ERROR "${invocation} exited with status ${status}")
    endif()
    string(SHA256 hash "${out}")
    string(APPEND repinned "${hash} ${invocation}\n")
    string(MAKE_C_IDENTIFIER "${invocation}" id)
    if(REPIN)
      continue()
    elseif(NOT DEFINED pin_${id})
      string(APPEND failures "  ${invocation}: no pin in ${PINS}\n")
    elseif(NOT hash STREQUAL pin_${id})
      string(APPEND failures
        "  ${invocation}: stdout hashes to ${hash}, pinned ${pin_${id}}\n")
    else()
      message(STATUS "${invocation} matches its pin")
    endif()
  endforeach()
endforeach()

if(REPIN)
  file(WRITE ${PINS} "${repinned}")
  message(STATUS "re-pinned every output in ${PINS}")
elseif(failures)
  message(FATAL_ERROR "outputs differ from their pins:\n${failures}")
endif()
