# bench_e2e_smoke: run every pfdrl_e2e workload at --scale smoke, once
# untraced and once traced at 1 and 2 pool workers, and check the result
# lines against BENCHMARK.json. pfdrl_e2e itself exits non-zero when a
# run fails, when the parameter hash differs across runs or worker
# counts, or when the phase ledger misses more than 5% of a run's wall
# time; this script adds the checks on what it prints and writes.
#
# Expected -D inputs: PFDRL_E2E (executable), BENCHMARK_JSON, WORK_DIR.
cmake_minimum_required(VERSION 3.19)  # string(JSON)

foreach(var PFDRL_E2E BENCHMARK_JSON WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "bench_e2e_smoke: -D${var}=... is required")
  endif()
endforeach()
file(MAKE_DIRECTORY "${WORK_DIR}")

# Run pfdrl_e2e with ARGN; store the last line it printed in out_var and
# the exit code in rc_var.
function(run_e2e out_var rc_var)
  execute_process(
    COMMAND "${PFDRL_E2E}" ${ARGN}
    WORKING_DIRECTORY "${WORK_DIR}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(STRIP "${out}" out)
  string(FIND "${out}" "\n" nl REVERSE)
  math(EXPR first "${nl} + 1")
  string(SUBSTRING "${out}" ${first} -1 last)
  set(${out_var} "${last}" PARENT_SCOPE)
  set(${rc_var} "${rc}" PARENT_SCOPE)
  if(NOT rc EQUAL 0 AND NOT rc EQUAL 2)
    message(STATUS "pfdrl_e2e ${ARGN} exited ${rc}:\n${out}\n${err}")
  endif()
endfunction()

# A result line must be correct, count no failed run, and carry every
# metric of BENCHMARK.json's `section` for every workload, with its unit
# and a number (except the names listed after `section`).
function(check_result label result section)
  string(JSON correct GET "${result}" correct)
  string(JSON failed GET "${result}" failed)
  if(NOT correct STREQUAL "ON" AND NOT correct STREQUAL "true")
    message(FATAL_ERROR "${label}: correct = ${correct}")
  endif()
  if(NOT failed EQUAL 0)
    message(FATAL_ERROR "${label}: ${failed} failed runs")
  endif()
  file(READ "${BENCHMARK_JSON}" bench)
  string(JSON nw LENGTH "${bench}" workloads)
  string(JSON nm LENGTH "${bench}" ${section})
  math(EXPR last_w "${nw} - 1")
  math(EXPR last_m "${nm} - 1")
  foreach(i RANGE ${last_w})
    string(JSON w GET "${bench}" workloads ${i} name)
    foreach(j RANGE ${last_m})
      string(JSON m GET "${bench}" ${section} ${j} name)
      string(JSON unit GET "${bench}" ${section} ${j} unit)
      string(JSON got_unit GET "${result}" metrics "${w}.${m}" unit)
      string(JSON value GET "${result}" metrics "${w}.${m}" value)
      if(NOT got_unit STREQUAL unit)
        message(FATAL_ERROR "${label}: ${w}.${m} unit ${got_unit}, BENCHMARK.json says ${unit}")
      endif()
      if(value STREQUAL "null" AND NOT m IN_LIST ARGN)
        message(FATAL_ERROR "${label}: ${w}.${m} has no value")
      endif()
    endforeach()
  endforeach()
  # Nothing beyond what BENCHMARK.json declares.
  string(JSON ngot LENGTH "${result}" metrics)
  math(EXPR want "${nw} * ${nm}")
  if(NOT ngot EQUAL want)
    message(FATAL_ERROR "${label}: ${ngot} metrics, BENCHMARK.json declares ${want}")
  endif()
  message(STATUS "${label}: ${ngot} metrics match BENCHMARK.json")
endfunction()

run_e2e(untraced rc --scale smoke --reps 2 --out smoke.json)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "untraced smoke run failed")
endif()
check_result(untraced "${untraced}" end_to_end)

# With workers 1 and 2 there is no 4-worker point for the *_4w ratios.
run_e2e(traced rc --scale smoke --reps 2 --workers 1,2
  --trace-out smoke_trace.json --out smoke_traced.json)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "traced smoke run failed")
endif()
check_result(traced "${traced}" per_layer
  scale.run_speedup_4w scale.forecast_speedup_4w scale.ems_speedup_4w)

file(READ "${WORK_DIR}/smoke_trace.json" trace)
string(JSON nevents LENGTH "${trace}" traceEvents)
string(JSON sha GET "${trace}" manifest git_sha)
string(JSON ph GET "${trace}" traceEvents 1 ph)
if(nevents LESS 2 OR NOT ph STREQUAL "X")
  message(FATAL_ERROR "smoke_trace.json: no phase spans")
endif()
message(STATUS "smoke_trace.json: ${nevents} events, manifest sha ${sha}")

# Compare mode: a document against itself moves nothing, and two runs
# with different seeds are refused.
run_e2e(cmp rc --compare smoke.json smoke.json --bounds "${BENCHMARK_JSON}")
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "compare of smoke.json with itself exited ${rc}")
endif()
file(READ "${WORK_DIR}/smoke.json" doc)
string(JSON doc SET "${doc}" manifest seed 7)
file(WRITE "${WORK_DIR}/smoke_seed7.json" "${doc}")
run_e2e(cmp rc --compare smoke.json smoke_seed7.json --bounds "${BENCHMARK_JSON}")
if(NOT rc EQUAL 2)
  message(FATAL_ERROR "compare across seeds was not refused (exit ${rc})")
endif()
message(STATUS "bench_e2e_smoke: all checks passed")
