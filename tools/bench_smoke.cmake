# Smoke test for the perf-baseline benchmarks (ctest job `bench_smoke`,
# label `stress`). Runs the baseline emitters with minimal iteration
# budgets into a scratch directory and checks that the JSON they produce
# parses and carries the expected keys — so a flag rename or a broken
# writer fails CI instead of silently producing an unusable baseline.
#
# Also exercises the pfdrl_cli snapshot/resume path end-to-end: one run
# writing periodic snapshots, then a second run resuming from the file —
# the two runs' evaluation lines must agree exactly — and a chaos leg: a
# lossy run with a crash window must print the same result lines at any
# shard count and pool size.
#
# Expected -D inputs: MICRO_KERNELS, SCALE_SWEEP, PFDRL_CLI (executable
# paths), WORK_DIR (scratch directory).

if(NOT DEFINED MICRO_KERNELS OR NOT DEFINED SCALE_SWEEP
   OR NOT DEFINED PFDRL_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
    "bench_smoke: MICRO_KERNELS, SCALE_SWEEP, PFDRL_CLI and WORK_DIR must be set")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(kernels_json "${WORK_DIR}/BENCH_kernels.json")

# --- micro_kernels: google-benchmark JSON emitter, minimal time budget,
# restricted to the batch-1 act-path benchmarks, the day-of-rows
# dataset builders and the fused DQN learn step to keep the smoke fast.
execute_process(
  COMMAND "${MICRO_KERNELS}"
    --benchmark_filter=BM_Matvec1|BM_DenseForwardBatch1|BM_MlpPredict|BM_DqnActGreedy|BM_MakeSupervised1440|BM_MakeSequences1440|BM_FusedDqnLearn
    --benchmark_min_time=0.01
    --benchmark_out=${kernels_json}
    --benchmark_out_format=json
  RESULT_VARIABLE kernels_rc
  OUTPUT_VARIABLE kernels_out
  ERROR_VARIABLE kernels_err)
if(NOT kernels_rc EQUAL 0)
  message(FATAL_ERROR "micro_kernels failed (${kernels_rc}):\n${kernels_out}\n${kernels_err}")
endif()

# --- scale_sweep: small agent counts, explicitly sharded so the
# ShardRouter batching and per-shard exchange path runs. The emitter's
# twin run is the engine's end-to-end determinism check
# (bitwise-identical final parameters per point regardless of the thread
# schedule), and the --pool-workers sweep runs every point at 1 and 4
# workers — param_hash must be identical across both per agent count
# (the determinism contract from docs/scaling.md).
set(scale_json "${WORK_DIR}/BENCH_scale.json")
execute_process(
  COMMAND "${SCALE_SWEEP}" --agents 20,50 --rounds 2 --shards 4
    --pool-workers 1,4 --out "${scale_json}"
  RESULT_VARIABLE scale_rc
  OUTPUT_VARIABLE scale_out
  ERROR_VARIABLE scale_err)
if(NOT scale_rc EQUAL 0)
  message(FATAL_ERROR "scale_sweep failed (${scale_rc}):\n${scale_out}\n${scale_err}")
endif()

# --- validate the emitted JSON. string(JSON) needs CMake >= 3.19; on
# older CMake fall back to substring checks of the required keys.
function(check_keys path)
  file(READ "${path}" doc)
  if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
    # A GET on a missing key (or unparsable document) raises a fatal
    # error with this non-ERROR_VARIABLE form — exactly what we want.
    foreach(key IN LISTS ARGN)
      string(JSON value GET "${doc}" ${key})
      message(STATUS "${path}: ${key} = ${value}")
    endforeach()
  else()
    foreach(key IN LISTS ARGN)
      string(FIND "${doc}" "\"${key}\"" pos)
      if(pos EQUAL -1)
        message(FATAL_ERROR "${path}: missing key \"${key}\"")
      endif()
    endforeach()
  endif()
endfunction()

check_keys("${kernels_json}" context benchmarks)
check_keys("${scale_json}" bench manifest topology params rounds
  deterministic hash_consistent points)

# Twin sharded engine runs must agree bitwise (the scaling determinism
# contract from docs/scaling.md, re-checked end-to-end).
file(READ "${scale_json}" doc)
if(CMAKE_VERSION VERSION_GREATER_EQUAL 3.19)
  string(JSON scale_det GET "${doc}" deterministic)
  if(NOT scale_det STREQUAL "ON" AND NOT scale_det STREQUAL "true")
    message(FATAL_ERROR "scale_sweep: twin runs diverged (deterministic = ${scale_det})")
  endif()
  # One param_hash per agent count across every pool worker count —
  # single- ≡ multi-threaded.
  string(JSON scale_hash GET "${doc}" hash_consistent)
  if(NOT scale_hash STREQUAL "ON" AND NOT scale_hash STREQUAL "true")
    message(FATAL_ERROR "scale_sweep: param_hash varies across pool workers (hash_consistent = ${scale_hash})")
  endif()
endif()

message(STATUS "bench_smoke: the baseline emitters produced valid JSON")

# --- pfdrl_cli snapshot/resume: write a snapshot every round, then
# resume from the file with matching flags. The snapshot cadence covers
# the whole training window, so the resumed run skips straight to
# evaluation — its result lines must match the first run's exactly
# (crash-resume is bitwise; the unit golden pins the state, this pins
# the shipped CLI wiring).
set(snapshot_file "${WORK_DIR}/smoke.pfrc")
set(cli_flags --method pfdrl --homes 2 --days 4 --gamma 6 --seed 7)
execute_process(
  COMMAND "${PFDRL_CLI}" ${cli_flags}
    --snapshot-every 1 --snapshot-out "${snapshot_file}"
  RESULT_VARIABLE save_rc
  OUTPUT_VARIABLE save_out
  ERROR_VARIABLE save_err)
if(NOT save_rc EQUAL 0)
  message(FATAL_ERROR "pfdrl_cli snapshot run failed (${save_rc}):\n${save_out}\n${save_err}")
endif()
if(NOT save_out MATCHES "snapshots: [0-9]+ saved")
  message(FATAL_ERROR "pfdrl_cli snapshot run saved nothing:\n${save_out}")
endif()
if(NOT EXISTS "${snapshot_file}")
  message(FATAL_ERROR "pfdrl_cli: ${snapshot_file} was not written")
endif()

execute_process(
  COMMAND "${PFDRL_CLI}" ${cli_flags} --resume "${snapshot_file}"
  RESULT_VARIABLE resume_rc
  OUTPUT_VARIABLE resume_out
  ERROR_VARIABLE resume_err)
if(NOT resume_rc EQUAL 0)
  message(FATAL_ERROR "pfdrl_cli resume run failed (${resume_rc}):\n${resume_out}\n${resume_err}")
endif()
if(NOT resume_out MATCHES "resumed from")
  message(FATAL_ERROR "pfdrl_cli resume run did not restore:\n${resume_out}")
endif()

foreach(line_re "forecast accuracy [^\n]*" "traffic: [^\n]*")
  string(REGEX MATCH "${line_re}" save_line "${save_out}")
  string(REGEX MATCH "${line_re}" resume_line "${resume_out}")
  if(NOT save_line STREQUAL resume_line)
    message(FATAL_ERROR
      "pfdrl_cli resume diverged:\n  saved:   ${save_line}\n  resumed: ${resume_line}")
  endif()
endforeach()
message(STATUS "bench_smoke: pfdrl_cli snapshot/resume round-trip agreed")

# --- sharded snapshot/resume: the same round-trip through the sharded
# engine (--shards 2 writes one snapshot file per shard; --resume takes
# the base path and merges the shard set). On a clean fault plan the
# sharded run's results must also match the unsharded run above bitwise.
set(sharded_base "${WORK_DIR}/smoke_sharded.pfrc")
execute_process(
  COMMAND "${PFDRL_CLI}" ${cli_flags} --shards 2
    --snapshot-every 1 --snapshot-out "${sharded_base}"
  RESULT_VARIABLE ssave_rc
  OUTPUT_VARIABLE ssave_out
  ERROR_VARIABLE ssave_err)
if(NOT ssave_rc EQUAL 0)
  message(FATAL_ERROR "pfdrl_cli sharded snapshot run failed (${ssave_rc}):\n${ssave_out}\n${ssave_err}")
endif()
if(NOT EXISTS "${sharded_base}.shard0" OR NOT EXISTS "${sharded_base}.shard1")
  message(FATAL_ERROR "pfdrl_cli --shards 2 did not write per-shard snapshot files")
endif()

execute_process(
  COMMAND "${PFDRL_CLI}" ${cli_flags} --shards 2 --resume "${sharded_base}"
  RESULT_VARIABLE sresume_rc
  OUTPUT_VARIABLE sresume_out
  ERROR_VARIABLE sresume_err)
if(NOT sresume_rc EQUAL 0)
  message(FATAL_ERROR "pfdrl_cli sharded resume run failed (${sresume_rc}):\n${sresume_out}\n${sresume_err}")
endif()
if(NOT sresume_out MATCHES "resumed from")
  message(FATAL_ERROR "pfdrl_cli sharded resume did not restore:\n${sresume_out}")
endif()

foreach(line_re "forecast accuracy [^\n]*" "traffic: [^\n]*")
  string(REGEX MATCH "${line_re}" save_line "${save_out}")
  string(REGEX MATCH "${line_re}" sharded_line "${ssave_out}")
  string(REGEX MATCH "${line_re}" sresume_line "${sresume_out}")
  if(NOT save_line STREQUAL sharded_line)
    message(FATAL_ERROR
      "sharded run diverged from unsharded:\n  unsharded: ${save_line}\n  sharded:   ${sharded_line}")
  endif()
  if(NOT sharded_line STREQUAL sresume_line)
    message(FATAL_ERROR
      "sharded resume diverged:\n  saved:   ${sharded_line}\n  resumed: ${sresume_line}")
  endif()
endforeach()
message(STATUS "bench_smoke: sharded snapshot/resume round-trip agreed")

# --- determinism across pool sizes through the shipped CLI: training
# runs in fused groups, and an unsharded run cuts one group per pool
# worker (docs/fused_training.md). Grouping must never move a bit, so the
# same scenario on 1 and on 4 workers must print byte-identical output,
# and both must match the snapshot run's result lines above.
foreach(workers 1 4)
  execute_process(
    COMMAND "${PFDRL_CLI}" ${cli_flags} --pool-workers ${workers}
    RESULT_VARIABLE pool_rc
    OUTPUT_VARIABLE pool_out_${workers}
    ERROR_VARIABLE pool_err)
  if(NOT pool_rc EQUAL 0)
    message(FATAL_ERROR "pfdrl_cli --pool-workers ${workers} run failed (${pool_rc}):\n${pool_out_${workers}}\n${pool_err}")
  endif()
endforeach()
if(NOT pool_out_1 STREQUAL pool_out_4)
  message(FATAL_ERROR
    "pfdrl_cli output depends on the pool size:\n--- 1 worker:\n${pool_out_1}\n--- 4 workers:\n${pool_out_4}")
endif()
foreach(line_re "forecast accuracy [^\n]*" "traffic: [^\n]*")
  string(REGEX MATCH "${line_re}" save_line "${save_out}")
  string(REGEX MATCH "${line_re}" pool_line "${pool_out_1}")
  if(NOT save_line STREQUAL pool_line)
    message(FATAL_ERROR
      "pool-size twin diverged from the snapshot run:\n  snapshot: ${save_line}\n  1 worker: ${pool_line}")
  endif()
endforeach()
message(STATUS "bench_smoke: CLI output identical on 1 and 4 pool workers")

# --- chaos through the shipped CLI: every fault draw is a pure function
# of its delivery (docs/robustness.md), so a lossy run with duplication,
# jitter, a deadline, a quorum gate and a crash window must
# print the same result lines at --shards 0 and 2 and on 1 and 4 pool
# workers. Only the header's shard line may differ.
set(chaos_flags --method pfdrl --homes 4 --days 4 --gamma 6 --seed 7
  --fault-plan drop=0.2,jitter=0.004,dup=0.05
  --deadline 0.006 --quorum 0.5 --crash 2:0:2)
foreach(leg "shards0;--shards;0" "shards2;--shards;2"
            "pool1;--shards;2;--pool-workers;1"
            "pool4;--shards;2;--pool-workers;4")
  list(POP_FRONT leg name)
  execute_process(
    COMMAND "${PFDRL_CLI}" ${chaos_flags} ${leg}
    RESULT_VARIABLE chaos_rc
    OUTPUT_VARIABLE chaos_out
    ERROR_VARIABLE chaos_err)
  if(NOT chaos_rc EQUAL 0)
    message(FATAL_ERROR "pfdrl_cli chaos run ${name} failed (${chaos_rc}):\n${chaos_out}\n${chaos_err}")
  endif()
  string(REGEX REPLACE "shards: [^\n]*\n" "" chaos_${name} "${chaos_out}")
endforeach()
if(NOT chaos_shards0 MATCHES "forecast accuracy")
  message(FATAL_ERROR "pfdrl_cli chaos run printed no results:\n${chaos_shards0}")
endif()
foreach(pair "shards0;shards2" "pool1;pool4")
  list(GET pair 0 a)
  list(GET pair 1 b)
  if(NOT chaos_${a} STREQUAL chaos_${b})
    message(FATAL_ERROR
      "pfdrl_cli chaos results depend on the schedule:\n--- ${a}:\n${chaos_${a}}\n--- ${b}:\n${chaos_${b}}")
  endif()
endforeach()
message(STATUS "bench_smoke: chaos results identical across shards and pool sizes")
