# ctest script: run a counting-model bench twice with the same
# configuration and assert (a) each run writes a structurally sane
# BENCH_<name>.json, (b) the two files are byte-identical, and (c) the first
# is byte-identical to the committed repo-root copy — the contract the
# PR-over-PR regression trail depends on.
#
# Invoked as:
#   cmake -DBENCH_BIN=<path> -DBENCH_NAME=<name> -DWORK_DIR=<dir>
#         -DCOMMITTED=<repo-root BENCH_<name>.json> -P check_bench_json.cmake
#
# Both runs pin AMLOCK_GIT_REV=committed (as the bench_smoke target does),
# so any drift from the versioned bench trajectory fails locally, not only
# in CI.

if(NOT BENCH_BIN OR NOT BENCH_NAME OR NOT WORK_DIR OR NOT COMMITTED)
  message(FATAL_ERROR "usage: cmake -DBENCH_BIN=... -DBENCH_NAME=... -DWORK_DIR=... -DCOMMITTED=<json> -P check_bench_json.cmake")
endif()

foreach(run run1 run2)
  set(dir "${WORK_DIR}/${run}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "AMLOCK_BENCH_DIR=${dir}"
            "AMLOCK_GIT_REV=committed" "${BENCH_BIN}"
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    WORKING_DIRECTORY "${dir}")
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${BENCH_BIN} (${run}) exited ${rc}:\n${out}\n${err}")
  endif()
  if(NOT EXISTS "${dir}/BENCH_${BENCH_NAME}.json")
    message(FATAL_ERROR "${run} did not write BENCH_${BENCH_NAME}.json")
  endif()
endforeach()

set(json1 "${WORK_DIR}/run1/BENCH_${BENCH_NAME}.json")
set(json2 "${WORK_DIR}/run2/BENCH_${BENCH_NAME}.json")

# Schema: every top-level key present.
file(READ "${json1}" content)
foreach(key bench git_rev config samples summary tables)
  string(FIND "${content}" "\"${key}\"" pos)
  if(pos EQUAL -1)
    message(FATAL_ERROR "BENCH_${BENCH_NAME}.json lacks top-level key \"${key}\":\n${content}")
  endif()
endforeach()
string(FIND "${content}" "\"bench\": \"${BENCH_NAME}\"" pos)
if(pos EQUAL -1)
  message(FATAL_ERROR "BENCH_${BENCH_NAME}.json has wrong bench name:\n${content}")
endif()

# Determinism contract across the two runs.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${json1}" "${json2}"
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "BENCH_${BENCH_NAME}.json not byte-identical between identical runs")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${json1}" "${COMMITTED}"
  RESULT_VARIABLE drift)
if(NOT drift EQUAL 0)
  message(FATAL_ERROR "BENCH_${BENCH_NAME}.json differs from the committed ${COMMITTED}: behavior drifted (regenerate with the bench_smoke target only if the change is intended)")
endif()

message(STATUS "BENCH_${BENCH_NAME}.json: schema ok, byte-identical across runs and to the committed copy")
