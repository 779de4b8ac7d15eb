# ctest script: run a bench twice with the same configuration and assert
# (a) each run writes a structurally sane BENCH_<name>.json and (b) the two
# files agree — byte-identical for the deterministic counting-model benches,
# which is the contract the PR-over-PR regression trail depends on.
#
# Invoked as:
#   cmake -DBENCH_BIN=<path> -DBENCH_NAME=<name> -DWORK_DIR=<dir>
#         (-DNORMALIZE=ON | -DCOMMITTED=<repo-root BENCH_<name>.json>)
#         -P check_bench_json.cmake
#
# NORMALIZE=ON is for wall-clock benches (ipc_recovery, native_throughput):
# their values legitimately differ every run, so every digit run in both
# files is rewritten to 0 before the comparison. That still pins the report
# *shape* — a dropped measurement, a renamed summary key, or a table row
# that appears only sometimes fails the check — without failing on jitter.
#
# COMMITTED=<path> is for the deterministic benches: both runs pin
# AMLOCK_GIT_REV=committed (as the bench_smoke target does) and the first
# report must then be byte-identical to the committed copy at <path>, so any
# drift from the versioned bench trajectory fails locally, not only in CI.

if(NOT BENCH_BIN OR NOT BENCH_NAME OR NOT WORK_DIR OR
   (NOT NORMALIZE AND NOT COMMITTED))
  message(FATAL_ERROR "usage: cmake -DBENCH_BIN=... -DBENCH_NAME=... -DWORK_DIR=... (-DNORMALIZE=ON | -DCOMMITTED=<json>) -P check_bench_json.cmake")
endif()

set(rev_env "")
if(COMMITTED)
  set(rev_env "AMLOCK_GIT_REV=committed")
endif()

foreach(run run1 run2)
  set(dir "${WORK_DIR}/${run}")
  file(REMOVE_RECURSE "${dir}")
  file(MAKE_DIRECTORY "${dir}")
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E env "AMLOCK_BENCH_DIR=${dir}" ${rev_env}
            "${BENCH_BIN}"
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

if(NORMALIZE)
  # Wall-clock bench: zero every digit run (ints, decimals, exponents all
  # collapse to strings of zeros) in both files, then require the skeletons
  # to match. Applied identically to both sides, so structure — keys, rows,
  # value count — is still pinned.
  foreach(idx 1 2)
    file(READ "${json${idx}}" raw)
    string(REGEX REPLACE "[0-9]+" "0" raw "${raw}")
    file(WRITE "${WORK_DIR}/run${idx}/normalized.json" "${raw}")
    set(json${idx} "${WORK_DIR}/run${idx}/normalized.json")
  endforeach()
  set(contract "identical shape (values normalized)")
else()
  set(contract "byte-identical")
endif()

# Determinism contract across the two runs.
execute_process(
  COMMAND ${CMAKE_COMMAND} -E compare_files "${json1}" "${json2}"
  RESULT_VARIABLE diff)
if(NOT diff EQUAL 0)
  message(FATAL_ERROR "BENCH_${BENCH_NAME}.json not ${contract} between identical runs")
endif()

if(COMMITTED)
  execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files "${json1}" "${COMMITTED}"
    RESULT_VARIABLE drift)
  if(NOT drift EQUAL 0)
    message(FATAL_ERROR "BENCH_${BENCH_NAME}.json differs from the committed ${COMMITTED}: behavior drifted (regenerate with the bench_smoke target only if the change is intended)")
  endif()
  set(committed_note " and to the committed copy")
endif()

message(STATUS "BENCH_${BENCH_NAME}.json: schema ok, ${contract} across runs${committed_note}")
