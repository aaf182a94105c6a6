# A traced serial `v6d run`, checked the way CI checks the 4-rank traced
# run: structural trace validation, then the trace summary folded with the
# telemetry stream and cross-checked against the perf report.  A serial
# run drifts through the same halo plan as a distributed one, so the
# cross-check must run; the CTest entry fails on "cross-check skipped".
#
#   cmake -DV6D=<v6d binary> -DPYTHON=<python3> -DSOURCE_DIR=<repo root>
#         -DOUT=<output dir> -P traced_run_smoke.cmake

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")

function(run_step)
  execute_process(COMMAND ${ARGN} RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "failed (${rc}): ${ARGN}")
  endif()
endfunction()

run_step("${V6D}" run neutrino_box nx=8 nu=6 np=8 ranks=1 max_steps=2
  "checkpoint_dir=${OUT}/ckpt" "trace=${OUT}/trace.json"
  "telemetry=${OUT}/telemetry.jsonl" "perf_report=${OUT}/perf.json")
run_step("${PYTHON}" "${SOURCE_DIR}/tools/check_trace.py"
  "${OUT}/trace.json")
run_step("${PYTHON}" "${SOURCE_DIR}/tools/trace_summary.py"
  "${OUT}/trace.json" --telemetry "${OUT}/telemetry.jsonl"
  --perf "${OUT}/perf.json")
