# CLI smoke test, run via `cmake -P` from a ctest entry. Exercises the
# strict flag parsing (numeric rejections must fail with a usage error,
# not mis-parse to zero; unknown flags and stray arguments are rejected)
# and the observability exports (--metrics-json /
# --trace-out must produce valid-looking JSON with the core fit spans).
#
# Expects:
#   -DDSPOT_CLI=<path to the dspot_cli binary>
#   -DWORK_DIR=<scratch directory>

if(NOT DEFINED DSPOT_CLI OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR "cli_smoke_test.cmake needs -DDSPOT_CLI and -DWORK_DIR")
endif()

file(MAKE_DIRECTORY "${WORK_DIR}")
set(tensor_csv "${WORK_DIR}/smoke_tensor.csv")
set(metrics_json "${WORK_DIR}/smoke_metrics.json")
set(trace_json "${WORK_DIR}/smoke_trace.json")

function(expect_success)
  execute_process(COMMAND ${ARGN}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "expected success, got rc=${rc}:\n${out}\n${err}")
  endif()
endfunction()

# A rejected invocation must exit non-zero AND say why on stderr; an
# accidental exit-1 from a different failure (e.g. a file error) would
# make this test pass vacuously without the expected_error check.
function(expect_usage_error expected_error)
  set(cmd ${ARGN})
  execute_process(COMMAND ${cmd}
                  RESULT_VARIABLE rc
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(rc EQUAL 0)
    message(FATAL_ERROR "expected failure for: ${cmd}\n${out}")
  endif()
  if(NOT err MATCHES "${expected_error}")
    message(FATAL_ERROR
            "expected stderr matching '${expected_error}' for: ${cmd}\n"
            "got:\n${err}")
  endif()
endfunction()

# --- Numeric flag rejections -------------------------------------------------
expect_usage_error("--threads: 0 must be"
                   "${DSPOT_CLI}" fit --series nofile.csv --threads=0)
expect_usage_error("--threads: 0 must be"
                   "${DSPOT_CLI}" fit-tensor --input nofile.csv --threads 0)
expect_usage_error("--time-budget-ms: -5 must be"
                   "${DSPOT_CLI}" fit --series nofile.csv --time-budget-ms -5)
expect_usage_error("--threads: not an integer: '2x'"
                   "${DSPOT_CLI}" fit --series nofile.csv --threads 2x)
expect_usage_error("--ticks: not an integer"
                   "${DSPOT_CLI}" generate --scenario harry_potter
                   --output "${tensor_csv}" --ticks 12.5)
expect_usage_error("--resolution: 0 must be"
                   "${DSPOT_CLI}" aggregate --events nofile.csv
                   --output out.csv --resolution 0)
expect_usage_error("--flush-every: 0 must be"
                   "${DSPOT_CLI}" stream --events nofile.csv --flush-every 0)
expect_usage_error("usage: dspot_cli stream"
                   "${DSPOT_CLI}" stream)

# --- Unknown flags and stray arguments ---------------------------------------
# A misspelled flag fails before any work is done, instead of being
# ignored in favour of the default.
file(REMOVE "${tensor_csv}")
expect_usage_error("dspot_cli: --tick: unknown flag"
                   "${DSPOT_CLI}" generate --scenario harry_potter
                   --output "${tensor_csv}" --tick 10 --locatons 2)
if(EXISTS "${tensor_csv}")
  message(FATAL_ERROR "a rejected generate still wrote ${tensor_csv}")
endif()
expect_usage_error("dspot_cli: stray.csv: unexpected argument"
                   "${DSPOT_CLI}" fit --series nofile.csv stray.csv)

# --- A tick too large to allocate ---------------------------------------------
# Two keywords and a tick of INT64_MAX once wrapped the tensor size to
# zero and crashed the loader; now the load names file and tick, exit 1.
set(huge_tick_csv "${WORK_DIR}/huge_tick.csv")
file(WRITE "${huge_tick_csv}" "keyword,location,tick,value\n"
     "foo,US,0,2\nbar,US,9223372036854775807,3\n")
execute_process(COMMAND "${DSPOT_CLI}" fit-tensor --input "${huge_tick_csv}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 1 OR
   NOT err MATCHES "huge_tick.csv: tick 9223372036854775807 is out of range")
  message(FATAL_ERROR "expected exit 1 naming the tick, got rc=${rc}:\n${err}")
endif()

# --- Generate + observed fit -------------------------------------------------
expect_success("${DSPOT_CLI}" generate --scenario harry_potter
               --output "${tensor_csv}" --ticks 120 --locations 3)
expect_success("${DSPOT_CLI}" fit-tensor --input "${tensor_csv}" --threads 2
               --metrics-json "${metrics_json}" --trace-out "${trace_json}")

foreach(artifact "${metrics_json}" "${trace_json}")
  if(NOT EXISTS "${artifact}")
    message(FATAL_ERROR "missing obs artifact: ${artifact}")
  endif()
endforeach()

# Structural spot checks: the metrics snapshot names the fit counters and
# the Chrome trace carries the three headline span families.
file(READ "${metrics_json}" metrics_body)
foreach(needle "\"counters\"" "\"histograms\"" "fit_dspot.calls"
        "global_fit.rounds" "lm.solves")
  if(NOT metrics_body MATCHES "${needle}")
    message(FATAL_ERROR "metrics json lacks ${needle}:\n${metrics_body}")
  endif()
endforeach()

file(READ "${trace_json}" trace_body)
foreach(needle "traceEvents" "global_fit.round" "local_fit.location"
        "lm.solve")
  if(NOT trace_body MATCHES "${needle}")
    message(FATAL_ERROR "chrome trace lacks ${needle}")
  endif()
endforeach()

# --- Streaming replay --------------------------------------------------------
# A small arrival-ordered event log: one keyword with a level + wiggle
# series long enough for a cold fit (>= 32 ticks) plus follow-up ticks.
set(events_csv "${WORK_DIR}/smoke_events.csv")
set(stream_state "${WORK_DIR}/smoke_stream.state")
set(events_body "keyword,location,timestamp,count\n")
foreach(t RANGE 47)
  math(EXPR wiggle "${t} % 5")
  math(EXPR level "20 + ${wiggle}")
  string(APPEND events_body "hp,all,${t},${level}\n")
endforeach()
file(WRITE "${events_csv}" "${events_body}")

expect_success("${DSPOT_CLI}" stream --events "${events_csv}"
               --flush-every 16 --horizon 8
               --save-state "${stream_state}")
if(NOT EXISTS "${stream_state}")
  message(FATAL_ERROR "stream --save-state left no state file")
endif()

# Resuming from the saved state must serve the persisted forecast without
# replaying or refitting anything.
execute_process(COMMAND "${DSPOT_CLI}" stream --load-state "${stream_state}"
                        --forecast hp
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE stream_out
                ERROR_VARIABLE stream_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "stream --load-state failed:\n${stream_out}\n${stream_err}")
endif()
foreach(needle "resumed 1 keyword" "forecast hp"
        "0 cold fit" "1 keyword\\(s\\) carry a fitted model")
  if(NOT stream_out MATCHES "${needle}")
    message(FATAL_ERROR "stream resume output lacks '${needle}':\n${stream_out}")
  endif()
endforeach()

# An unknown forecast keyword is a hard error, not a silent no-op.
expect_usage_error("keyword 'nope' not in the stream"
                   "${DSPOT_CLI}" stream --load-state "${stream_state}"
                   --forecast nope)

# --- Durable streaming (WAL + crash recovery) --------------------------------
expect_usage_error("--fsync-policy must be one of never\\|flush\\|everyn"
                   "${DSPOT_CLI}" stream --events "${events_csv}"
                   --wal-dir "${WORK_DIR}/nope" --fsync-policy sometimes)
expect_usage_error("--recover requires --wal-dir"
                   "${DSPOT_CLI}" stream --recover --events "${events_csv}")
expect_usage_error("mutually exclusive"
                   "${DSPOT_CLI}" stream --wal-dir "${WORK_DIR}/nope"
                   --load-state "${stream_state}")

# A 60-tick event log and its tail from t=40 on. The split point sits
# inside a --flush-every 16 bucket (39/16 == 40/16 == 2), so a reference
# run over the full log and a killed-then-recovered run that resumes with
# the tail see the exact same flush schedule.
set(durable_events "${WORK_DIR}/durable_events.csv")
set(durable_tail "${WORK_DIR}/durable_tail.csv")
set(full_body "keyword,location,timestamp,count\n")
set(tail_body "keyword,location,timestamp,count\n")
foreach(t RANGE 59)
  math(EXPR wiggle "${t} % 5")
  math(EXPR level "20 + ${wiggle}")
  string(APPEND full_body "hp,all,${t},${level}\n")
  if(t GREATER_EQUAL 40)
    string(APPEND tail_body "hp,all,${t},${level}\n")
  endif()
endforeach()
file(WRITE "${durable_events}" "${full_body}")
file(WRITE "${durable_tail}" "${tail_body}")

set(wal_ref "${WORK_DIR}/wal_ref")
set(wal_crash "${WORK_DIR}/wal_crash")
file(REMOVE_RECURSE "${wal_ref}" "${wal_crash}")

# Reference: the full log through a fresh WAL dir, uninterrupted.
execute_process(COMMAND "${DSPOT_CLI}" stream --events "${durable_events}"
                        --flush-every 16 --horizon 8 --wal-dir "${wal_ref}"
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE ref_out
                ERROR_VARIABLE ref_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "durable reference run failed:\n${ref_out}\n${ref_err}")
endif()
string(REGEX MATCH "forecast hp[^\n]*" ref_forecast "${ref_out}")
if(ref_forecast STREQUAL "")
  message(FATAL_ERROR "durable reference run printed no forecast:\n${ref_out}")
endif()

# Crash run: same log, SIGKILLed right after the 40th accepted append.
execute_process(COMMAND "${DSPOT_CLI}" stream --events "${durable_events}"
                        --flush-every 16 --horizon 8 --wal-dir "${wal_crash}"
                        --kill-after 40
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE kill_out
                ERROR_VARIABLE kill_err)
if(rc EQUAL 0)
  message(FATAL_ERROR "--kill-after 40 run was supposed to die:\n${kill_out}")
endif()

# Recover and resume with the tail: the recovered prefix plus the tail
# must reproduce the uninterrupted run's forecast bit for bit.
execute_process(COMMAND "${DSPOT_CLI}" stream --events "${durable_tail}"
                        --flush-every 16 --horizon 8 --wal-dir "${wal_crash}"
                        --recover
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE rec_out
                ERROR_VARIABLE rec_err)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "durable recovery run failed:\n${rec_out}\n${rec_err}")
endif()
foreach(needle "recovered .*${wal_crash}" "replayed 40 append\\(s\\)"
        "truncated 0 torn byte\\(s\\)" "replayed 20 append\\(s\\)"
        "checkpointed")
  if(NOT rec_out MATCHES "${needle}")
    message(FATAL_ERROR "recovery output lacks '${needle}':\n${rec_out}")
  endif()
endforeach()
string(REGEX MATCH "forecast hp[^\n]*" rec_forecast "${rec_out}")
if(NOT rec_forecast STREQUAL ref_forecast)
  message(FATAL_ERROR
          "recovered forecast diverges from the uninterrupted run:\n"
          "  reference: ${ref_forecast}\n"
          "  recovered: ${rec_forecast}")
endif()

# Recover-only reporting needs no --events at all.
execute_process(COMMAND "${DSPOT_CLI}" stream --wal-dir "${wal_crash}"
                        --recover --forecast hp
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE ro_out
                ERROR_VARIABLE ro_err)
if(NOT rc EQUAL 0 OR NOT ro_out MATCHES "forecast hp")
  message(FATAL_ERROR "recover-only run failed:\n${ro_out}\n${ro_err}")
endif()

message(STATUS "cli smoke test passed")
