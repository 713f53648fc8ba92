# dspot_serve CLI smoke, run via `cmake -P` from a ctest entry. Exercises
# the strict flag parsing (garbage must fail with a located usage error,
# not mis-parse to zero) and the full stdin/stdout protocol path: generate
# a deterministic request stream, serve it at 1 and at 8 worker threads,
# and require the reply bytes to be identical — the CLI-level face of the
# engine's determinism contract — then feed stdin broken frames, which
# must fail with an error located at the byte where the frame starts.
#
# Expects:
#   -DDSPOT_SERVE=<path to the dspot_serve binary>
#   -DWORK_DIR=<scratch directory>

if(NOT DEFINED DSPOT_SERVE OR NOT DEFINED WORK_DIR)
  message(FATAL_ERROR
          "serve_smoke_test.cmake needs -DDSPOT_SERVE and -DWORK_DIR")
endif()

file(REMOVE_RECURSE "${WORK_DIR}")
file(MAKE_DIRECTORY "${WORK_DIR}")
set(requests_bin "${WORK_DIR}/requests.bin")

# A rejected invocation must exit non-zero AND say why on stderr; an
# accidental exit-1 from a different failure would make this test pass
# vacuously without the expected_error check.
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

# --- Strict flag rejections -------------------------------------------------
expect_usage_error("dspot_serve: --queue-cap: not an integer: '10x'"
                   "${DSPOT_SERVE}" --queue-cap 10x)
expect_usage_error("dspot_serve: --queue-cap: 0 must be >= 1"
                   "${DSPOT_SERVE}" --queue-cap=0)
expect_usage_error("dspot_serve: --deadline-ms: not a number: 'fast'"
                   "${DSPOT_SERVE}" --deadline-ms fast)
expect_usage_error("dspot_serve: --deadline-ms: -1 must be >= 0"
                   "${DSPOT_SERVE}" --deadline-ms=-1)
expect_usage_error("dspot_serve: --max-resident-bytes: not a byte size: '64Q'"
                   "${DSPOT_SERVE}" --max-resident-bytes 64Q)
expect_usage_error("dspot_serve: --max-resident-bytes: not a byte size: '-1'"
                   "${DSPOT_SERVE}" --max-resident-bytes=-1)
expect_usage_error("dspot_serve: --threads: requires an integer value"
                   "${DSPOT_SERVE}" --threads)
expect_usage_error("dspot_serve: --no-such-flag: unknown flag"
                   "${DSPOT_SERVE}" --no-such-flag 1)
expect_usage_error("dspot_serve: serve: unexpected argument"
                   "${DSPOT_SERVE}" serve)

# --- Request generator ------------------------------------------------------
execute_process(COMMAND "${DSPOT_SERVE}" --gen-requests 40 --gen-keywords 4
                        --gen-ticks 48
                OUTPUT_FILE "${requests_bin}"
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "generator failed: ${err}")
endif()
file(SIZE "${requests_bin}" requests_size)
if(requests_size EQUAL 0)
  message(FATAL_ERROR "generator produced an empty ${requests_bin}")
endif()

# --- Protocol round trip: replies identical at 1 and 8 threads --------------
foreach(threads 1 8)
  execute_process(COMMAND "${DSPOT_SERVE}" --threads ${threads}
                          --spill-dir "${WORK_DIR}/spill_${threads}"
                  INPUT_FILE "${requests_bin}"
                  OUTPUT_FILE "${WORK_DIR}/replies_${threads}.bin"
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "serve at ${threads} threads failed: ${err}")
  endif()
endforeach()

execute_process(COMMAND ${CMAKE_COMMAND} -E compare_files
                        "${WORK_DIR}/replies_1.bin"
                        "${WORK_DIR}/replies_8.bin"
                RESULT_VARIABLE same)
if(NOT same EQUAL 0)
  message(FATAL_ERROR
          "replies diverge between 1 and 8 worker threads — the serve "
          "determinism contract is broken at the CLI level")
endif()

# --- Protocol errors on stdin -----------------------------------------------
# Each stream is the generated requests followed by one broken frame: a
# length prefix over the 64 MiB cap ("AAAA"), or a 16 MiB frame cut off
# after its tag. Either must exit 1 naming stdin and the frame's byte.
string(ASCII 1 soh)
file(WRITE "${WORK_DIR}/over_cap.tail" "AAAA")
file(WRITE "${WORK_DIR}/cut.tail" "${soh}${soh}${soh}${soh}DSRQ")
foreach(case over_cap cut)
  execute_process(COMMAND ${CMAKE_COMMAND} -E cat "${requests_bin}"
                          "${WORK_DIR}/${case}.tail"
                  OUTPUT_FILE "${WORK_DIR}/${case}.bin"
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "cannot assemble the ${case} stream")
  endif()
  execute_process(COMMAND "${DSPOT_SERVE}"
                  INPUT_FILE "${WORK_DIR}/${case}.bin"
                  OUTPUT_FILE "${WORK_DIR}/${case}_replies.bin"
                  ERROR_VARIABLE err
                  RESULT_VARIABLE rc)
  if(NOT rc EQUAL 1)
    message(FATAL_ERROR "${case} stream: expected exit 1, got ${rc}:\n${err}")
  endif()
  if(NOT err MATCHES "stdin: byte ${requests_size}: ")
    message(FATAL_ERROR
            "${case} stream: expected an error at stdin byte "
            "${requests_size}, got:\n${err}")
  endif()
endforeach()

# --- Reply decoder ----------------------------------------------------------
execute_process(COMMAND "${DSPOT_SERVE}" --print-replies
                INPUT_FILE "${WORK_DIR}/replies_1.bin"
                OUTPUT_VARIABLE decoded
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "--print-replies failed: ${err}")
endif()
foreach(needle "reply id=0 " "status=OK" "total replies: 40")
  if(NOT decoded MATCHES "${needle}")
    message(FATAL_ERROR
            "--print-replies output missing '${needle}':\n${decoded}")
  endif()
endforeach()

# Feeding the decoder a REQUEST stream (wrong frame type) must surface
# DataLoss, not decode garbage.
execute_process(COMMAND "${DSPOT_SERVE}" --print-replies
                INPUT_FILE "${requests_bin}"
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err
                RESULT_VARIABLE rc)
if(rc EQUAL 0)
  message(FATAL_ERROR "--print-replies accepted a request stream:\n${out}")
endif()
if(NOT err MATCHES "DataLoss")
  message(FATAL_ERROR
          "expected DataLoss decoding a request stream, got:\n${err}")
endif()

message(STATUS "serve smoke OK")
