# Run one command-line program on input it must reject and check that
# it fails cleanly: exit status 1 and exactly one line on stderr that
# starts with "<PROG>: " (no uncaught-exception abort) and, when WANT
# is set, contains the text WANT.
#
#   cmake -DCMD=<binary> -DPROG=<name> -DARGS="a|b|c" [-DWANT=<text>] \
#         -P check_cli_failure.cmake
#
# ARGS separates the program's arguments with '|'.
string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND ${CMD} ${args}
                RESULT_VARIABLE rc
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT rc STREQUAL "1")
  message(FATAL_ERROR "${PROG}: exit status '${rc}', want 1\nstderr:\n${err}")
endif()
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT lines EQUAL 1 OR NOT err MATCHES "^${PROG}: [^\n]+\n$")
  message(FATAL_ERROR "${PROG}: want one '${PROG}: ...' line on stderr, got:\n${err}")
endif()
string(FIND "${err}" "${WANT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "${PROG}: want '${WANT}' in the error line, got:\n${err}")
endif()
message(STATUS "${PROG}: exit 1, one line: ${err}")
