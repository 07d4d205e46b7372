# Runs TOOL with ARGS (one space-separated string) and passes only when the
# tool exits 1 and prints REASON on stderr: a refused input must end the
# tool with its reason, not misread it or abort.  With INPUT set, the text
# INPUT_TEXT is written to that path first.
#
#   cmake -DTOOL=<exe> "-DARGS=--nodes 12abc" "-DREASON=--nodes '12abc'"
#         -P expect_refusal.cmake
if(DEFINED INPUT)
  file(WRITE "${INPUT}" "${INPUT_TEXT}")
endif()
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${TOOL}" ${args}
                RESULT_VARIABLE status
                OUTPUT_QUIET
                ERROR_VARIABLE stderr)
if(NOT status STREQUAL "1")
  message(FATAL_ERROR "expected exit status 1, got '${status}'; stderr:\n${stderr}")
endif()
string(FIND "${stderr}" "${REASON}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "stderr lacks '${REASON}':\n${stderr}")
endif()
