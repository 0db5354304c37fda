# neurod's usage errors end in exit status 2 and a message, never an abort:
#   * it runs no online learner, so it must refuse --feedback_capacity
#     instead of queueing feedback frames that nothing drains;
#   * a malformed --hidden layer list names the flag;
#   * so does a malformed number (common::Cli parses every digit).
# Registered with ctest by CMakeLists.txt:
#
#   cmake -DNEUROD=build/neurod -P tests/neurod_cli_test.cmake
#
# The socket paths are local so that a neurod which wrongly starts serving
# binds nothing shared; the timeout stops it.

if(NOT NEUROD)
  message(FATAL_ERROR "pass -DNEUROD=<path to the neurod binary>")
endif()

execute_process(
  COMMAND "${NEUROD}" --feedback_capacity=8
          --listen=neurod_cli_test.sock --control=neurod_cli_test.ctl
  RESULT_VARIABLE code
  OUTPUT_VARIABLE out
  ERROR_VARIABLE err
  TIMEOUT 30)

if(NOT code STREQUAL "2")
  message(FATAL_ERROR
          "neurod --feedback_capacity=8 ended with '${code}', want exit status 2\n"
          "stderr: ${err}")
endif()
string(FIND "${err}" "neurod runs no online learner" at)
if(at EQUAL -1)
  message(FATAL_ERROR
          "neurod --feedback_capacity=8 did not say that it runs no online "
          "learner\nstderr: ${err}")
endif()

foreach(hidden "abc" "100,,50")
  execute_process(
    COMMAND "${NEUROD}" --hidden=${hidden}
            --listen=neurod_cli_test.sock --control=neurod_cli_test.ctl
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 30)
  if(NOT code STREQUAL "2")
    message(FATAL_ERROR
            "neurod --hidden=${hidden} ended with '${code}', want exit status 2\n"
            "stderr: ${err}")
  endif()
  string(FIND "${err}" "--hidden" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "neurod --hidden=${hidden} did not name the flag\nstderr: ${err}")
  endif()
endforeach()

# Neither value starts a daemon: both fail before the model is compiled.
foreach(workers "3x" "abc")
  execute_process(
    COMMAND "${NEUROD}" --workers=${workers}
            --listen=neurod_cli_test.sock --control=neurod_cli_test.ctl
    RESULT_VARIABLE code
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    TIMEOUT 30)
  if(NOT code STREQUAL "2")
    message(FATAL_ERROR
            "neurod --workers=${workers} ended with '${code}', want exit status 2\n"
            "stderr: ${err}")
  endif()
  string(FIND "${err}" "--workers" at)
  if(at EQUAL -1)
    message(FATAL_ERROR
            "neurod --workers=${workers} did not name the flag\nstderr: ${err}")
  endif()
endforeach()
