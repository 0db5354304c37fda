# neurod runs no online learner, so it must refuse --feedback_capacity
# instead of queueing feedback frames that nothing drains: exit status 2
# and a message naming the reason. Registered with ctest by CMakeLists.txt:
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
