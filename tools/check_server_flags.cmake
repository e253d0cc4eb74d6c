# Runs tarpit_server once per malformed flag and requires each run to
# exit 2 (usage error) without starting: a run that is still serving
# when the timeout fires fails the check. Invoked by ctest as
#   cmake -DSERVER=<path to tarpit_server> -DWORK_DIR=<scratch dir>
#         -P check_server_flags.cmake
# Ephemeral ports, one row and a private --dir come first, so a flag
# that slipped through would not collide with anything else running.
set(bad_flags
  "--port=70000"
  "--port=-1"
  "--port=80x"
  "--port="
  "--http-port=65536"
  "--loops=0"
  "--loops=-1"
  "--loops=1025"
  "--loops=abc"
  "--rows=-1"
  "--rows=1e3"
  "--delay-max=abc"
  "--delay-min=-0.5"
  "--delay-scale=nan"
  "--keepalive=inf"
  "--accept-delay=-1"
  "--delay-min=2 --delay-max=1"
  "--bogus=1")

set(failures 0)
foreach(flags IN LISTS bad_flags)
  separate_arguments(flag_args UNIX_COMMAND "${flags}")
  execute_process(
    COMMAND "${SERVER}" --port=0 --http-port=0 --rows=1
            "--dir=${WORK_DIR}/tarpit_server_flags_db" ${flag_args}
    RESULT_VARIABLE status
    OUTPUT_QUIET ERROR_QUIET
    TIMEOUT 10)
  if(NOT status STREQUAL "2")
    message(SEND_ERROR "${flags}: expected exit status 2, got '${status}'")
    math(EXPR failures "${failures} + 1")
  endif()
endforeach()
if(failures GREATER 0)
  message(FATAL_ERROR "${failures} malformed flag set(s) were not rejected")
endif()
