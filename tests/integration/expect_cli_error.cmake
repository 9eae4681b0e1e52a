# Runs one bench binary with malformed arguments and requires the clean
# failure every bench main promises (kdc::run_main): exit status 1 and a
# stderr line starting "error:" — never an abort through std::terminate.
#
#   cmake -DBIN=<binary> -DARGS=<arg;arg...> -P expect_cli_error.cmake
execute_process(COMMAND "${BIN}" ${ARGS}
    RESULT_VARIABLE status
    OUTPUT_QUIET
    ERROR_VARIABLE stderr)
if(NOT status STREQUAL "1")
    message(FATAL_ERROR "${BIN} ${ARGS}: expected exit status 1, got "
                        "'${status}'; stderr:\n${stderr}")
endif()
if(NOT stderr MATCHES "(^|\n)error: ")
    message(FATAL_ERROR "${BIN} ${ARGS}: no stderr line starting 'error:'; "
                        "stderr:\n${stderr}")
endif()
