# Run a bench binary and byte-compare its standard output with a
# checked-in artifact, so a model drift fails ctest.
#
#   cmake -DBINARY=<bench> -DEXPECTED=<artifact> -DOUTPUT=<scratch file> \
#         -P bench/compare_output.cmake

execute_process(COMMAND "${BINARY}" OUTPUT_FILE "${OUTPUT}"
                RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BINARY} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                        "${OUTPUT}" "${EXPECTED}"
                RESULT_VARIABLE differs)
if(differs)
  execute_process(COMMAND diff -u "${EXPECTED}" "${OUTPUT}")
  message(FATAL_ERROR "${OUTPUT} differs from ${EXPECTED}")
endif()
