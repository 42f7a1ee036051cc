# Rerun one bench/artifacts.txt line and byte-compare what it writes with
# the checked-in artifacts, so a model drift fails ctest. Only the
# trailing `, "host_seconds": ...` wall-clock field is ignored.
#
#   cmake -DCOMMAND="<bench> [flags...]" -DARTIFACTS=<a>[,<b>...] \
#         -DREPO_ROOT=<repo> -DOUT_DIR=<scratch dir> \
#         -P bench/compare_output.cmake
#
# A single .txt artifact is the command's stdout. Otherwise the command
# gets --out-dir=OUT_DIR and must write exactly the listed files.

cmake_minimum_required(VERSION 3.20)

separate_arguments(command UNIX_COMMAND "${COMMAND}")
string(REPLACE "," ";" artifacts "${ARTIFACTS}")
file(REMOVE_RECURSE "${OUT_DIR}")
file(MAKE_DIRECTORY "${OUT_DIR}")

list(LENGTH artifacts count)
if(count EQUAL 1 AND ARTIFACTS MATCHES "\\.txt$")
  get_filename_component(stdout_name "${ARTIFACTS}" NAME)
  execute_process(COMMAND ${command} OUTPUT_FILE "${OUT_DIR}/${stdout_name}"
                  RESULT_VARIABLE rc)
else()
  execute_process(COMMAND ${command} --out-dir=${OUT_DIR}
                  OUTPUT_QUIET RESULT_VARIABLE rc)
endif()
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${COMMAND} exited with ${rc}")
endif()

# A file's contents up to its `, "host_seconds"` field, if it has one.
function(read_sans_host_seconds path out)
  file(READ "${path}" text)
  string(FIND "${text}" ", \"host_seconds\"" at)
  if(at GREATER -1)
    string(SUBSTRING "${text}" 0 ${at} text)
  endif()
  set(${out} "${text}" PARENT_SCOPE)
endfunction()

set(failures "")
set(expected_names "")
foreach(artifact IN LISTS artifacts)
  get_filename_component(name "${artifact}" NAME)
  list(APPEND expected_names "${name}")
  set(expected "${REPO_ROOT}/${artifact}")
  set(actual "${OUT_DIR}/${name}")
  if(NOT EXISTS "${actual}")
    list(APPEND failures "${name} was not written")
    continue()
  endif()
  read_sans_host_seconds("${expected}" want)
  read_sans_host_seconds("${actual}" got)
  if(NOT want STREQUAL got)
    execute_process(COMMAND diff -u "${expected}" "${actual}")
    list(APPEND failures "${actual} differs from ${artifact}")
  endif()
endforeach()

file(GLOB written RELATIVE "${OUT_DIR}" "${OUT_DIR}/*")
foreach(name IN LISTS written)
  if(NOT name IN_LIST expected_names)
    list(APPEND failures "${name} was written but is not in the manifest")
  endif()
endforeach()

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "${COMMAND}:\n  ${report}")
endif()
