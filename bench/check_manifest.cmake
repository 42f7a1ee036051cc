# Fail unless bench/artifacts.txt covers every checked-in artifact: each
# file under BENCH_sweep/ and BENCH_fig7_remote_read.txt is named by one
# line, no file is named twice, and every named file exists.
#
#   cmake -DREPO_ROOT=<repo> -P bench/check_manifest.cmake

cmake_minimum_required(VERSION 3.20)

file(STRINGS "${REPO_ROOT}/bench/artifacts.txt" lines REGEX "^[^#]")
set(failures "")
set(named "")
foreach(line IN LISTS lines)
  string(REGEX REPLACE "[ \t]+" ";" fields "${line}")
  list(GET fields 2 artifacts)
  string(REPLACE "," ";" artifacts "${artifacts}")
  foreach(artifact IN LISTS artifacts)
    if(artifact IN_LIST named)
      list(APPEND failures "${artifact} is named on two lines")
    elseif(NOT EXISTS "${REPO_ROOT}/${artifact}")
      list(APPEND failures "${artifact} does not exist")
    endif()
    list(APPEND named "${artifact}")
  endforeach()
endforeach()

file(GLOB checked_in RELATIVE "${REPO_ROOT}" "${REPO_ROOT}/BENCH_sweep/*")
list(APPEND checked_in BENCH_fig7_remote_read.txt)
foreach(artifact IN LISTS checked_in)
  if(NOT artifact IN_LIST named)
    list(APPEND failures "${artifact} is named by no line")
  endif()
endforeach()

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "bench/artifacts.txt:\n  ${report}")
endif()
list(LENGTH named count)
message(STATUS "bench/artifacts.txt names all ${count} checked-in artifacts")
