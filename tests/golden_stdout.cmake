# Runs one executable and compares its stdout byte for byte with a
# committed golden file (ctest -L golden; see tests/golden/README.md).
#
#   cmake -DBIN=<exe> -DGOLDEN=<file> -DOUT=<file> -P golden_stdout.cmake
#
# On a mismatch it prints `diff -u golden output` when diff is installed,
# so a failing ctest log shows which row of which table moved.
get_filename_component(out_dir "${OUT}" DIRECTORY)
file(MAKE_DIRECTORY "${out_dir}")
execute_process(COMMAND "${BIN}" OUTPUT_FILE "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${BIN} exited with ${rc}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${OUT}" "${GOLDEN}"
  RESULT_VARIABLE differ)
if(differ)
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND "${DIFF}" -u "${GOLDEN}" "${OUT}")
  endif()
  message(FATAL_ERROR "stdout of ${BIN} differs from ${GOLDEN}")
endif()
