# Configures a thread-sanitized build of the tree in BUILD_DIR
# (-DCOLARM_SANITIZE=thread), builds every suite of that tree — the
# concurrency suites listed in tests/CMakeLists.txt, from the thread pool to
# the server — and runs the SUITES. Driven by the `tsan_equivalence` and
# `tsan_server` ctest entries; a failure at any step fails the test.
# Expects SOURCE_DIR, BUILD_DIR and SUITES.

foreach(var SOURCE_DIR BUILD_DIR SUITES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "tsan.cmake requires -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BUILD_DIR}
          -DCOLARM_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE configure_result)
if(NOT configure_result EQUAL 0)
  message(FATAL_ERROR "TSan configure failed")
endif()

# One compile job per logical core: a bare --parallel lets make start
# every job at once.
cmake_host_system_information(RESULT jobs QUERY NUMBER_OF_LOGICAL_CORES)
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR} --parallel ${jobs}
          --target sanitizer_suites
  RESULT_VARIABLE build_result)
if(NOT build_result EQUAL 0)
  message(FATAL_ERROR "TSan build failed")
endif()

foreach(test ${SUITES})
  execute_process(
    COMMAND ${BUILD_DIR}/tests/${test}
    RESULT_VARIABLE run_result)
  if(NOT run_result EQUAL 0)
    message(FATAL_ERROR "${test} failed under ThreadSanitizer")
  endif()
endforeach()
