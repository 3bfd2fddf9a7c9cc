# Configures an ASan+UBSan build of the tree in BUILD_DIR
# (-DCOLARM_SANITIZE=address), builds every suite of that tree, and runs
# each of the SUITES once per forced COLARM_SIMD level, so every dispatch
# table's intrinsics execute under both sanitizers. The env override clamps
# to the host maximum: forcing "avx512" on an AVX2-only machine is a
# redundant but valid rerun, and the host-best default is always one of the
# three levels. Driven by the `asan_equivalence` and `ubsan_simd` ctest
# entries (see tests/CMakeLists.txt, which lists their suites); a failure at
# any step fails the test. Expects SOURCE_DIR, BUILD_DIR and SUITES.

foreach(var SOURCE_DIR BUILD_DIR SUITES)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "asan_ubsan.cmake requires -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BUILD_DIR}
          -DCOLARM_SANITIZE=address -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE configure_result)
if(NOT configure_result EQUAL 0)
  message(FATAL_ERROR "ASan+UBSan configure failed")
endif()

# One compile job per logical core: a bare --parallel lets make start
# every job at once.
cmake_host_system_information(RESULT jobs QUERY NUMBER_OF_LOGICAL_CORES)
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR} --parallel ${jobs}
          --target sanitizer_suites
  RESULT_VARIABLE build_result)
if(NOT build_result EQUAL 0)
  message(FATAL_ERROR "ASan+UBSan build failed")
endif()

foreach(level scalar avx2 avx512)
  foreach(test ${SUITES})
    execute_process(
      COMMAND ${CMAKE_COMMAND} -E env COLARM_SIMD=${level}
              ${BUILD_DIR}/tests/${test}
      RESULT_VARIABLE run_result)
    if(NOT run_result EQUAL 0)
      message(FATAL_ERROR
              "${test} failed under ASan+UBSan with COLARM_SIMD=${level}")
    endif()
  endforeach()
endforeach()
