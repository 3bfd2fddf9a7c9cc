# Configures a thread-sanitized build of the tree in BUILD_DIR, builds the
# server integration suite, and runs it — the event loops, the dispatcher
# workers and their per-tenant strands, admission control, and the shutdown
# phases all execute under TSan, with the 8-client concurrent hammer, the
# strand-ordering test and the drain of busy strands as the main workloads.
# Driven by the `tsan_server` ctest entry (see tests/CMakeLists.txt); a
# failure at any step fails the test. Expects SOURCE_DIR and BUILD_DIR.

foreach(var SOURCE_DIR BUILD_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "tsan_server.cmake requires -D${var}=...")
  endif()
endforeach()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${BUILD_DIR}
          -DCOLARM_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE configure_result)
if(NOT configure_result EQUAL 0)
  message(FATAL_ERROR "TSan configure failed")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${BUILD_DIR} --parallel
          --target server_test
  RESULT_VARIABLE build_result)
if(NOT build_result EQUAL 0)
  message(FATAL_ERROR "TSan build failed")
endif()

execute_process(
  COMMAND ${BUILD_DIR}/tests/server_test
  RESULT_VARIABLE run_result)
if(NOT run_result EQUAL 0)
  message(FATAL_ERROR "server_test failed under ThreadSanitizer")
endif()
