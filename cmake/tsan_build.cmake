# Configures one -fsanitize=thread tree of the project and builds the given
# test binaries in it with parallel jobs. Invoked by the tsan_build ctest
# fixture as
#   cmake -DSOURCE_DIR=... -DTSAN_DIR=... -DGENERATOR=... -DTARGETS=a,b,...
#         -DJOBS=n -P tsan_build.cmake
if(NOT DEFINED SOURCE_DIR OR NOT DEFINED TSAN_DIR OR NOT DEFINED TARGETS)
  message(FATAL_ERROR
    "tsan_build.cmake requires -DSOURCE_DIR, -DTSAN_DIR and -DTARGETS")
endif()

execute_process(
  COMMAND ${CMAKE_COMMAND} -S ${SOURCE_DIR} -B ${TSAN_DIR} -G ${GENERATOR}
    -DSQLARRAY_SANITIZE=thread -DCMAKE_BUILD_TYPE=RelWithDebInfo
  RESULT_VARIABLE configure_result)
if(NOT configure_result EQUAL 0)
  message(FATAL_ERROR "configuring ${TSAN_DIR} failed (${configure_result})")
endif()

string(REPLACE "," ";" targets "${TARGETS}")
execute_process(
  COMMAND ${CMAKE_COMMAND} --build ${TSAN_DIR} --target ${targets}
    --parallel ${JOBS}
  RESULT_VARIABLE build_result)
if(NOT build_result EQUAL 0)
  message(FATAL_ERROR "building ${TARGETS} in ${TSAN_DIR} failed")
endif()
