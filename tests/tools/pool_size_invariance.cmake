# Runs the training-checksum program (-DEXE=...) under GS_NUM_THREADS=1 and
# =4 and fails unless both print the same weight checksums.
foreach(threads 1 4)
  execute_process(COMMAND ${CMAKE_COMMAND} -E env GS_NUM_THREADS=${threads}
                          ${EXE}
                  OUTPUT_VARIABLE out_${threads}
                  RESULT_VARIABLE status)
  if(NOT status EQUAL 0)
    message(FATAL_ERROR "${EXE} failed at GS_NUM_THREADS=${threads}: ${status}")
  endif()
endforeach()
message(STATUS "GS_NUM_THREADS=1:\n${out_1}GS_NUM_THREADS=4:\n${out_4}")
if(out_1 STREQUAL "" OR NOT out_1 STREQUAL out_4)
  message(FATAL_ERROR "weight checksums depend on the thread-pool size")
endif()
