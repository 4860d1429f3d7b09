# Holds every experiment to its committed quick baseline at zero
# tolerance: one live `cellbw suite ci --quick` run (no result cache),
# then `cellbw compare --tol 0 --metrics` against each
# baselines/<experiment>.quick.json.  No point and no metric may move,
# and each report must then equal its baseline byte for byte.
#
# Usage:
#   cmake -DCELLBW=<cellbw> -DBASELINES=<baselines dir>
#         -DWORKDIR=<scratch dir> -P baselines_exact.cmake

foreach(var CELLBW BASELINES WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "missing -D${var}")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

execute_process(
    COMMAND "${CELLBW}" suite ci --quick --jobs 4 --no-cache --terse
            --out reports
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err
    RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "suite ci failed (rc=${rc})\n"
                        "stdout:\n${out}\nstderr:\n${err}")
endif()

file(GLOB baselines "${BASELINES}/*.quick.json")
list(LENGTH baselines count)
if(count EQUAL 0)
    message(FATAL_ERROR "no baselines in ${BASELINES}")
endif()

set(drifted "")
foreach(base ${baselines})
    get_filename_component(file "${base}" NAME)
    string(REGEX REPLACE "\\.quick\\.json$" "" name "${file}")
    execute_process(
        COMMAND "${CELLBW}" compare "reports/${name}.json" "${base}"
                --tol 0 --metrics
        WORKING_DIRECTORY "${WORKDIR}"
        OUTPUT_VARIABLE cmp
        ERROR_VARIABLE cmp_err
        RESULT_VARIABLE cmp_rc)
    if(NOT cmp_rc EQUAL 0)
        list(APPEND drifted "${name}")
        message("${name} drifted from ${file}:\n${cmp}${cmp_err}")
        continue()
    endif()
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "reports/${name}.json" "${base}"
        WORKING_DIRECTORY "${WORKDIR}"
        RESULT_VARIABLE same)
    if(NOT same EQUAL 0)
        list(APPEND drifted "${name}")
        message("${name} matches ${file} at --tol 0 but its bytes "
                "differ")
    endif()
endforeach()

if(drifted)
    message(FATAL_ERROR "reports differ from their baselines: ${drifted}")
endif()
message(STATUS "${count} reports match their baselines byte for byte")
