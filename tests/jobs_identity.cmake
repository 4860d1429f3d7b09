# Proves the worker count is invisible in the output: `cellbw run`
# reports are byte-identical for any --jobs value.  cluster_halo runs
# its whole batch of runs serially (--jobs 1) and on four workers
# (--jobs 4, four live systems of up to eight chips) to the same bytes,
# and one experiment of each single-chip batch shape does too, as does
# abl_queue_depth at --jobs 1 and 8.
# `cellbw run` never attaches the result cache, so every invocation
# below is a live simulation, not a replay.
#
# Usage:
#   cmake -DCELLBW=<cellbw> -DWORKDIR=<scratch dir> -P jobs_identity.cmake

foreach(var CELLBW WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "missing -D${var}")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

function(run_quiet)
    execute_process(
        COMMAND "${CELLBW}" ${ARGN}
        WORKING_DIRECTORY "${WORKDIR}"
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "cellbw ${ARGN} failed (rc=${rc})\n"
                            "stdout:\n${out}\nstderr:\n${err}")
    endif()
endfunction()

function(expect_identical a b what)
    execute_process(
        COMMAND ${CMAKE_COMMAND} -E compare_files
                "${WORKDIR}/${a}" "${WORKDIR}/${b}"
        RESULT_VARIABLE differ)
    if(NOT differ EQUAL 0)
        message(FATAL_ERROR "${what}: ${a} and ${b} differ — the "
                            "worker count leaked into the report")
    endif()
endfunction()

# --- cluster: 1-8 chips, serial batch vs four workers ----------------
foreach(jobs 1 4)
    run_quiet(run cluster_halo --quick --jobs ${jobs}
              --json cluster_j${jobs}.json)
endforeach()
expect_identical(cluster_j1.json cluster_j4.json "cluster_halo")

# --- single-chip batches: every point x seed on 1 and 4 workers -----
# One experiment per batch shape: a placement sweep (fig13), two
# sections in one batch (rand_gups), mixed one-run and swept points
# (tab01), kernels into slots (kernels_roofline) and one-run PPE
# points (fig03).
foreach(exp fig13_couples_dist rand_gups tab01_peaks kernels_roofline
            fig03_ppe_l1)
    foreach(jobs 1 4)
        run_quiet(run ${exp} --quick --jobs ${jobs}
                  --json ${exp}_j${jobs}.json)
    endforeach()
    expect_identical(${exp}_j1.json ${exp}_j4.json "${exp}")
endforeach()

# --- one registry, many queue depths ---------------------------------
# abl_queue_depth merges MFCs of depth 1-32 into one queue_depth
# histogram; its buckets once depended on which run snapshot first.
foreach(jobs 1 8)
    run_quiet(run abl_queue_depth --quick --runs 1 --jobs ${jobs}
              --json queue_depth_j${jobs}.json)
endforeach()
expect_identical(queue_depth_j1.json queue_depth_j8.json
                 "abl_queue_depth")

message(STATUS "--jobs is byte-invisible in reports")
