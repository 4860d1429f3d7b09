# Proves the conservative parallel simulation is invisible in the
# output: `cellbw run` reports are byte-identical for any --sim-jobs
# value, on both the dual-chip partitioned engine (abl_dualchip) and
# the single-chip legacy path (fig08_spe_mem, where the flag is a
# no-op).  cluster_halo also runs its whole batch of runs serially
# (--jobs 1) and three at a time (--jobs 3) to the same bytes.
# `cellbw run` never attaches the result cache, so every invocation
# below is a live simulation, not a replay.
#
# Usage:
#   cmake -DCELLBW=<cellbw> -DWORKDIR=<scratch dir> -P sim_jobs_identity.cmake

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
                            "thread count leaked into the report")
    endif()
endfunction()

# --- dual-chip: the partitioned engine under 1, 2 and 4 workers -----
foreach(jobs 1 2 4)
    run_quiet(run abl_dualchip --quick --sim-jobs ${jobs}
              --json dual_j${jobs}.json)
endforeach()
expect_identical(dual_j1.json dual_j2.json "abl_dualchip")
expect_identical(dual_j1.json dual_j4.json "abl_dualchip")

# --- cluster: 1-8 partitions under 1, 2 and 4 workers --------------
# Each batch runs three simulations at a time; the serial batch must
# give the same bytes.
foreach(jobs 1 2 4)
    run_quiet(run cluster_halo --quick --jobs 3 --sim-jobs ${jobs}
              --json cluster_j${jobs}.json)
endforeach()
expect_identical(cluster_j1.json cluster_j2.json "cluster_halo")
expect_identical(cluster_j1.json cluster_j4.json "cluster_halo")
run_quiet(run cluster_halo --quick --jobs 1 --sim-jobs 1
          --json cluster_serial.json)
expect_identical(cluster_serial.json cluster_j1.json
                 "cluster_halo --jobs 1 vs 3")

# --- single-chip: --sim-jobs must be a no-op on the legacy path -----
foreach(jobs 1 4)
    run_quiet(run fig08_spe_mem --quick --sim-jobs ${jobs}
              --json fig08_j${jobs}.json)
endforeach()
expect_identical(fig08_j1.json fig08_j4.json "fig08_spe_mem")

message(STATUS "--sim-jobs and --jobs are byte-invisible in reports")
