# Exercises the cellbw driver's error paths end to end: unknown
# experiment names, malformed manifests, a corrupted cache entry
# (which must degrade to a miss, not poison the run), validate
# against a missing baseline directory, and bad flag values.
#
# Usage:
#   cmake -DCELLBW=<cellbw> -DWORKDIR=<scratch dir> -P test_cellbw_cli.cmake

foreach(var CELLBW WORKDIR)
    if(NOT DEFINED ${var})
        message(FATAL_ERROR "missing -D${var}")
    endif()
endforeach()

file(REMOVE_RECURSE "${WORKDIR}")
file(MAKE_DIRECTORY "${WORKDIR}")

# run_cellbw(<name> <expected rc> <args...>): runs cellbw in WORKDIR and
# stores stdout/stderr in <name>_out / <name>_err.
function(run_cellbw name expect_rc)
    execute_process(
        COMMAND "${CELLBW}" ${ARGN}
        WORKING_DIRECTORY "${WORKDIR}"
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
        RESULT_VARIABLE rc)
    if(expect_rc STREQUAL "nonzero")
        if(rc EQUAL 0)
            message(FATAL_ERROR "${name}: expected failure, got rc=0\n"
                                "stdout:\n${out}\nstderr:\n${err}")
        endif()
    elseif(NOT rc EQUAL ${expect_rc})
        message(FATAL_ERROR "${name}: expected rc=${expect_rc}, "
                            "got rc=${rc}\n"
                            "stdout:\n${out}\nstderr:\n${err}")
    endif()
    set(${name}_out "${out}" PARENT_SCOPE)
    set(${name}_err "${err}" PARENT_SCOPE)
endfunction()

# --- 1. Unknown experiment name -------------------------------------
run_cellbw(badrun nonzero run no_such_experiment --quick)
if(NOT badrun_err MATCHES "unknown experiment 'no_such_experiment'")
    message(FATAL_ERROR "bad run message unhelpful:\n${badrun_err}")
endif()

# --- 2. Malformed manifest line -------------------------------------
file(WRITE "${WORKDIR}/bad.manifest"
     "# comment line is fine\n"
     "ls_spu_ls\n"
     "not_an_experiment --quick\n")
run_cellbw(badsuite nonzero suite bad.manifest --quick)
if(NOT badsuite_err MATCHES "bad.manifest:3: unknown experiment")
    message(FATAL_ERROR
            "manifest error lacks file:line context:\n${badsuite_err}")
endif()

# Unreadable manifest path is a clear error, not an empty suite.
run_cellbw(nomanifest nonzero suite no/such.manifest --quick)
if(NOT nomanifest_err MATCHES "cannot read manifest")
    message(FATAL_ERROR "missing-manifest message:\n${nomanifest_err}")
endif()

# --- 3. Corrupt cache entry degrades to a miss ----------------------
file(WRITE "${WORKDIR}/mini.manifest" "ls_spu_ls\n")
run_cellbw(cold 0 suite mini.manifest --quick --out cold --cache cache)
if(NOT cold_out MATCHES "cache hits: 0/1")
    message(FATAL_ERROR "cold run was not a miss:\n${cold_out}")
endif()

# Truncate every stored report; the .key files stay valid, so a naive
# cache would replay the damaged bytes into the output tree.
file(GLOB_RECURSE entries "${WORKDIR}/cache/*.json")
list(LENGTH entries n)
if(n EQUAL 0)
    message(FATAL_ERROR "cold run stored no cache entries")
endif()
foreach(entry ${entries})
    file(READ "${entry}" bytes LIMIT 40)
    file(WRITE "${entry}" "${bytes}")
endforeach()

run_cellbw(corrupt 0 suite mini.manifest --quick --out corrupt
           --cache cache)
if(NOT corrupt_out MATCHES "cache hits: 0/1")
    message(FATAL_ERROR
            "corrupt entry was replayed as a hit:\n${corrupt_out}")
endif()
execute_process(
    COMMAND ${CMAKE_COMMAND} -E compare_files
            "${WORKDIR}/cold/ls_spu_ls.json"
            "${WORKDIR}/corrupt/ls_spu_ls.json"
    RESULT_VARIABLE same)
if(NOT same EQUAL 0)
    message(FATAL_ERROR "rerun after corruption differs from cold run")
endif()

# The rerun repaired the entry: a third pass is a hit again.
run_cellbw(healed 0 suite mini.manifest --quick --out healed
           --cache cache)
if(NOT healed_out MATCHES "cache hits: 1/1")
    message(FATAL_ERROR "repaired entry did not hit:\n${healed_out}")
endif()

# --- 3b. cache prune ------------------------------------------------
# A generous budget scans without evicting; the healed entry stays hot.
run_cellbw(prune_noop 0 cache prune --max-bytes 1G --cache cache)
if(NOT prune_noop_out MATCHES "1 entries / [0-9]+ bytes scanned")
    message(FATAL_ERROR "prune scan miscounted:\n${prune_noop_out}")
endif()
if(NOT prune_noop_out MATCHES "0 entries / 0 bytes evicted")
    message(FATAL_ERROR "no-op prune evicted:\n${prune_noop_out}")
endif()
run_cellbw(stillhot 0 suite mini.manifest --quick --out stillhot
           --cache cache)
if(NOT stillhot_out MATCHES "cache hits: 1/1")
    message(FATAL_ERROR "entry lost by no-op prune:\n${stillhot_out}")
endif()

# Budget zero empties the cache; the next pass re-simulates.
run_cellbw(prune_all 0 cache prune --max-bytes 0 --cache cache)
if(NOT prune_all_out MATCHES "1 entries / [0-9]+ bytes evicted")
    message(FATAL_ERROR "prune to zero kept entries:\n${prune_all_out}")
endif()
run_cellbw(cold2 0 suite mini.manifest --quick --out cold2
           --cache cache)
if(NOT cold2_out MATCHES "cache hits: 0/1")
    message(FATAL_ERROR "evicted entry still hit:\n${cold2_out}")
endif()

# Missing --max-bytes is a usage error, not an accidental full wipe.
run_cellbw(prune_bad nonzero cache prune --cache cache)
if(NOT prune_bad_err MATCHES "--max-bytes")
    message(FATAL_ERROR "prune usage message:\n${prune_bad_err}")
endif()

# --- 4. validate without baselines ----------------------------------
run_cellbw(noval 2 validate --quick --baselines no/such/dir)
if(NOT noval_err MATCHES "cellbw validate:")
    message(FATAL_ERROR "validate error message:\n${noval_err}")
endif()

# --- 5. --jobs must be a non-negative integer that fits unsigned -----
# strtoul once let "-1" wrap to 4294967295 pool threads.
foreach(jobs -1 4294967296 x)
    run_cellbw(badjobs_suite 2 suite ci --quick --jobs ${jobs})
    run_cellbw(badjobs_validate 2 validate --quick --jobs ${jobs})
    run_cellbw(badjobs_serve 2 serve --jobs ${jobs})
    foreach(cmd suite validate serve)
        if(NOT badjobs_${cmd}_err MATCHES "bad --jobs value '${jobs}'")
            message(FATAL_ERROR "${cmd} --jobs ${jobs} message:\n"
                                "${badjobs_${cmd}_err}")
        endif()
    endforeach()
endforeach()

# A 32-bit option must not wrap: --runs 4294967296 once ran 0 runs
# per point and wrote a table of 0.00 GB/s with exit 0.
run_cellbw(bigruns 1 run fig10_sync_sweep --quick --runs 4294967296)
if(NOT bigruns_err MATCHES "bad value for --runs: '4294967296'")
    message(FATAL_ERROR "run --runs 4294967296 message:\n${bigruns_err}")
endif()

# A NaN clock once ran forever (tab01 normally takes 0.1 s); bad machine
# values exit 1 with a message before anything is simulated.
execute_process(
    COMMAND "${CELLBW}" run tab01_peaks --quick --runs 1 --cpu-ghz nan
    WORKING_DIRECTORY "${WORKDIR}"
    OUTPUT_VARIABLE nan_out
    ERROR_VARIABLE nan_err
    RESULT_VARIABLE nan_rc
    TIMEOUT 10)
if(NOT nan_rc EQUAL 1 OR NOT nan_err MATCHES "bad value for --cpu-ghz")
    message(FATAL_ERROR "run --cpu-ghz nan: rc=${nan_rc}\n${nan_err}")
endif()

# An error the experiment throws mid-run exits 1 with its message, not
# SIGABRT from an uncaught exception.
run_cellbw(norings 1 run fig08_spe_mem --quick --rings 0)
if(NOT norings_err MATCHES
       "cellbw run: fig08_spe_mem: EIB needs at least one data ring")
    message(FATAL_ERROR "run --rings 0 message:\n${norings_err}")
endif()

# --spes bounds an SPE-count sweep: fig12 keeps its 2- and 4-SPE points
# (it once exited 1 on the 8-SPE point it could not build).
run_cellbw(spes4 0 run fig12_couples --quick --runs 1 --spes 4
           --json spes4.json)
file(READ "${WORKDIR}/spes4.json" spes4_json)
if(NOT spes4_json MATCHES "\"spes\":2,\"elem\"" OR
   NOT spes4_json MATCHES "\"spes\":4,\"elem\"" OR
   spes4_json MATCHES "\"spes\":8,\"elem\"")
    message(FATAL_ERROR "fig12 --spes 4 points:\n${spes4_json}")
endif()

# An experiment with no point left says what it needs before its
# header: nothing on stdout.
run_cellbw(spes4_none 1 run abl_rings --quick --spes 4)
if(NOT spes4_none_err MATCHES
       "cellbw run: abl_rings: needs at least 8 SPEs; --spes is 4" OR
   NOT spes4_none_out STREQUAL "")
    message(FATAL_ERROR "abl_rings --spes 4: stdout:\n${spes4_none_out}\n"
                        "stderr:\n${spes4_none_err}")
endif()

message(STATUS "cellbw CLI error paths behave")
