# End-to-end smoke test of segdiff_cli, driven by ctest:
#   cmake -DCLI=<path-to-segdiff_cli> -DWORK=<scratch-dir> -P cli_test.cmake
# Exercises generate -> segment -> build -> append -> search -> stats ->
# sql -> compact -> verify and checks both exit codes and key output
# markers; then the transect workflow (build -> search -> stats ->
# verify -> rebalance) including the damaged-transect contract: a
# corrupt sensor store must flip stats/verify to exit 2 with the sensor
# counted in the health block, searches must isolate it with a loud
# warning, and repair must report the unsalvageable store honestly.

if(NOT DEFINED CLI OR NOT DEFINED WORK)
  message(FATAL_ERROR "pass -DCLI=<binary> -DWORK=<dir>")
endif()

file(MAKE_DIRECTORY ${WORK})
set(CSV ${WORK}/cli_data.csv)
set(CSV2 ${WORK}/cli_more.csv)
set(DB ${WORK}/cli_store.db)
set(SEGMENTS ${WORK}/cli_segments.csv)
set(COMPACT ${WORK}/cli_compact.db)
file(REMOVE ${CSV} ${CSV2} ${DB} ${SEGMENTS} ${COMPACT} ${WORK}/missing.db)

function(run_cli expect_substring)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL 0)
    message(FATAL_ERROR "segdiff_cli ${ARGN} failed (${code}): ${out}${err}")
  endif()
  if(NOT "${expect_substring}" STREQUAL "" AND
     NOT out MATCHES "${expect_substring}")
    message(FATAL_ERROR
            "segdiff_cli ${ARGN}: expected '${expect_substring}' in:\n${out}")
  endif()
endfunction()

run_cli("wrote [0-9]+ observations"
        generate --out ${CSV} --days 5 --seed 42)
run_cli("segments \\(r=" segment --csv ${CSV} --eps 0.2 --out ${SEGMENTS})
run_cli("built .*feature rows"
        build --csv ${CSV} --db ${DB} --eps 0.2 --smooth)
# generate emits an inclusive endpoint sample at t = days * 86400, so the
# second chunk starts a full day later to keep time stamps strictly
# increasing (the gap is legal; an equal time stamp is not).
run_cli("wrote [0-9]+ observations"
        generate --out ${CSV2} --days 3 --seed 42 --start-day 6)
run_cli("appended [0-9]+ observations .*eps=0.2"
        append --csv ${CSV2} --db ${DB} --smooth)
run_cli("periods with a drop" search --db ${DB} --t-hours 1 --v -3)
run_cli("pages: [0-9]+ scanned, [0-9]+ pruned"
        search --db ${DB} --t-hours 1 --v -3 --stats)
run_cli("periods with a jump"
        search --db ${DB} --t-hours 2 --v 2 --jump --mode index)
run_cli("feature rows" stats --db ${DB})
run_cli("count" sql --db ${DB} --query
        "SELECT COUNT(*) FROM drop2 WHERE dt1 <= 3600 AND dv1 <= -3")
run_cli("compacted" compact --db ${DB} --out ${COMPACT})
run_cli("periods with a drop" search --db ${COMPACT} --t-hours 1 --v -3)
run_cli("verify: ok" verify --db ${DB} --scrub)
run_cli("0 corrupt" verify --db ${COMPACT} --scrub)

# Like run_cli, but for commands whose exit code is part of the
# contract (verify/stats report damage as 2, transient trouble as 3).
function(run_cli_status expect_code expect_substring)
  execute_process(COMMAND ${CLI} ${ARGN}
                  RESULT_VARIABLE code
                  OUTPUT_VARIABLE out
                  ERROR_VARIABLE err)
  if(NOT code EQUAL ${expect_code})
    message(FATAL_ERROR
            "segdiff_cli ${ARGN}: exit ${code}, expected ${expect_code}:"
            "\n${out}${err}")
  endif()
  if(NOT "${expect_substring}" STREQUAL "" AND
     NOT "${out}${err}" MATCHES "${expect_substring}")
    message(FATAL_ERROR
            "segdiff_cli ${ARGN}: expected '${expect_substring}' in:"
            "\n${out}${err}")
  endif()
endfunction()

# search --mode takes seq, index or auto only: anything else is a usage
# error (exit 2) naming the accepted values, never a silent seq scan.
run_cli_status(2 "--mode must be seq, index or auto"
               search --db ${DB} --t-hours 1 --v -3 --mode idx)
# A mistyped flag, a count that is not a non-negative integer, or a
# number with trailing junk is a usage error (exit 2) naming the flag,
# never a search run with the default or with the digits before the junk.
run_cli_status(2 "unknown flag '--t-hour'"
               search --db ${DB} --t-hour 5 --v -3)
run_cli_status(2 "--limit must be a non-negative integer"
               search --db ${DB} --t-hours 1 --v -3 --limit -1)
run_cli_status(2 "--threads must be a non-negative integer"
               search --db ${DB} --t-hours 1 --v -3 --threads -2)
run_cli_status(2 "--timeout-ms must be a non-negative integer"
               search --db ${DB} --t-hours 1 --v -3 --timeout-ms abc)
run_cli_status(2 "--max-mem must be a non-negative integer"
               search --db ${DB} --t-hours 1 --v -3 --max-mem -1)
run_cli_status(2 "--t-hours must be a finite number"
               search --db ${DB} --t-hours 1x --v -3)
run_cli_status(2 "--v must be a finite number"
               search --db ${DB} --t-hours 1 --v nan)
run_cli_status(2 "--eps must be a finite number"
               build --csv ${CSV} --db ${WORK}/unused.db --eps 0.2.1)
run_cli_status(2 "--days must be a non-negative integer"
               generate --out ${WORK}/unused.csv --days 5d)
run_cli_status(2 "--wal-window-ms must be a non-negative integer"
               append --csv ${CSV2} --db ${DB} --wal-window-ms abc)
run_cli_status(2 "unknown flag '--sensor-count'"
               transect stats --dir ${WORK}/cli_transect --sensor-count 3)

# The compacted store's feature tables are columnar and carry no B+-tree:
# an explicit index scan is refused cleanly, stats report no index bytes.
run_cli_status(1 "index scan requested but indexes were not built"
               search --db ${COMPACT} --t-hours 1 --v -3 --mode index)
run_cli("index bytes: +0\n" stats --db ${COMPACT})

# Transect workflow: build a small deployment, search it, rebalance it
# onto a new shard width, then damage one sensor store and walk the
# health commands' exit contract (0 healthy / 2 corrupt / 3 transient).
set(TRANSECT ${WORK}/cli_transect)
file(REMOVE_RECURSE ${TRANSECT})
run_cli("built transect .*6 sensors in 3 shards"
        transect build --dir ${TRANSECT} --sensors 6 --days 2
        --shard-sensors 2)
run_cli("periods on [0-9]+ of 6 sensors with a drop"
        transect search --dir ${TRANSECT} --t-hours 1 --v -1)
run_cli("health: *6/6 sensors scanned, 0 corrupt"
        transect stats --dir ${TRANSECT})
run_cli("transect verify: ok" transect verify --dir ${TRANSECT})
run_cli("rebalanced .*: 2 -> 3 sensors per shard \\(2 shards\\)"
        transect rebalance --dir ${TRANSECT} --shard-sensors 3)
run_cli("transect verify: ok" transect verify --dir ${TRANSECT})

# Clobber one sensor store (the rebalanced layout keeps sensor 0 in the
# first generation-3 shard). Header gone => the store cannot open: the
# health commands must say "corrupt" and exit 2, the search must isolate
# the sensor and warn, and repair must admit there is nothing to
# salvage.
set(VICTIM ${TRANSECT}/g3-shard00000/sensor0.db)
if(NOT EXISTS ${VICTIM})
  message(FATAL_ERROR "expected rebalanced store at ${VICTIM}")
endif()
file(COPY_FILE ${VICTIM} ${WORK}/cli_victim_backup.db)
file(WRITE ${VICTIM} "this is not a segdiff store")
run_cli_status(2 "1 corrupt" transect stats --dir ${TRANSECT})
run_cli_status(2 "transect verify: FAILED"
               transect verify --dir ${TRANSECT})
run_cli("WARNING: 1 sensor skipped \\(store would not open\\)"
        transect search --dir ${TRANSECT} --t-hours 1 --v -1)
run_cli_status(2 "6 sensors checked, 0 repaired, 1 failed"
               transect repair --dir ${TRANSECT})

# Restore the store from backup: the transect must scrub clean again.
file(COPY_FILE ${WORK}/cli_victim_backup.db ${VICTIM})
run_cli("transect verify: ok" transect verify --dir ${TRANSECT})
run_cli_status(0 "0 corrupt" transect stats --dir ${TRANSECT})
file(REMOVE ${WORK}/cli_victim_backup.db)
file(REMOVE_RECURSE ${TRANSECT})

# Failure paths exit non-zero.
execute_process(COMMAND ${CLI} search --db ${WORK}/missing.db
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "search on a missing db unexpectedly succeeded")
endif()
execute_process(COMMAND ${CLI} frobnicate
                RESULT_VARIABLE code OUTPUT_QUIET ERROR_QUIET)
if(code EQUAL 0)
  message(FATAL_ERROR "unknown command unexpectedly succeeded")
endif()

file(REMOVE ${CSV} ${CSV2} ${DB} ${SEGMENTS} ${COMPACT})
message(STATUS "segdiff_cli workflow OK")
