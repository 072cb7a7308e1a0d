# CLI round-trip smoke (the `clismoke` ctest): generate two small tables,
# extract a knowledge-base store from one, then read the store back every
# way the CLI can — stats, indexed detection on the other table, and a
# re-shard. `extract --help` must list the registry's flags. Every step
# must exit 0, and a malformed `--index-buckets` must be rejected rather
# than read as "auto". The CLI drops CSVs into its working directory, so
# everything runs inside WORK_DIR.
foreach(var SAGED WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "CliSmoke.cmake needs -D${var}=...")
  endif()
endforeach()

file(REMOVE_RECURSE ${WORK_DIR})
file(MAKE_DIRECTORY ${WORK_DIR})

# Runs `saged ARGN` in WORK_DIR; EXPECT_FAIL inverts the exit-code check,
# and EXPECT_OUT REGEX requires stdout to match REGEX.
function(saged_step)
  cmake_parse_arguments(STEP "EXPECT_FAIL" "EXPECT_OUT" "" ${ARGN})
  execute_process(
    COMMAND ${SAGED} ${STEP_UNPARSED_ARGUMENTS}
    WORKING_DIRECTORY ${WORK_DIR}
    RESULT_VARIABLE rc
    OUTPUT_VARIABLE out
    ERROR_VARIABLE err)
  string(REPLACE ";" " " cmd "${STEP_UNPARSED_ARGUMENTS}")
  if(STEP_EXPECT_FAIL)
    if(rc EQUAL 0)
      message(FATAL_ERROR "saged ${cmd} should have failed:\n${out}")
    endif()
  elseif(NOT rc EQUAL 0)
    message(FATAL_ERROR "saged ${cmd} failed (${rc}):\n${out}\n${err}")
  endif()
  if(DEFINED STEP_EXPECT_OUT AND NOT out MATCHES "${STEP_EXPECT_OUT}")
    message(FATAL_ERROR
            "saged ${cmd} printed no match for '${STEP_EXPECT_OUT}':\n${out}")
  endif()
  message(STATUS "saged ${cmd}\n${out}${err}")
endfunction()

# Per-command help exits 0 and prints the registry flags with their help.
saged_step(extract --help EXPECT_OUT "--extract-threads +offline featurize")
saged_step(generate adult --rows 200)
saged_step(generate beers --rows 150)
saged_step(extract --data adult_dirty.csv --mask adult_mask.csv
           --out kb_store --runs-dir none)
saged_step(kb stats --kb kb_store)
saged_step(detect --kb kb_store --data beers_dirty.csv
           --oracle-mask beers_mask.csv --similarity indexed
           --out detections.csv --runs-dir none)
saged_step(kb build-index --kb kb_store --out kb_store_2
           --index-buckets 2 --seed 7)
saged_step(kb stats --kb kb_store_2/manifest.sagk)
saged_step(kb build-index --kb kb_store --out kb_store_bad
           --index-buckets abc EXPECT_FAIL)
