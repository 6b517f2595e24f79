# The bench_studies_smoke test: every bench_micro_pipeline study at a tiny
# scale in a fresh working directory, then --study scaling alone over the same
# BENCH_pipeline.json with a key no study owns added.  The second run must
# rewrite the scaling key only, keep every other key byte for byte, and
# drop the unowned key.
#
#   cmake -DBENCH=<bench_micro_pipeline> -DDIR=<working dir> -P studies_smoke.cmake
file(REMOVE_RECURSE "${DIR}")
file(MAKE_DIRECTORY "${DIR}")
set(ENV{ENTRACE_SCALE} 0.002)
set(ENV{ENTRACE_BENCH_REPS} 1)
set(json "${DIR}/BENCH_pipeline.json")

function(run_bench)
  execute_process(COMMAND "${BENCH}" ${ARGN} WORKING_DIRECTORY "${DIR}" RESULT_VARIABLE rc)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "bench_micro_pipeline ${ARGN} exited ${rc}")
  endif()
endfunction()

run_bench(--benchmark_min_time=0.01)
file(READ "${json}" first)
foreach(study memory snapshot telemetry dispatch daemon scaling micro)
  # string(JSON GET) stops the script on a missing member.
  string(JSON threads GET "${first}" ${study} context hardware_threads)
  string(JSON rows LENGTH "${first}" ${study} rows)
  if(rows EQUAL 0)
    message(FATAL_ERROR "study ${study} recorded no rows")
  endif()
  math(EXPR last "${rows} - 1")
  foreach(i RANGE ${last})
    string(JSON ok GET "${first}" ${study} rows ${i} ok)
    if(NOT ok)
      message(FATAL_ERROR "study ${study}, row ${i} failed")
    endif()
  endforeach()
endforeach()
string(JSON median GET "${first}" scaling rows 0 seconds median)
string(JSON min GET "${first}" scaling rows 0 seconds min)
string(JSON max GET "${first}" scaling rows 0 seconds max)

# The file opens with "{\n"; put the unowned key first.
string(SUBSTRING "${first}" 2 -1 members)
file(WRITE "${json}" "{\n  \"stale\": {\"rows\": []},\n${members}")
run_bench(--study scaling)
file(READ "${json}" second)
string(JSON stale ERROR_VARIABLE dropped GET "${second}" stale)
if(NOT dropped)
  message(FATAL_ERROR "the unowned key \"stale\" survived --study scaling")
endif()
string(JSON rows LENGTH "${second}" scaling rows)

# Everything before the scaling key and from the micro key on is the first
# run's, byte for byte.
foreach(run first second)
  string(FIND "${${run}}" "\n  \"scaling\": " begin)
  string(FIND "${${run}}" ",\n  \"micro\": " end)
  if(begin EQUAL -1 OR end EQUAL -1)
    message(FATAL_ERROR "the ${run} run's file lacks the scaling or micro key")
  endif()
  string(SUBSTRING "${${run}}" 0 ${begin} ${run}_before)
  string(SUBSTRING "${${run}}" ${end} -1 ${run}_after)
endforeach()
if(NOT first_before STREQUAL second_before OR NOT first_after STREQUAL second_after)
  message(FATAL_ERROR "--study scaling changed a key other than scaling")
endif()
