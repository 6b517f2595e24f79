# The examples_smoke test: the examples that render report sections by
# name, scanner_hunt and trace_inspector, at tiny inputs.  Each must exit 0
# and print the titles or lines it names, so a misspelled section name
# (report::section throws) fails here instead of in a user's hands.
# trace_inspector writes its demo capture to DEMO_PCAP and reads it back.
#
#   cmake -DQUICKSTART=<quickstart> -DCAPACITY_PLANNING=<capacity_planning>
#         -DCORRUPTION_DEMO=<corruption_demo> -DSCANNER_HUNT=<scanner_hunt>
#         -DTRACE_INSPECTOR=<trace_inspector> -DDEMO_PCAP=<out.pcap>
#         -P examples_smoke.cmake
#
# `arg` is a list: each element is one command-line argument.
function(run_example binary arg)
  execute_process(COMMAND "${binary}" ${arg} RESULT_VARIABLE rc OUTPUT_VARIABLE out)
  if(NOT rc EQUAL 0)
    message(FATAL_ERROR "${binary} ${arg} exited ${rc}")
  endif()
  foreach(title ${ARGN})
    string(FIND "${out}" "${title}" at)
    if(at EQUAL -1)
      message(FATAL_ERROR "${binary} ${arg} printed no '${title}'")
    endif()
  endforeach()
endfunction()

run_example("${QUICKSTART}" 0.002 "Table 2:" "Table 3:" "Figure 1(a):")
run_example("${CAPACITY_PLANNING}" 0.002 "Figure 9(a):" "Figure 10:")
run_example("${CORRUPTION_DEMO}" 0.1 "Capture quality:")
run_example("${SCANNER_HUNT}" 0.002 "scanner sources detected:" "connections:")
run_example("${TRACE_INSPECTOR}" "--demo;${DEMO_PCAP}" "top connections by payload bytes:"
            "application events parsed:")
