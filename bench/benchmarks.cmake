# One regenerating binary per table/figure of the paper, plus
# google-benchmark microbenches for the engine claims. Everything under
# build/bench/ runs without arguments and terminates quickly, so
# `for b in build/bench/*; do $b; done` reproduces the whole evaluation.
function(pdcu_add_bench name)
  add_executable(${name} ${ARGN})
  target_link_libraries(${name} PRIVATE
    pdcu_core pdcu_site pdcu_runtime pdcu_activities pdcu_extensions
    pdcu_options)
  set_target_properties(${name} PROPERTIES
    RUNTIME_OUTPUT_DIRECTORY ${CMAKE_BINARY_DIR}/bench)
endfunction()

function(pdcu_add_gbench name)
  pdcu_add_bench(${name} ${ARGN})
  target_link_libraries(${name} PRIVATE benchmark::benchmark)
endfunction()

# Paper tables and figures.
pdcu_add_bench(bench_table1_cs2013 bench/bench_table1_cs2013.cpp)
pdcu_add_bench(bench_table2_tcpp bench/bench_table2_tcpp.cpp)
pdcu_add_bench(bench_courses_resources bench/bench_courses_resources.cpp)
pdcu_add_bench(bench_accessibility bench/bench_accessibility.cpp)
pdcu_add_bench(bench_gaps bench/bench_gaps.cpp)
pdcu_add_bench(bench_fig_templates bench/bench_fig_templates.cpp)

# Simulation evaluations (qualitative claims of §III).
pdcu_add_bench(bench_speedup bench/bench_speedup.cpp)
pdcu_add_bench(bench_stabilization bench/bench_stabilization.cpp)
pdcu_add_bench(bench_byzantine bench/bench_byzantine.cpp)
pdcu_add_bench(bench_races bench/bench_races.cpp)

# Future-work and design ablations.
pdcu_add_bench(bench_extensions bench/bench_extensions.cpp)
pdcu_add_bench(bench_ablation_collectives bench/bench_ablation_collectives.cpp)
pdcu_add_bench(bench_ablation_costmodel bench/bench_ablation_costmodel.cpp)

# Engine microbenchmarks (Hugo's "fast build times" claim, taxonomy
# queries, synchronization strategies).
pdcu_add_gbench(bench_sitegen bench/bench_sitegen.cpp)
pdcu_add_gbench(bench_taxonomy bench/bench_taxonomy.cpp)
pdcu_add_gbench(bench_sync_methods bench/bench_sync_methods.cpp)

# Corpus-scale search: synthetic corpora, exhaustive-vs-MaxScore latency.
pdcu_add_gbench(bench_search_scale bench/bench_search_scale.cpp)
target_link_libraries(bench_search_scale PRIVATE pdcu_search)

# Stencil compute kernels (Game of Life): serial vs tiled vs SIMD
# throughput and the classroom halo-exchange run.
pdcu_add_gbench(bench_stencil bench/bench_stencil.cpp)
