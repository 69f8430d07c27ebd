#pragma once

/**
 * @file
 * The evaluation's engine job grid: every engine-driven figure binary
 * of bench/ (fig5..fig16) reproduced job for job, in the order
 * scripts/run_all_figures.sh runs them, each as one engine batch.
 * Job labels, machine configs and program variants match the figure
 * sources, so the within-figure and cross-figure duplicate structure
 * (1131 submitted, 844 unique at default settings) is the real one.
 */

#include <cstdint>
#include <string>
#include <vector>

#include "sim/engine.h"
#include "workloads/workload.h"

namespace perfbench {

struct Figure
{
    std::string name;
    std::vector<dttsim::sim::SimJob> jobs;
    /** Jobs this figure executes when run after the figures before it
     *  against one shared, initially empty store (the figure binaries'
     *  stderr summary "N submitted, M executed"). */
    std::uint64_t expectExecuted = 0;
};

/** Build every figure's batch from @p params (seed, iterations). */
std::vector<Figure> buildGrid(const dttsim::workloads::WorkloadParams &params);

/** "fig8_tq_size/mcf/dtt tq=4 squash": the reference-record key. */
std::string jobLabel(const Figure &fig, const dttsim::sim::SimJob &job);

} // namespace perfbench
