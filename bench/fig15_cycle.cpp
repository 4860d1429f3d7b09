/**
 * @file
 * Figure 15: cycle of SPEs (every SPE initiates GET+PUT with its
 * logical neighbor) — DMA-elem and DMA-list, 2/4/8 SPEs.
 *
 * Paper shapes: 2 SPEs reach the 33.6 GB/s peak; with 4 SPEs (8 active
 * DMA directions) the four rings saturate and only ~50 of 67.2 GB/s
 * survive; 8 SPEs get ~70 of 134.4 GB/s — *less* than the couples
 * experiment with half the active transfers, showing that saturating
 * the EIB is counterproductive.
 */

#include "spespe_figure.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    const auto counts = b.speCounts({2, 4, 8});
    b.header("Figure 15", "cycle of SPEs (all active)");
    return bench::runSpeSpeSweep(b, "Fig 15", core::SpeSpeMode::Cycle,
                                 counts);
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(fig15_cycle, "Fig. 15",
                           "cycle-of-SPEs GET+PUT bandwidth "
                           "(paper Fig. 15)",
                           run)
