/**
 * @file
 * Figure 12: couples of SPEs (half initiate GET+PUT with a passive
 * logical neighbor) — DMA-elem and DMA-list, 2/4/8 SPEs.
 *
 * Paper shapes: 2 and 4 SPEs run near their 33.6 / 67.2 GB/s peaks;
 * 8 SPEs average only ~70% (DMA-elem) / ~60% (DMA-list) of 134.4 GB/s
 * because the four pairs' ring paths conflict depending on physical
 * placement; DMA-list bandwidth is flat across element sizes while
 * DMA-elem collapses below 1 KB.
 */

#include "spespe_figure.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    const auto counts = b.speCounts({2, 4, 8});
    b.header("Figure 12", "couples of SPEs (active + passive pairs)");
    return bench::runSpeSpeSweep(b, "Fig 12", core::SpeSpeMode::Couples,
                                 counts);
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(fig12_couples, "Fig. 12",
                           "SPE couples GET+PUT bandwidth "
                           "(paper Fig. 12)",
                           run)
