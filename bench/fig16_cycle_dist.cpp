/**
 * @file
 * Figure 16: minimum / maximum / median / mean bandwidth for the 8-SPE
 * cycle across placement-randomized runs.
 *
 * Paper shapes: ~20 GB/s spread for DMA-elem and ~10 GB/s for DMA-list
 * — smaller than the couples spread, because with 16 active transfer
 * directions *every* placement conflicts somewhere, yet placement still
 * matters even under full EIB saturation.
 */

#include "spespe_figure.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    b.requireSpes(8);
    b.header("Figure 16", "8-SPE cycle, min/max/median/mean across "
                          "placements");
    return bench::runSpeSpeDistribution(b, "Fig 16",
                                        core::SpeSpeMode::Cycle);
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(fig16_cycle_dist, "Fig. 16",
                           "8-SPE cycle placement spread "
                           "(paper Fig. 16)",
                           run)
