/**
 * @file
 * Figure 13: minimum / maximum / median / mean bandwidth for 4 couples
 * (8 SPEs) across placement-randomized runs.
 *
 * Paper shapes: tens of GB/s between the best and worst placement —
 * with four concurrent pairs the logical-to-physical SPE mapping decides
 * whether ring paths collide, and libspe 1.1 gives the programmer no
 * control over it.
 */

#include "spespe_figure.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    b.requireSpes(8);
    b.header("Figure 13", "4 couples, min/max/median/mean across "
                          "placements");
    return bench::runSpeSpeDistribution(b, "Fig 13",
                                        core::SpeSpeMode::Couples);
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(fig13_couples_dist, "Fig. 13",
                           "8-SPE couples placement spread "
                           "(paper Fig. 13)",
                           run)
