/**
 * @file
 * Ablation A: how much of the cycle-experiment loss is ring scarcity?
 *
 * The paper attributes the 8-SPE cycle's ~50% efficiency to "saturation
 * of the 4 EIB rings".  We re-run the cycle with 2, 4 and 8 data rings
 * to isolate that factor from port limits and placement.
 */

#include "bench_common.hh"
#include "core/experiments.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    b.requireSpes(8);
    b.header("Ablation A", "8-SPE cycle vs number of EIB data rings");

    const unsigned ringCounts[] = {2, 4, 8};
    const core::SpeSpeMode modes[] = {core::SpeSpeMode::Couples,
                                      core::SpeSpeMode::Cycle};
    std::vector<core::BatchPoint> points;
    for (unsigned rings : ringCounts) {
        auto cfg = b.cfg;
        cfg.eib.numRings = rings;
        for (auto mode : modes) {
            core::SpeSpeConfig sc;
            sc.mode = mode;
            sc.numSpes = 8;
            sc.elemBytes = 4096;
            sc.bytesPerStream = b.bytesPerSpe;
            points.push_back({cfg, b.repeat, [sc](cell::CellSystem &sys) {
                return core::runSpeSpe(sys, sc);
            }});
        }
    }
    const auto dists = core::runBatch(points, b.par);

    stats::Table table({"rings", "topology", "GB/s(mean)", "GB/s(min)",
                        "GB/s(max)", "of peak"});
    auto d = dists.begin();
    for (unsigned rings : ringCounts) {
        for (auto mode : modes) {
            double peak = 8 * b.cfg.rampPeakGBps();
            table.addRow({std::to_string(rings),
                          mode == core::SpeSpeMode::Cycle ? "cycle"
                                                          : "couples",
                          stats::Table::num(d->mean()),
                          stats::Table::num(d->min()),
                          stats::Table::num(d->max()),
                          util::format("%.0f%%",
                                       100.0 * d->mean() / peak)});
            ++d;
        }
    }
    b.emit(table);
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(abl_rings, "Abl. A",
                           "EIB ring-count ablation on the 8-SPE cycle",
                           run)
