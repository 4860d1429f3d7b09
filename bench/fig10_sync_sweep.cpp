/**
 * @file
 * Figure 10: impact of delayed DMA synchronization on SPE-to-SPE
 * DMA-elem transfers (one active SPE, one passive).
 *
 * Paper shapes: bandwidth rises as the tag wait is postponed (sync
 * after every request, every 2, 4, ... all); saturating the MFC queue
 * matters most for 1 KB-8 KB elements; with fully delayed sync,
 * elements >= 1024 B reach almost the 33.6 GB/s pair peak while smaller
 * DMA-elem chunks degrade badly.
 */

#include "bench_common.hh"
#include "core/experiments.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    b.requireSpes(2);
    b.header("Figure 10", "SPE pair, sync after every k DMA requests");

    const auto elems = core::elemSweepSizes();
    const unsigned sync_every[] = {1, 2, 4, 8, 16, 0};   // 0 = all

    std::vector<std::string> xlabels;
    for (auto e : elems)
        xlabels.push_back(core::elemLabel(e));

    std::vector<core::BatchPoint> points;
    for (unsigned k : sync_every) {
        for (auto e : elems) {
            core::SpeSpeConfig sc;
            sc.mode = core::SpeSpeMode::Couples;
            sc.numSpes = 2;
            sc.elemBytes = e;
            sc.syncEvery = k;
            sc.bytesPerStream = b.bytesPerSpe;
            points.push_back({b.cfg, b.repeat,
                              [sc](cell::CellSystem &sys) {
                return core::runSpeSpe(sys, sc);
            }});
        }
    }
    const auto dists = core::runBatch(points, b.par);

    stats::Table table({"sync-every", "elem", "GB/s(mean)", "GB/s(min)",
                        "GB/s(max)"});
    stats::SeriesChart chart("Fig 10: mean GB/s vs element size, by sync "
                             "delay", xlabels);
    auto d = dists.begin();
    for (unsigned k : sync_every) {
        std::vector<double> series;
        for (auto e : elems) {
            series.push_back(d->mean());
            table.addRow({k ? std::to_string(k) : "all",
                          core::elemLabel(e),
                          stats::Table::num(d->mean()),
                          stats::Table::num(d->min()),
                          stats::Table::num(d->max())});
            ++d;
        }
        chart.addSeries(k ? util::format("every %u", k) : "all at end",
                        series);
    }
    b.emit(table);
    b.print(chart.render());
    b.printf("\nreference: pair peak (concurrent GET+PUT) %.1f GB/s\n",
             b.cfg.pairPeakGBps());
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(fig10_sync_sweep, "Fig. 10",
                           "delayed DMA-elem synchronization, SPE to "
                           "SPE (paper Fig. 10)",
                           run)
