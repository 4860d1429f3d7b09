/**
 * @file
 * Shared drivers for the SPE-to-SPE figures: couples (12, 13) and
 * cycles (15, 16), mean sweeps and min/max/median/mean distributions.
 */

#ifndef CELLBW_BENCH_SPESPE_FIGURE_HH
#define CELLBW_BENCH_SPESPE_FIGURE_HH

#include "bench_common.hh"
#include "core/experiments.hh"

namespace cellbw::bench
{

/**
 * Experiment peak: every allocated SPE ramp moves 16.8 GB/s in and
 * 16.8 out when perfectly scheduled, and each initiated byte crosses
 * one TX and one RX port, so both topologies peak at n x 16.8 GB/s
 * (33.6 for 2 SPEs, 67.2 for 4, 134.4 for 8 — the paper's numbers).
 */
inline double
peakFor(const core::ExperimentContext &b, core::SpeSpeMode, unsigned n)
{
    return n * b.cfg.rampPeakGBps();
}

/**
 * The batch of one SPE-to-SPE figure: for DMA-elem then DMA-list, one
 * point per (SPE count, element size), in that order.
 */
inline std::vector<stats::Distribution>
runSpeSpeBatch(core::ExperimentContext &b, core::SpeSpeMode mode,
               const std::vector<unsigned> &counts)
{
    std::vector<core::BatchPoint> points;
    for (bool use_list : {false, true}) {
        for (unsigned n : counts) {
            for (auto e : core::elemSweepSizes()) {
                core::SpeSpeConfig sc;
                sc.mode = mode;
                sc.numSpes = n;
                sc.elemBytes = e;
                sc.useList = use_list;
                sc.bytesPerStream = b.bytesPerSpe;
                points.push_back({b.cfg, b.repeat,
                                  [sc](cell::CellSystem &sys) {
                    return core::runSpeSpe(sys, sc);
                }});
            }
        }
    }
    return core::runBatch(points, b.par);
}

/** Figures 12 / 15: mean bandwidth sweep for @p counts SPEs (2/4/8 as
 *  far as --spes allows), elem & list. */
inline int
runSpeSpeSweep(core::ExperimentContext &b, const char *figure,
               core::SpeSpeMode mode, const std::vector<unsigned> &counts)
{
    const auto elems = core::elemSweepSizes();

    std::vector<std::string> xlabels;
    for (auto e : elems)
        xlabels.push_back(core::elemLabel(e));

    const auto dists = runSpeSpeBatch(b, mode, counts);
    auto d = dists.begin();
    for (bool use_list : {false, true}) {
        stats::Table table({"mode", "spes", "elem", "GB/s(mean)",
                            "GB/s(min)", "GB/s(max)"});
        stats::SeriesChart chart(
            util::format("%s (%s): mean GB/s vs element size", figure,
                         use_list ? "DMA-list" : "DMA-elem"),
            xlabels);
        for (unsigned n : counts) {
            std::vector<double> series;
            for (auto e : elems) {
                series.push_back(d->mean());
                table.addRow({use_list ? "DMA-list" : "DMA-elem",
                              std::to_string(n), core::elemLabel(e),
                              stats::Table::num(d->mean()),
                              stats::Table::num(d->min()),
                              stats::Table::num(d->max())});
                ++d;
            }
            chart.addSeries(util::format("%u SPEs", n), series);
        }
        b.emit(table);
        b.print(chart.render());
        b.printf("\n");
    }
    std::string peaks;
    for (unsigned n : counts) {
        peaks += util::format("%s%u SPEs %.1f", peaks.empty() ? "" : ", ",
                              n, peakFor(b, mode, n));
    }
    b.printf("reference peaks: %s GB/s\n", peaks.c_str());
    return b.finish();
}

/** Figures 13 / 16: 8-SPE min/max/median/mean across placements. */
inline int
runSpeSpeDistribution(core::ExperimentContext &b, const char *figure,
                      core::SpeSpeMode mode)
{
    const auto elems = core::elemSweepSizes();

    std::vector<std::string> xlabels;
    for (auto e : elems)
        xlabels.push_back(core::elemLabel(e));

    const auto dists = runSpeSpeBatch(b, mode, {8});
    auto d = dists.begin();
    for (bool use_list : {false, true}) {
        stats::Table table({"mode", "elem", "min", "max", "median",
                            "mean"});
        stats::SeriesChart chart(
            util::format("%s (%s): min/median/max GB/s vs element size",
                         figure, use_list ? "DMA-list" : "DMA-elem"),
            xlabels);
        std::vector<double> mins, meds, maxs;
        for (auto e : elems) {
            mins.push_back(d->min());
            meds.push_back(d->median());
            maxs.push_back(d->max());
            table.addRow({use_list ? "DMA-list" : "DMA-elem",
                          core::elemLabel(e),
                          stats::Table::num(d->min()),
                          stats::Table::num(d->max()),
                          stats::Table::num(d->median()),
                          stats::Table::num(d->mean())});
            ++d;
        }
        chart.addSeries("min", mins);
        chart.addSeries("median", meds);
        chart.addSeries("max", maxs);
        b.emit(table);
        b.print(chart.render());
        b.printf("\n");
    }
    b.printf("reference: 8-SPE peak %.1f GB/s; the spread is pure "
             "physical-placement luck\n", peakFor(b, mode, 8));
    return b.finish();
}

} // namespace cellbw::bench

#endif // CELLBW_BENCH_SPESPE_FIGURE_HH
