/**
 * @file
 * Shared driver for Figures 3, 4 and 6: PPE load/store/copy bandwidth
 * against one level of the hierarchy, for 1 and 2 SMT threads and
 * element sizes 1-16 bytes.
 */

#ifndef CELLBW_BENCH_PPE_FIGURE_HH
#define CELLBW_BENCH_PPE_FIGURE_HH

#include <functional>

#include "bench_common.hh"
#include "core/experiments.hh"

namespace cellbw::bench
{

using PpeConfigFactory = std::function<core::PpeStreamConfig(
    unsigned threads, unsigned elem, ppe::MemOp op)>;

inline int
runPpeFigure(core::ExperimentContext &b, const char *figure,
             const char *level, const PpeConfigFactory &factory)
{
    b.header(figure, level);

    const auto elems = core::ppeElemSizes();
    const ppe::MemOp ops[] = {ppe::MemOp::Load, ppe::MemOp::Store,
                              ppe::MemOp::Copy};

    std::vector<std::string> xlabels;
    for (auto e : elems)
        xlabels.push_back(util::format("%uB", e));

    // PPE runs are deterministic (no SPE placement): one run per
    // point suffices.  All points go out as one batch.
    const core::RepeatSpec once{1, b.repeat.seed};
    std::vector<core::BatchPoint> points;
    for (auto op : ops) {
        for (unsigned threads = 1; threads <= 2; ++threads) {
            for (auto e : elems) {
                auto cfg = factory(threads, e, op);
                cfg.totalBytes = b.bytesPerSpe;
                points.push_back({b.cfg, once,
                                  [cfg](cell::CellSystem &sys) {
                    return core::runPpeStream(sys, cfg);
                }});
            }
        }
    }
    const auto dists = core::runBatch(points, b.par);

    auto d = dists.begin();
    for (auto op : ops) {
        stats::Table table({"op", "threads", "elem", "GB/s"});
        stats::SeriesChart chart(
            util::format("%s %s: GB/s vs element size", level,
                         core::toString(op)),
            xlabels);
        for (unsigned threads = 1; threads <= 2; ++threads) {
            std::vector<double> series;
            for (auto e : elems) {
                series.push_back(d->mean());
                table.addRow({core::toString(op),
                              std::to_string(threads),
                              util::format("%uB", e),
                              stats::Table::num(d->mean())});
                ++d;
            }
            chart.addSeries(util::format("%u thread%s", threads,
                                         threads > 1 ? "s" : ""),
                            series);
        }
        b.emit(table);
        b.print(chart.render());
        b.printf("\n");
    }
    b.printf("reference: PPU<->L1 link peak %.1f GB/s\n",
             16.0 * b.cfg.clock.cpuHz / 1e9);
    return b.finish();
}

} // namespace cellbw::bench

#endif // CELLBW_BENCH_PPE_FIGURE_HH
