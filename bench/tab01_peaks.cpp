/**
 * @file
 * The architectural peak-bandwidth table of Sections 1 and 3, printed
 * next to what the simulated machine actually sustains — the paper's
 * whole point in one table.
 */

#include "bench_common.hh"
#include "core/experiments.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    b.header("Table 1 (implicit)", "peak vs sustained for every path");

    // One batch over every path: (label, peak, point).  The
    // placement-free PPE and SPU<->LS paths run once, unrecorded in
    // the metrics; the SPE paths sweep placements like the figures.
    // A path that needs more SPEs than --spes is left out.
    struct Path
    {
        const char *label;
        double peak;
    };
    std::vector<Path> paths;
    std::vector<core::BatchPoint> points;
    const core::RepeatSpec once{1, b.repeat.seed};
    auto add = [&](const char *label, double peak,
                   const core::RepeatSpec &spec, core::ExperimentBody body,
                   unsigned spes = 1) {
        if (spes > b.cfg.numSpes)
            return;
        paths.push_back({label, peak});
        points.push_back({b.cfg, spec, std::move(body)});
    };

    // SPU <-> LS, 16 B loads.
    core::SpuLsConfig lc;
    lc.elemSize = 16;
    lc.totalBytes = b.bytesPerSpe;
    add("SPU <-> LS (16B load)", b.cfg.lsPeakGBps(), once,
        [lc](cell::CellSystem &s) { return core::runSpuLs(s, lc); });
    // PPE -> L1, 8 B loads.
    auto l1 = core::ppeL1Config(1, 8, ppe::MemOp::Load);
    l1.totalBytes = b.bytesPerSpe;
    add("PPU <- L1 (8B load)", 16.0 * b.cfg.clock.cpuHz / 1e9, once,
        [l1](cell::CellSystem &s) { return core::runPpeStream(s, l1); });
    // PPE -> memory, 16 B loads.
    auto pm = core::ppeMemConfig(1, 16, ppe::MemOp::Load);
    pm.totalBytes = b.bytesPerSpe;
    add("PPU <- memory (16B load)", b.cfg.rampPeakGBps(), once,
        [pm](cell::CellSystem &s) { return core::runPpeStream(s, pm); });
    // 1 SPE, then 4 SPEs (both banks), GET from memory.
    core::SpeMemConfig one;
    one.numSpes = 1;
    one.bytesPerSpe = b.bytesPerSpe;
    add("1 SPE GET <- memory", b.cfg.rampPeakGBps(), b.repeat,
        [one](cell::CellSystem &s) { return core::runSpeMem(s, one); });
    core::SpeMemConfig four = one;
    four.numSpes = 4;
    add("4 SPEs GET <- memory (MIC+IOIF)", b.cfg.rampPeakGBps() + 7.0,
        b.repeat,
        [four](cell::CellSystem &s) { return core::runSpeMem(s, four); },
        four.numSpes);
    // SPE pair GET+PUT, then the 8-SPE cycle.
    core::SpeSpeConfig pair;
    pair.numSpes = 2;
    pair.elemBytes = 4096;
    pair.bytesPerStream = b.bytesPerSpe;
    add("SPE pair GET+PUT (4KiB)", b.cfg.pairPeakGBps(), b.repeat,
        [pair](cell::CellSystem &s) { return core::runSpeSpe(s, pair); },
        pair.numSpes);
    core::SpeSpeConfig cycle = pair;
    cycle.mode = core::SpeSpeMode::Cycle;
    cycle.numSpes = 8;
    add("8-SPE cycle GET+PUT (4KiB)", 8 * b.cfg.rampPeakGBps(), b.repeat,
        [cycle](cell::CellSystem &s) { return core::runSpeSpe(s, cycle); },
        cycle.numSpes);

    const auto dists = core::runBatch(points, b.par);
    stats::Table table({"path", "peak GB/s", "sustained GB/s",
                        "efficiency"});
    for (std::size_t i = 0; i < paths.size(); ++i) {
        const double meas = dists[i].mean();
        table.addRow({paths[i].label, stats::Table::num(paths[i].peak, 1),
                      stats::Table::num(meas),
                      util::format("%.0f%%",
                                   100.0 * meas / paths[i].peak)});
    }

    b.emit(table);
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(tab01_peaks, "Tab. 1",
                           "architectural peaks vs sustained bandwidth",
                           run)
