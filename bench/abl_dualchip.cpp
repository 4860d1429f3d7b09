/**
 * @file
 * Ablation E: the paper's closing warning, quantified.
 *
 * "This problem is even worse when using more than one Cell chip,
 * since SPEs could be allocated in different chips, and they would
 * have to communicate through the IO, limited to 7 GB/s."
 *
 * We enable the second chip's SPEs and compare couples bandwidth when
 * the kernel scatters pairs across chips (random placement over 16
 * physical slots) against pairs kept chip-local (paired affinity).
 */

#include "bench_common.hh"
#include "core/experiments.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    b.header("Ablation E", "couples across one vs two chips");

    stats::Table table({"config", "spes", "GB/s(mean)", "GB/s(min)",
                        "GB/s(max)"});

    struct Row
    {
        const char *name;
        unsigned chips;
        unsigned spes;
        cell::AffinityPolicy aff;
    } rows[] = {
        {"1 chip, random placement", 1, 8, cell::AffinityPolicy::Random},
        {"2 chips, random placement (pairs may straddle the IOIF)", 2, 8,
         cell::AffinityPolicy::Random},
        {"2 chips, paired affinity (pairs chip-local)", 2, 8,
         cell::AffinityPolicy::Paired},
        {"2 chips, 16 SPEs, random placement", 2, 16,
         cell::AffinityPolicy::Random},
        {"2 chips, 16 SPEs, paired affinity", 2, 16,
         cell::AffinityPolicy::Paired},
    };

    std::vector<core::BatchPoint> points;
    for (const auto &row : rows) {
        auto cfg = b.cfg;
        cfg.numChips = row.chips;
        cfg.numSpes = row.spes;
        cfg.affinity = row.aff;
        core::SpeSpeConfig sc;
        sc.numSpes = row.spes;
        sc.elemBytes = 4096;
        sc.bytesPerStream = b.bytesPerSpe;
        points.push_back({cfg, b.repeat, [sc](cell::CellSystem &sys) {
            return core::runSpeSpe(sys, sc);
        }});
    }
    const auto dists = core::runBatch(points, b.par);
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto &d = dists[i];
        table.addRow({rows[i].name, std::to_string(rows[i].spes),
                      stats::Table::num(d.mean()),
                      stats::Table::num(d.min()),
                      stats::Table::num(d.max())});
    }
    b.emit(table);
    b.printf("reference: chip-local pair peak %.1f GB/s per couple; "
             "a cross-chip couple is capped by the IOIF at ~7 GB/s "
             "per direction\n", b.cfg.pairPeakGBps());
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(abl_dualchip, "Abl. E",
                           "cross-chip SPE placement on a dual-Cell "
                           "blade",
                           run)
