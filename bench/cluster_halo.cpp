/**
 * @file
 * Cluster halo exchange: the paper's cross-chip warning at N chips.
 *
 * A QCD-style stencil decomposes a lattice ring over 1..8 Cell chips
 * (chips pair up on blades; blades join by inter-blade links).  Each
 * rank GETs halos from its ring neighbours while its interior update
 * sweep runs underneath.  Two axes matter:
 *
 *  - placement: locality pins each rank to its slab's home chip, so
 *    only the halos cross the 7 GB/s links; round-robin scatters ranks
 *    chip-blind, pushing whole interior streams through the links.
 *  - surface-to-volume: a fatter halo (32 KiB vs 4 KiB per neighbour
 *    on a 256 KiB slab) raises the fraction of traffic that must
 *    cross, squeezing both policies toward the link ceiling.
 *
 * Rows report the per-link peak ("link GB/s(max)"), which `cellbw
 * validate` holds below the analytic IOIF per-direction ceiling.
 *
 * All 16 points' placement sweeps run as one batch on every worker of
 * the run's pool (--jobs): every run of every point is submitted at
 * once and writes its own slot, and the rows are folded afterwards in
 * point and seed order, so the report is byte-identical for any --jobs.
 * An 8-chip system backs its main memory lazily and holds about 3-4 MB
 * of host memory.
 */

#include <algorithm>
#include <vector>

#include "bench_common.hh"
#include "core/halo.hh"
#include "stats/distribution.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    b.requireDefaultSpes();
    b.header("Cluster A", "halo-exchange stencil over 1-8 chips");

    struct HaloPoint
    {
        const char *label;
        std::uint32_t bytes;
    };
    const unsigned chipCounts[] = {1, 2, 4, 8};
    const core::HaloPlacement policies[] = {
        core::HaloPlacement::Locality, core::HaloPlacement::RoundRobin};
    const HaloPoint halos[] = {{"4KiB", 4 * util::KiB},
                               {"32KiB", 32 * util::KiB}};

    struct Point
    {
        const char *label;
        cell::CellConfig cfg;
        core::HaloConfig hc;
    };
    std::vector<Point> points;
    for (unsigned chips : chipCounts) {
        for (auto policy : policies) {
            for (const auto &hp : halos) {
                Point p{hp.label, b.cfg, {}};
                p.cfg.numChips = chips;
                p.cfg.numSpes = 8 * chips;
                p.cfg.affinity = cell::AffinityPolicy::Linear;
                p.hc.haloBytes = hp.bytes;
                p.hc.bytesPerSpe = b.bytesPerSpe;
                p.hc.placement = policy;
                points.push_back(p);
            }
        }
    }

    // Run i of a point uses seed + i and the first `warmup` runs are
    // discarded: runBatch()'s seed and warmup semantics.  It is not
    // used here because the per-run link counters feed the "link
    // GB/s(max)" column, which its Distributions cannot carry.
    struct Sample
    {
        double gbps = 0.0;
        double haloGbps = 0.0;
        double linkMax = 0.0;
    };
    const unsigned perPoint = b.repeat.warmup + b.repeat.runs;
    std::vector<Sample> samples(points.size() * perPoint);
    // Largest systems first (points ascend in chip count): the 8-chip
    // runs start on fresh heaps, which lowers the peak RSS, and the
    // cheap 1-chip runs fill the tail.
    core::parallelFor(samples.size(), b.par, [&](std::size_t j) {
        const std::size_t k = samples.size() - 1 - j;
        const Point &p = points[k / perPoint];
        const unsigned i = static_cast<unsigned>(k % perPoint);
        cell::CellSystem sys(p.cfg, b.repeat.seed + i);
        auto res = core::runClusterHalo(sys, p.hc);
        if (i < b.repeat.warmup)
            return;
        Sample &s = samples[k];
        s.gbps = res.gbps;
        s.haloGbps = res.haloGbps;
        auto &links = sys.memory().links();
        for (unsigned l = 0; l < links.numLinks(); ++l) {
            for (auto dir : {mem::IoLink::Dir::Outbound,
                             mem::IoLink::Dir::Inbound}) {
                double gbps = res.seconds > 0.0
                                  ? links.link(l).bytesSent(dir) /
                                        res.seconds / 1e9
                                  : 0.0;
                s.linkMax = std::max(s.linkMax, gbps);
            }
        }
        if (b.repeat.metrics)
            sys.snapshotMetrics(*b.repeat.metrics);
    });

    stats::Table table({"chips", "placement", "halo", "GB/s(mean)",
                        "halo GB/s", "link GB/s(max)"});
    for (std::size_t pi = 0; pi < points.size(); ++pi) {
        stats::Distribution d, dHalo;
        double linkMax = 0.0;
        for (unsigned i = b.repeat.warmup; i < perPoint; ++i) {
            const Sample &s = samples[pi * perPoint + i];
            d.add(s.gbps);
            dHalo.add(s.haloGbps);
            linkMax = std::max(linkMax, s.linkMax);
        }
        const Point &p = points[pi];
        table.addRow({std::to_string(p.cfg.numChips),
                      core::toString(p.hc.placement), p.label,
                      stats::Table::num(d.mean()),
                      stats::Table::num(dHalo.mean()),
                      stats::Table::num(linkMax)});
    }
    b.emit(table, "halo");
    b.printf("reference: IOIF %.1f GB/s per direction; locality "
             "placement keeps everything but the halos off the "
             "links\n", b.cfg.memory.ioLink.bytesPerTick *
                            b.cfg.clock.cpuHz / 1e9);
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(cluster_halo, "Cluster A",
                           "halo-exchange stencil over an N-chip "
                           "cluster",
                           run)
