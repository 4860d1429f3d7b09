/**
 * @file
 * The paper's stated future work, executed: "evaluate small kernels
 * (scalar product, matrix by vector, matrix product, streaming
 * benchmarks...)".
 *
 * Each kernel runs on the simulated SPEs with the paper's rules
 * (16 KiB chunks, double buffering, delayed sync) and is verified
 * against a host reference.  Sorted by arithmetic intensity they trace
 * the machine's roofline: below ~0.5 flops/byte the sustained memory
 * bandwidth of Figure 8 — not the 134 GFLOPS headline — decides the
 * outcome, exactly the Williams et al. argument the paper cites.
 */

#include "bench_common.hh"
#include "core/kernels.hh"

using namespace cellbw;

namespace
{

int
run(core::ExperimentContext &b)
{
    const auto speCounts = b.speCounts({1, 4, 8});
    b.header("Future work", "STREAM kernels, dot, matvec, matmul on "
                            "1-8 SPEs");

    struct Row
    {
        core::KernelKind kind;
        std::uint64_t n;
    } kernels[] = {
        {core::KernelKind::Copy, 1 << 20},
        {core::KernelKind::Scale, 1 << 20},
        {core::KernelKind::Add, 1 << 20},
        {core::KernelKind::Triad, 1 << 20},
        {core::KernelKind::Dot, 1 << 20},
        {core::KernelKind::MatVec, 2048},
        {core::KernelKind::MatMul, 256},
    };

    const core::Precision precisions[] = {core::Precision::Single,
                                          core::Precision::Double};
    // The precision table runs on 4 SPEs.
    const bool precisionTable = b.cfg.numSpes >= 4;
    const core::KernelKind streaming[] = {core::KernelKind::Triad,
                                          core::KernelKind::Dot};

    // Every kernel of both tables, in row order, runs as one batch:
    // each on its own system, into its own slot.
    std::vector<core::KernelSpec> specs;
    for (unsigned spes : speCounts) {
        for (const auto &k : kernels) {
            core::KernelSpec spec;
            spec.kind = k.kind;
            spec.n = k.n;
            spec.spes = spes;
            specs.push_back(spec);
        }
    }
    for (auto prec : precisions) {
        for (auto kind : streaming) {
            core::KernelSpec spec;
            spec.kind = kind;
            spec.n = 1 << 19;
            spec.spes = 4;
            spec.precision = prec;
            if (precisionTable)
                specs.push_back(spec);
        }
    }
    struct Slot
    {
        core::KernelResult r;
        double computeRoof = 0.0;
    };
    std::vector<Slot> slots(specs.size());
    core::parallelFor(specs.size(), b.par, [&](std::size_t i) {
        cell::CellSystem sys(b.cfg, b.repeat.seed);
        slots[i].r = core::runKernel(sys, specs[i]);
        slots[i].computeRoof = core::computePeakGflops(sys, specs[i]);
    });

    auto slot = slots.begin();
    for (unsigned spes : speCounts) {
        stats::Table table({"kernel", "n", "AI(fl/B)", "GB/s", "GFLOPS",
                            "%mem-roof", "%compute-roof", "ok"});
        for (const auto &k : kernels) {
            const auto &r = slot->r;
            double mem_roof = 21.0;     // measured aggregate (Fig. 8)
            table.addRow({
                core::toString(k.kind), std::to_string(k.n),
                stats::Table::num(r.intensity, 2),
                stats::Table::num(r.gbps),
                stats::Table::num(r.gflops),
                util::format("%.0f%%", 100.0 * r.gbps / mem_roof),
                util::format("%.0f%%",
                             100.0 * r.gflops / slot->computeRoof),
                r.verified ? "yes" : "NO",
            });
            ++slot;
        }
        b.printf("-- %u SPE%s (compute roof %.1f GFLOPS) --\n", spes,
                 spes > 1 ? "s" : "",
                 spes * 8.0 * b.cfg.clock.cpuHz / 1e9);
        b.emit(table);
    }
    // Single vs double precision on the streaming kernels: the
    // paper's DP discussion (one 2-way DP FMA every 7 cycles) plus
    // twice the bytes per element.
    if (precisionTable) {
        stats::Table table({"kernel", "precision", "GB/s", "GFLOPS",
                            "ok"});
        for (auto prec : precisions) {
            for (auto kind : streaming) {
                const auto &r = slot->r;
                table.addRow({core::toString(kind),
                              prec == core::Precision::Double ? "double"
                                                              : "single",
                              stats::Table::num(r.gbps),
                              stats::Table::num(r.gflops),
                              r.verified ? "yes" : "NO"});
                ++slot;
            }
        }
        b.printf("-- precision (4 SPEs): same GB/s, half the "
                 "GFLOPS in DP -- Dongarra's single-precision "
                 "argument --\n");
        b.emit(table);
    }

    b.printf("low-intensity kernels pin the memory roof; the blocked "
             "matmul escapes it and approaches the compute roof.\n");
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(kernels_roofline, "Roofline",
                           "small-kernel roofline (the paper's future "
                           "work)",
                           run)
