/**
 * @file
 * Ablation C: what the affinity API the paper asks for would buy.
 *
 * "The physical layout of the SPEs has a critical impact on
 * performance.  However the current API does not allow the programmer
 * to select such layout ... This should be improved in the libspe
 * library."  The simulator implements that improvement: we compare the
 * default random placement against a linear one and against pairing
 * logical neighbors on physically adjacent ramps.
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
    b.header("Ablation C", "couples & cycle under placement policies");

    const cell::AffinityPolicy policies[] = {
        cell::AffinityPolicy::Random, cell::AffinityPolicy::Linear,
        cell::AffinityPolicy::Paired};
    const core::SpeSpeMode modes[] = {core::SpeSpeMode::Couples,
                                      core::SpeSpeMode::Cycle};
    std::vector<core::BatchPoint> points;
    for (auto aff : policies) {
        auto cfg = b.cfg;
        cfg.affinity = aff;
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

    stats::Table table({"affinity", "topology", "GB/s(mean)",
                        "GB/s(min)", "GB/s(max)", "of peak"});
    auto d = dists.begin();
    for (auto aff : policies) {
        for (auto mode : modes) {
            double peak = 8 * b.cfg.rampPeakGBps();
            table.addRow({cell::toString(aff),
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
    b.printf("note: deterministic policies have zero min-max spread "
             "— the whole Figure 13/16 variance is placement.\n");
    return b.finish();
}

} // namespace

CELLBW_REGISTER_EXPERIMENT(abl_affinity, "Abl. C",
                           "SPE placement-policy ablation (the paper's "
                           "proposed libspe affinity)",
                           run)
