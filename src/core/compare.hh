/**
 * @file
 * Report comparison: the regression gate behind `cellbw compare`.
 *
 * Diffs a candidate `cellbw-bench-v1`/`v2` report against a baseline,
 * point by point: points are grouped by table, matched by row index,
 * string cells must match exactly (they identify the point: op, elem,
 * topology), numeric cells must agree within a relative tolerance.  A
 * missing table, a missing row, or a missing column is a regression,
 * as is any out-of-tolerance value.  Metrics can be gated too
 * (opt-in, with their own tolerance); histogram metrics are compared
 * field by field and bucket by bucket.
 *
 * Tolerances are percentages relative to the baseline value:
 * candidate c passes against baseline b iff
 * |c - b| <= tol/100 * |b| (+epsilon), so `--tol 5` accepts a 5% move
 * in either direction.  Per-column overrides ("GB/s(mean)=10") take
 * precedence over the global tolerance.
 *
 * The exit contract makes committed BENCH_*.json files an enforced
 * baseline: compareReportTexts() returns every divergence as text and CI
 * exits nonzero when any exists.
 */

#ifndef CELLBW_CORE_COMPARE_HH
#define CELLBW_CORE_COMPARE_HH

#include <map>
#include <string>
#include <vector>

namespace cellbw::core
{

struct ComparePolicy
{
    /** Accepted relative divergence, in percent of the baseline. */
    double tolPct = 0.0;

    /** Per-column overrides of tolPct, keyed by point column name. */
    std::map<std::string, double> columnTolPct;

    /** Also gate the `metrics` section. */
    bool includeMetrics = false;

    /** Tolerance for metrics (they are exact counters by default). */
    double metricsTolPct = 0.0;
};

struct CompareResult
{
    /** Human-readable divergences; empty means the gate passes. */
    std::vector<std::string> regressions;

    unsigned pointsCompared = 0;
    unsigned valuesCompared = 0;
    unsigned metricsCompared = 0;

    bool ok() const { return regressions.empty(); }
};

/**
 * Compare parsed report texts.  @return false only when a document is
 * malformed (message in @p err); tolerance failures are reported via
 * @p out.regressions with the gate still "successfully evaluated".
 */
bool compareReportTexts(const std::string &candidateText,
                        const std::string &baselineText,
                        const ComparePolicy &policy, CompareResult &out,
                        std::string &err);

/** compareReportTexts() over files. */
bool compareReportFiles(const std::string &candidatePath,
                        const std::string &baselinePath,
                        const ComparePolicy &policy, CompareResult &out,
                        std::string &err);

/**
 * Parse a "name=pct,name=pct" per-column tolerance spec (the --tols
 * flag).  @return false on a malformed entry.
 */
bool parseColumnTols(const std::string &spec,
                     std::map<std::string, double> &out,
                     std::string &err);

} // namespace cellbw::core

#endif // CELLBW_CORE_COMPARE_HH
