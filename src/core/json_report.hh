/**
 * @file
 * Machine-readable bench reports (the --json flag).
 *
 * Every bench that opts in emits one JSON document per invocation with
 * a stable shape, so downstream tooling (plot scripts, CI validators,
 * regression trackers) can consume any bench uniformly:
 *
 * @code
 *   {
 *     "schema": "cellbw-bench-v3",
 *     "schema_version": 3,
 *     "bench": "fig08_spe_mem",
 *     "experiment": "fig08_spe_mem",
 *     "figure": "Fig. 8",
 *     "description": "SPE<->memory DMA bandwidth",
 *     "backend": "sim",                       // "sim" or "native"
 *     "reproducible": true,                   // false: measured, gate
 *                                             // with tolerances
 *     "suite": "...",                         // only when a library
 *                                             // caller sets one
 *     "cache": { "salt": "...", "key": "..." },  // only when computed
 *     "config": { "cpu-ghz": 2.1, "spes": 8, ... },
 *     "points": [ { "table": "results", "spes": 1, "GB/s": 9.8 }, ... ],
 *     "metrics": { "eib0.ring0.grants": 1234, ... }
 *   }
 * @endcode
 *
 * v3 (this version) adds `backend`/`reproducible` to the envelope and,
 * on measured backends, per-point statistics columns — native tables
 * carry median/p95/stddev/CV per point, flattened into `points` like
 * any other columns.
 *
 * `config` carries every registered command-line option with its final
 * (post-parse) value, typed: uints/doubles/bytes as numbers, bools as
 * booleans, strings as strings.  Result-neutral options (--json, --csv,
 * --jobs; see util::Options::setResultNeutral) are omitted since v2 so
 * the document depends only on what shaped the results — that is what
 * makes a cached report replayable bit-identically from any output
 * path.  `points` flattens each emitted result table row into one
 * object keyed by column header; cells that parse fully as numbers
 * become JSON numbers.  `metrics` is the accumulated
 * stats::MetricsRegistry snapshot across all runs of all points.
 *
 * `cellbw compare` accepts this document and both predecessors — v1
 * (no schema_version/experiment/suite/cache, config unfiltered) and v2
 * (no backend/reproducible) — so committed baselines keep working.
 */

#ifndef CELLBW_CORE_JSON_REPORT_HH
#define CELLBW_CORE_JSON_REPORT_HH

#include <string>
#include <vector>

#include "stats/metrics.hh"
#include "stats/table.hh"
#include "util/options.hh"

namespace cellbw::core
{

class JsonReport
{
  public:
    /** The `schema` string this writer emits. */
    static constexpr const char *kSchema = "cellbw-bench-v3";
    /** The numeric `schema_version`. */
    static constexpr int kSchemaVersion = 3;

    /** Identify the producing bench (shown in the document header). */
    void setBench(std::string bench, std::string figure,
                  std::string description);

    /** Registered experiment name; defaults to the bench name. */
    void setExperiment(std::string experiment);

    /** Suite id to stamp into the document (none by default). */
    void setSuite(std::string suite);

    /**
     * The executing backend and whether its results are bit-
     * reproducible (sim: yes; native: no — gate with tolerances).
     * Defaults to "sim"/true so bare reports stay valid v3.
     */
    void setBackend(std::string backend, bool reproducible);

    /** Result-cache identity (invalidation salt + content key). */
    void setCacheInfo(std::string salt, std::string key);

    /** Capture the final config: every option with its parsed value. */
    void setConfig(const util::Options &opts);

    /**
     * Append @p table's rows to `points`, each tagged with
     * @p tableName (benches emitting several tables stay
     * distinguishable downstream).
     */
    void addTable(const std::string &tableName, const stats::Table &table);

    /** The registry the seed sweep accumulates into. */
    stats::MetricsRegistry &metrics() { return metrics_; }
    const stats::MetricsRegistry &metrics() const { return metrics_; }

    /** Render the complete document. */
    std::string render() const;

  private:
    struct Point
    {
        std::string table;
        std::vector<std::string> headers;
        std::vector<std::string> cells;
    };

    std::string bench_;
    std::string experiment_;
    std::string figure_;
    std::string description_;
    std::string suite_;
    std::string backend_ = "sim";
    bool reproducible_ = true;
    std::string cacheSalt_;
    std::string cacheKey_;
    std::vector<util::Options::OptionInfo> config_;
    std::vector<Point> points_;
    stats::MetricsRegistry metrics_;
};

} // namespace cellbw::core

#endif // CELLBW_CORE_JSON_REPORT_HH
