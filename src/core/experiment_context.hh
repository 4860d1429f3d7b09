/**
 * @file
 * Per-invocation lifecycle of one experiment.
 *
 * ExperimentContext owns what every bench used to copy-paste as
 * `bench::BenchSetup`: the option set (machine knobs + --runs/--seed/
 * --jobs/--csv/--json/--quick/--bytes-per-spe), parse-time validation,
 * the figure header, table/CSV emission, and the closing --json report.
 * The registry (core::ExperimentRegistry) constructs one context per
 * run, parses the command line into it, and hands it to the registered
 * experiment body — `cellbw run`, `cellbw suite` and `cellbw serve`
 * share this exact path, which is what keeps their reports
 * byte-identical.
 *
 * On top of that lifecycle the context knows about suites and
 * the result cache: it computes the canonical cache key of its parsed
 * configuration, stamps suite/cache/backend metadata into the report,
 * can run quietly (suite mode: JSON only, no stdout), and stores its
 * finished report into an attached core::ResultCache (sim backend
 * only — native measurements are never cached).
 */

#ifndef CELLBW_CORE_EXPERIMENT_CONTEXT_HH
#define CELLBW_CORE_EXPERIMENT_CONTEXT_HH

#include <cstdarg>
#include <initializer_list>
#include <string>
#include <vector>

#include "cell/config.hh"
#include "core/backend.hh"
#include "core/json_report.hh"
#include "core/runner.hh"
#include "stats/table.hh"
#include "util/options.hh"

namespace cellbw::core
{

class ResultCache;

class ExperimentContext
{
  public:
    util::Options opts;
    cell::CellConfig cfg;
    RepeatSpec repeat;
    ParallelSpec par;
    std::uint64_t bytesPerSpe = 0;
    bool csv = false;

    /**
     * The backend the experiment was registered for.  Fixed at
     * construction; --backend is accepted (it is part of the canonical
     * config) but parse() rejects a value that contradicts the
     * registration.  Native contexts default --warmup to 1 and never
     * store results into the cache.
     */
    Backend backend = Backend::Sim;

    /** --json target path; empty when no JSON report was requested. */
    std::string jsonPath;
    JsonReport json;

    ExperimentContext(std::string prog, std::string description,
                      Backend backend = Backend::Sim);

    /**
     * Parse argv and validate (--runs 0 and inconsistent machine
     * configs are rejected here, with a message on stderr).
     * @return false when the program should exit (help/error).
     */
    bool parse(int argc, const char *const *argv);

    /**
     * Fail unless --spes allows @p n SPEs.  A body calls this before
     * its header with the fewest SPEs any of its points needs, so an
     * experiment with no point left prints nothing.
     * @throws sim::FatalError naming @p n.
     */
    void requireSpes(unsigned n) const;

    /**
     * Fail unless --spes is left at its default: for an experiment
     * that sets every point's SPE count itself and so cannot honour it.
     * A body calls this before its header.
     * @throws sim::FatalError naming --spes.
     */
    void requireDefaultSpes() const;

    /** The SPE counts of @p counts that --spes allows, in order;
     *  requireSpes() of the smallest when none is left. */
    std::vector<unsigned>
    speCounts(std::initializer_list<unsigned> counts) const;

    /** Print the figure banner and stamp the report header. */
    void header(const char *figure, const char *what);

    /** Print @p table (and CSV if requested); add its rows as points. */
    void emit(const stats::Table &table,
              const std::string &name = "results");

    /** @name Body output (charts, reference lines).
     * Routed through the context so suite mode can silence it; bytes
     * are identical to direct printf when not quiet. */
    /** @{ */
    void print(const std::string &s);
    void printf(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));
    /** @} */

    /**
     * Write the --json report, if one was requested, and store it into
     * the attached cache, if any.  Call once, after the last emit().
     * @return the process exit code (0, or 1 when the report could not
     *         be written).
     */
    int finish();

    /** @name Suite/cache wiring (driver-side; bodies never call these). */
    /** @{ */
    /** Suppress all stdout; the JSON report is the only output. */
    void setQuiet(bool quiet) { quiet_ = quiet; }
    bool quiet() const { return quiet_; }

    /** Tag the report as one experiment of suite @p suiteId. */
    void setSuite(const std::string &suiteId);

    /** finish() will store the rendered report under cacheKey(). */
    void attachCache(ResultCache *cache) { cache_ = cache; }

    /** Canonical key material of the parsed config (post-parse). */
    const std::string &cacheMaterial() const { return cacheMaterial_; }

    /** Content hash of cacheMaterial() (post-parse). */
    const std::string &cacheKey() const { return cacheKey_; }
    /** @} */

  private:
    bool quiet_ = false;
    ResultCache *cache_ = nullptr;
    std::string cacheMaterial_;
    std::string cacheKey_;
};

} // namespace cellbw::core

#endif // CELLBW_CORE_EXPERIMENT_CONTEXT_HH
