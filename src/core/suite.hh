/**
 * @file
 * Campaign driver: run a manifest of experiments as one suite.
 *
 * A suite is the paper's actual unit of work — every figure is
 * kernels x configs x placement-randomized repetitions — and
 * `cellbw suite` runs one end to end:
 *
 *  - The manifest selects experiments: the built-in `ci` (every
 *    registered experiment, default flags) or a file of
 *    `<experiment> [flags...]` lines (# comments).  Suite-level
 *    forwarded flags (--quick, --runs, machine knobs, ...) append to
 *    every line.
 *
 *  - All selected experiments share ONE WorkerPool (--jobs workers).
 *    Each experiment's coordinator thread feeds its seed-sweep runs
 *    into the pool as its points come up, so the pool batches across
 *    experiments instead of serializing 18 private pools at process
 *    boundaries.
 *
 *  - Results are content-addressed through core::ResultCache: a hit
 *    skips simulation and replays the stored report bytes into the
 *    output directory bit-identically; a miss runs and populates.  A
 *    warm rerun of an unchanged suite therefore does no simulation at
 *    all and produces an identical output tree.
 *
 * Each experiment writes `<out>/<name>.json`, byte-identical to what
 * `cellbw run <name> --json` writes for the same flags (the report
 * does not name the suite, so the cache can replay it to `run`,
 * `serve` and `validate` alike), and the suite writes a deterministic
 * `<out>/suite.json` index that names it — no timestamps or hit/miss
 * flags, so output trees from cold and warm runs diff clean.
 */

#ifndef CELLBW_CORE_SUITE_HH
#define CELLBW_CORE_SUITE_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cellbw::core
{

struct SuiteSpec
{
    /** Built-in manifest name (`ci`) or a manifest file path. */
    std::string manifest = "ci";

    /** Report output directory; created if needed. */
    std::string outDir = "cellbw-suite-out";

    /** Result-cache root. */
    std::string cacheDir = ".cellbw-cache";

    /** false disables lookup AND population (--no-cache). */
    bool useCache = true;

    /** When non-zero, LRU-prune the cache to this many bytes after the
     *  suite finishes (--cache-max-bytes). */
    std::uint64_t cacheMaxBytes = 0;

    /** Shared pool width; 0 = one per hardware thread. */
    unsigned jobs = 0;

    /** Flags appended to every experiment's command line. */
    std::vector<std::string> forward;

    /** Suppress per-experiment progress lines (summary only). */
    bool terse = false;
};

struct SuiteOutcome
{
    unsigned selected = 0;
    unsigned cacheHits = 0;
    unsigned ran = 0;
    unsigned failures = 0;

    bool ok() const { return failures == 0; }
};

/**
 * Run the suite.  Progress goes to stdout, errors to stderr.
 * @return the process exit code (0 iff every experiment succeeded and
 * the manifest resolved).
 */
int runSuite(const SuiteSpec &spec, SuiteOutcome *outcome = nullptr);

} // namespace cellbw::core

#endif // CELLBW_CORE_SUITE_HH
