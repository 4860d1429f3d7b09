/**
 * @file
 * Repeated-run harness.
 *
 * "Since we expect physical resource layout to be a critical factor,
 * but the current API does not allow the programmer to control such
 * layout, we run all our experiments 10 times to test different logical
 * to physical SPE mappings" — the paper, Section 3.  repeatRuns() does
 * exactly that: N fresh systems, N placement seeds, one Distribution.
 *
 * The runs are completely independent — each owns a private
 * CellSystem (event queue, RNG, memory model) — and so are the points
 * of a sweep.  An experiment therefore lists its points and hands them
 * to runBatch(), which fans every point's runs out as ONE
 * parallelFor(): on the caller's shared pool when ParallelSpec::pool
 * is set, otherwise on one scoped to the call.  No worker waits for
 * the slowest seed of a point before starting the next point.
 * Samples are folded per point in seed order regardless of which
 * worker finished first, so every Distribution is bit-identical to a
 * serial sweep: --jobs only changes wall-clock time, never results.
 * repeatRuns() is the one-point batch.
 */

#ifndef CELLBW_CORE_RUNNER_HH
#define CELLBW_CORE_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "cell/cell_system.hh"
#include "stats/distribution.hh"

namespace cellbw::util
{
class Options;
} // namespace cellbw::util

namespace cellbw::stats
{
class MetricsRegistry;
} // namespace cellbw::stats

namespace cellbw::core
{

struct RepeatSpec
{
    /** Placement-randomized repetitions (the paper uses 10). */
    unsigned runs = 10;

    /** Base seed; run i uses seed + i. */
    std::uint64_t seed = 42;

    /**
     * Discarded leading repetitions.  The warmup runs execute at seeds
     * [seed, seed + warmup) and their samples (and metrics) are thrown
     * away; the recorded runs then start at seed + warmup.  That gives
     * warmup a deterministic identity — (seed=s, warmup=w) records
     * exactly the samples of (seed=s+w, warmup=0) — which is why the
     * sim default stays 0: existing reports remain byte-identical.  On
     * the native backend warmup is what pulls buffers through the host
     * cache hierarchy before the first timed pass.
     */
    unsigned warmup = 0;

    /**
     * When set, every recorded run's CellSystem::snapshotMetrics()
     * accumulates into this registry after its body returns.  The
     * registry's counters are atomic and accumulation is commutative,
     * so the totals are identical for any --jobs value.
     */
    stats::MetricsRegistry *metrics = nullptr;

    /**
     * Register the repeat options (--runs/--seed/--warmup) on @p opts.
     * Every experiment used to copy-paste this block; the spec owns it
     * now.  @p defaultWarmup lets native contexts default to a warmed
     * first measurement while sim stays at 0.
     */
    static void registerOptions(util::Options &opts,
                                unsigned defaultWarmup = 0);

    /**
     * Populate from parsed options.  @return false (with @p err set)
     * when the values are invalid (--runs 0).
     */
    bool fromOptions(const util::Options &opts, std::string &err);
};

class WorkerPool;

/** How to spread the repeated runs across host threads. */
struct ParallelSpec
{
    /**
     * Worker threads for the batch; 0 means
     * std::thread::hardware_concurrency().  With no @ref pool,
     * parallelFor() starts a pool of min(jobs, tasks) workers for the
     * call, or runs inline with no threads when that is 1.  Ignored
     * when @ref pool is set.
     */
    unsigned jobs = 0;

    /**
     * When set, runs are submitted to this pool instead of one scoped
     * to the call — `cellbw run` submits each experiment's batch
     * here, and `cellbw suite` every experiment's, so seed sweeps
     * reuse warm workers and batch ACROSS experiments.  The caller
     * blocks until its own runs complete; results stay bit-identical
     * (the fold is in seed order either way).
     */
    WorkerPool *pool = nullptr;

    static ParallelSpec serial() { return ParallelSpec{1}; }
};

/**
 * Run @p fn(0), ..., @p fn(n - 1), each exactly once, as described by
 * @p par: on its pool, else on a pool of min(width(jobs), n) workers
 * scoped to the call, else (width 1) inline on the calling thread.
 * Returns once every call has finished.  If any call throws, the error
 * of the lowest failing index is rethrown after all of them are done,
 * so the outcome does not depend on the width either.  Calls may run
 * concurrently: each must write only its own slot of shared output.
 */
void parallelFor(std::size_t n, const ParallelSpec &par,
                 const std::function<void(std::size_t)> &fn);

using ExperimentBody = std::function<double(cell::CellSystem &)>;

/** One point of an experiment: its machine, its runs and its body. */
struct BatchPoint
{
    cell::CellConfig cfg;
    RepeatSpec spec;
    ExperimentBody body;
};

/**
 * Run every point's warmup and recorded runs as one parallelFor() and
 * fold each point's samples into its Distribution, in point order.
 * Run i of a point gets a fresh CellSystem at spec.seed + i; the first
 * spec.warmup runs are discarded (no sample, no metrics), the rest
 * snapshot their metrics into spec.metrics when it is set.  Samples
 * fold in seed order, so the result is bit-identical for any width.
 * Bodies may run concurrently and must not mutate shared state.
 */
std::vector<stats::Distribution>
runBatch(const std::vector<BatchPoint> &points, const ParallelSpec &par);

/**
 * Run @p body once per placement seed on a freshly constructed system
 * and collect the per-run GB/s samples: runBatch() of one point.
 */
stats::Distribution repeatRuns(const cell::CellConfig &cfg,
                               const RepeatSpec &spec,
                               const ExperimentBody &body,
                               const ParallelSpec &par = {});

} // namespace cellbw::core

#endif // CELLBW_CORE_RUNNER_HH
