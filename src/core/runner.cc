#include "core/runner.hh"

#include <algorithm>
#include <condition_variable>
#include <exception>
#include <mutex>
#include <optional>
#include <vector>

#include "core/worker_pool.hh"
#include "util/options.hh"

namespace cellbw::core
{

void
RepeatSpec::registerOptions(util::Options &opts, unsigned defaultWarmup)
{
    opts.addUint("runs", 10,
                 "placement-randomized repetitions per point");
    opts.addUint("seed", 42, "base placement seed");
    opts.addUint("warmup", defaultWarmup,
                 "discarded leading repetitions per point (recorded "
                 "runs start at seed + warmup)");
}

bool
RepeatSpec::fromOptions(const util::Options &opts, std::string &err)
{
    if (opts.getUint("runs") == 0) {
        err = "--runs must be at least 1 (0 runs would produce an "
              "empty distribution and NaN summaries)";
        return false;
    }
    runs = static_cast<unsigned>(opts.getUint("runs"));
    seed = opts.getUint("seed");
    warmup = static_cast<unsigned>(opts.getUint("warmup"));
    return true;
}

void
parallelFor(std::size_t n, const ParallelSpec &par,
            const std::function<void(std::size_t)> &fn)
{
    WorkerPool *pool = par.pool;
    std::optional<WorkerPool> scoped;
    const std::size_t width =
        std::min<std::size_t>(WorkerPool::width(par.jobs), n);
    if (!pool && width > 1)
        pool = &scoped.emplace(static_cast<unsigned>(width));

    std::mutex m;
    std::condition_variable cv;
    std::size_t submitted = 0, done = 0, errIndex = n;
    std::exception_ptr firstError;
    auto fail = [&](std::size_t i, std::exception_ptr err) {
        if (i < errIndex) {
            errIndex = i;
            firstError = err;
        }
    };
    auto runTask = [&](std::size_t i) {
        std::exception_ptr err;
        try {
            fn(i);
        } catch (...) {
            err = std::current_exception();
        }
        std::lock_guard<std::mutex> lock(m);
        if (err)
            fail(i, err);
        ++done;
        cv.notify_one();
    };

    // A submit() refused mid-batch (the pool is shutting down) still
    // waits out the tasks already accepted: they reference this frame.
    try {
        for (; submitted < n; ++submitted) {
            if (pool)
                pool->submit([&runTask, i = submitted] { runTask(i); });
            else
                runTask(submitted);
        }
    } catch (...) {
        std::lock_guard<std::mutex> lock(m);
        fail(submitted, std::current_exception());
    }
    std::unique_lock<std::mutex> lock(m);
    cv.wait(lock, [&] { return done == submitted; });
    if (firstError)
        std::rethrow_exception(firstError);
}

namespace
{

double
runOne(const cell::CellConfig &cfg, const RepeatSpec &spec,
       std::uint64_t seed, const ExperimentBody &body)
{
    cell::CellSystem sys(cfg, seed);
    double sample = body(sys);
    if (spec.metrics)
        sys.snapshotMetrics(*spec.metrics);
    return sample;
}

} // namespace

stats::Distribution
repeatRuns(const cell::CellConfig &cfg, const RepeatSpec &requested,
           const ExperimentBody &body, const ParallelSpec &par)
{
    // Warmup runs execute serially up front and are discarded (no
    // sample, no metrics); the recorded sweep then starts at
    // seed + warmup, so the recorded samples are exactly those of a
    // warmup-free sweep based at that seed.
    RepeatSpec spec = requested;
    if (spec.warmup > 0) {
        RepeatSpec discard = spec;
        discard.metrics = nullptr;
        for (unsigned w = 0; w < spec.warmup; ++w)
            runOne(cfg, discard, spec.seed + w, body);
        spec.seed += spec.warmup;
        spec.warmup = 0;
    }

    // Each run fills its own slot; merging in seed order keeps the
    // Distribution bit-identical to a serial sweep.
    std::vector<double> samples(spec.runs, 0.0);
    parallelFor(spec.runs, par, [&](std::size_t r) {
        samples[r] = runOne(cfg, spec, spec.seed + r, body);
    });
    stats::Distribution dist;
    for (double s : samples)
        dist.add(s);
    return dist;
}

} // namespace cellbw::core
