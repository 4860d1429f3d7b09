#include "core/runner.hh"

#include <algorithm>
#include <atomic>
#include <climits>
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
                 "placement-randomized repetitions per point", UINT_MAX);
    opts.addUint("seed", 42, "base placement seed");
    opts.addUint("warmup", defaultWarmup,
                 "discarded leading repetitions per point (recorded "
                 "runs start at seed + warmup)",
                 UINT_MAX);
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
    // Each lane runs the next unclaimed index until none is left.
    WorkerPool *pool = par.pool;
    std::optional<WorkerPool> scoped;
    const std::size_t width =
        std::min<std::size_t>(WorkerPool::width(par.jobs), n);
    if (!pool && width > 1)
        pool = &scoped.emplace(static_cast<unsigned>(width));

    std::mutex m;
    std::condition_variable cv;
    std::atomic<std::size_t> next{0};
    std::size_t submitted = 0, finished = 0, errIndex = n;
    std::exception_ptr firstError;
    auto lane = [&] {
        for (std::size_t i; (i = next.fetch_add(1)) < n;) {
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(m);
                if (i < errIndex) {
                    errIndex = i;
                    firstError = std::current_exception();
                }
            }
        }
        std::lock_guard<std::mutex> lock(m);
        ++finished;
        cv.notify_one();
    };

    if (!pool) {
        lane();
    } else {
        for (; submitted < n; ++submitted) {
            try {
                pool->submit([&lane] { lane(); });
            } catch (...) {
                // The pool is shutting down.  The lanes it accepted
                // still run every index; with none accepted, none ran.
                if (submitted == 0)
                    throw;
                break;
            }
        }
        std::unique_lock<std::mutex> lock(m);
        cv.wait(lock, [&] { return finished == submitted; });
    }
    if (firstError)
        std::rethrow_exception(firstError);
}

std::vector<stats::Distribution>
runBatch(const std::vector<BatchPoint> &points, const ParallelSpec &par)
{
    // Point p owns tasks [first[p], first[p + 1]): its warmup runs,
    // then its recorded runs.  Task i of a point runs at seed + i, and
    // each task fills its own slot, so the fold below sees the same
    // samples in the same order for any width.
    std::vector<std::size_t> first{0};
    for (const BatchPoint &p : points) {
        first.push_back(first.back() + std::size_t{p.spec.warmup} +
                        p.spec.runs);
    }
    std::vector<double> samples(first.back(), 0.0);
    parallelFor(samples.size(), par, [&](std::size_t t) {
        const std::size_t p =
            std::upper_bound(first.begin(), first.end(), t) -
            first.begin() - 1;
        const BatchPoint &pt = points[p];
        const std::size_t i = t - first[p];
        cell::CellSystem sys(pt.cfg, pt.spec.seed + i);
        samples[t] = pt.body(sys);
        if (i >= pt.spec.warmup && pt.spec.metrics)
            sys.snapshotMetrics(*pt.spec.metrics);
    });

    std::vector<stats::Distribution> dists(points.size());
    for (std::size_t p = 0; p < points.size(); ++p) {
        for (std::size_t t = first[p] + points[p].spec.warmup;
             t < first[p + 1]; ++t)
            dists[p].add(samples[t]);
    }
    return dists;
}

stats::Distribution
repeatRuns(const cell::CellConfig &cfg, const RepeatSpec &spec,
           const ExperimentBody &body, const ParallelSpec &par)
{
    return runBatch({{cfg, spec, body}}, par).front();
}

} // namespace cellbw::core
