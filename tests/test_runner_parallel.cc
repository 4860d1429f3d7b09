/** @file Serial-vs-parallel equivalence tests for core::repeatRuns. */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <mutex>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiments.hh"
#include "core/runner.hh"
#include "core/worker_pool.hh"
#include "stats/metrics.hh"

using namespace cellbw;

namespace
{

/** A placement-sensitive body: different seeds give different GB/s. */
double
speSpeBody(cell::CellSystem &sys)
{
    core::SpeSpeConfig sc;
    sc.numSpes = 8;
    sc.elemBytes = 4096;
    sc.bytesPerStream = 256 * util::KiB;
    return core::runSpeSpe(sys, sc);
}

} // namespace

TEST(ParallelFor, RunsEachIndexExactlyOnce)
{
    // With the caller's pool, a pool scoped to the call, and inline;
    // inline stays on the calling thread, the pools never use it.
    const auto caller = std::this_thread::get_id();
    core::WorkerPool pool(3);
    const std::pair<const char *, core::ParallelSpec> modes[] = {
        {"shared", core::ParallelSpec{0, &pool}},
        {"scoped", core::ParallelSpec{4}},
        {"inline", core::ParallelSpec::serial()},
    };
    for (const auto &[name, par] : modes) {
        std::vector<std::atomic<unsigned>> calls(37);
        std::mutex m;
        std::set<std::thread::id> ids;
        core::parallelFor(calls.size(), par, [&](std::size_t i) {
            calls[i].fetch_add(1, std::memory_order_relaxed);
            std::lock_guard<std::mutex> lock(m);
            ids.insert(std::this_thread::get_id());
        });
        for (std::size_t i = 0; i < calls.size(); ++i)
            EXPECT_EQ(calls[i].load(), 1u) << name << " index " << i;
        if (par.jobs == 1)
            EXPECT_EQ(ids, std::set<std::thread::id>{caller}) << name;
        else
            EXPECT_EQ(ids.count(caller), 0u) << name;
    }
}

TEST(ParallelFor, ZeroTasksReturnAtOnce)
{
    core::WorkerPool pool(2);
    bool called = false;
    auto fn = [&](std::size_t) { called = true; };
    core::parallelFor(0, core::ParallelSpec{0, &pool}, fn);
    core::parallelFor(0, core::ParallelSpec{4}, fn);
    core::parallelFor(0, core::ParallelSpec::serial(), fn);
    EXPECT_FALSE(called);
}

TEST(ParallelFor, ErrorIsRethrownAfterEveryTaskFinished)
{
    // Index 2 throws at once while the others are still sleeping; the
    // caller must not see the error until they have all returned, and
    // of two errors it sees the lower index's, whatever the width.
    core::WorkerPool pool(3);
    for (const auto &par : {core::ParallelSpec{0, &pool},
                            core::ParallelSpec{4},
                            core::ParallelSpec::serial()}) {
        std::atomic<unsigned> finished{0};
        std::string what;
        try {
            core::parallelFor(8, par, [&](std::size_t i) {
                if (i == 2 || i == 5)
                    throw std::runtime_error("task " + std::to_string(i));
                std::this_thread::sleep_for(std::chrono::milliseconds(5));
                finished.fetch_add(1);
            });
        } catch (const std::runtime_error &e) {
            what = e.what();
        }
        EXPECT_EQ(what, "task 2") << "jobs=" << par.jobs;
        EXPECT_EQ(finished.load(), 6u) << "jobs=" << par.jobs;
    }
}

TEST(ParallelRunner, OneJobRunsInlineWiderSweepsUseAPool)
{
    // One job (or one run) stays on the calling thread; wider sweeps
    // run on a pool: the caller's, or one scoped to the call.
    cell::CellConfig cfg;
    const auto caller = std::this_thread::get_id();
    auto threadsOf = [&](core::RepeatSpec spec, core::ParallelSpec par) {
        std::mutex m;
        std::set<std::thread::id> ids;
        core::repeatRuns(cfg, spec, [&](cell::CellSystem &) {
            std::lock_guard<std::mutex> lock(m);
            ids.insert(std::this_thread::get_id());
            return 1.0;
        }, par);
        return ids;
    };
    const std::set<std::thread::id> inline_{caller};
    EXPECT_EQ(threadsOf({4, 42}, core::ParallelSpec::serial()), inline_);
    EXPECT_EQ(threadsOf({1, 42}, core::ParallelSpec{4}), inline_);
    EXPECT_EQ(threadsOf({4, 42}, core::ParallelSpec{4}).count(caller), 0u);

    core::WorkerPool pool(2);
    auto pooled = threadsOf({6, 42}, core::ParallelSpec{0, &pool});
    EXPECT_EQ(pooled.count(caller), 0u);
    EXPECT_LE(pooled.size(), 2u);
}

TEST(ParallelRunner, ParallelMatchesSerialBitIdentically)
{
    cell::CellConfig cfg;
    core::RepeatSpec spec;  // the default 10 runs, seeds 42..51
    auto serial =
        core::repeatRuns(cfg, spec, speSpeBody, core::ParallelSpec{1});
    for (unsigned jobs : {2u, 4u, 10u, 16u}) {
        auto par = core::repeatRuns(cfg, spec, speSpeBody,
                                    core::ParallelSpec{jobs});
        // samples() preserves run order, so this also checks that the
        // merge happens in seed order, not completion order.
        EXPECT_EQ(serial.samples(), par.samples()) << "jobs=" << jobs;
    }
}

TEST(ParallelRunner, WarmupShiftsSeedsAndDiscardsSamples)
{
    // The warmup contract: (seed=s, warmup=w) records exactly the
    // samples of (seed=s+w, warmup=0).  That identity is what lets the
    // sim default of 0 keep every existing report byte-identical.
    cell::CellConfig cfg;
    core::RepeatSpec warm;
    warm.runs = 4;
    warm.seed = 42;
    warm.warmup = 2;
    core::RepeatSpec shifted;
    shifted.runs = 4;
    shifted.seed = 44;
    auto a = core::repeatRuns(cfg, warm, speSpeBody,
                              core::ParallelSpec{1});
    auto b = core::repeatRuns(cfg, shifted, speSpeBody,
                              core::ParallelSpec{1});
    EXPECT_EQ(a.samples(), b.samples());
    EXPECT_EQ(a.count(), 4u);
}

TEST(ParallelRunner, MetricsAccumulateIdenticallyForAnyJobCount)
{
    // The --json path: every run snapshots its counters into one
    // shared registry from whichever worker thread ran it.  The adds
    // are atomic and commutative, so the totals must not depend on
    // the job count (and TSan must see no races).
    cell::CellConfig cfg;
    core::RepeatSpec spec{6, 42};

    auto sweep = [&](unsigned jobs, stats::MetricsRegistry &reg) {
        core::RepeatSpec s = spec;
        s.metrics = &reg;
        return core::repeatRuns(cfg, s, speSpeBody,
                                core::ParallelSpec{jobs});
    };

    stats::MetricsRegistry serial, parallel;
    auto d1 = sweep(1, serial);
    auto d4 = sweep(4, parallel);
    EXPECT_EQ(d1.samples(), d4.samples());

    ASSERT_NE(serial.findCounter("sim.runs"), nullptr);
    EXPECT_EQ(serial.findCounter("sim.runs")->value(), 6u);
    auto names = serial.names();
    EXPECT_EQ(names, parallel.names());
    // EIB and MFC activity was booked, and totals match exactly.
    EXPECT_GT(serial.findCounter("eib0.packets")->value(), 0u);
    EXPECT_GT(serial.findCounter("spe0.mfc.bytes")->value(), 0u);
    for (const auto &n : names) {
        if (const auto *c = serial.findCounter(n)) {
            EXPECT_EQ(c->value(), parallel.findCounter(n)->value())
                << n;
        }
    }
}

TEST(ParallelRunner, EachRunGetsItsOwnSeedExactlyOnce)
{
    cell::CellConfig cfg;
    core::RepeatSpec spec{7, 1234};
    std::atomic<unsigned> calls{0};
    auto d = core::repeatRuns(cfg, spec, [&](cell::CellSystem &sys) {
        calls.fetch_add(1, std::memory_order_relaxed);
        // Encode the placement permutation so equal placements from
        // different seeds cannot hide a duplicated run.
        double key = 0.0;
        for (auto p : sys.placement())
            key = key * 16.0 + p;
        return key;
    }, core::ParallelSpec{4});
    EXPECT_EQ(calls.load(), 7u);
    EXPECT_EQ(d.count(), 7u);

    auto again = core::repeatRuns(cfg, spec, [](cell::CellSystem &sys) {
        double key = 0.0;
        for (auto p : sys.placement())
            key = key * 16.0 + p;
        return key;
    }, core::ParallelSpec{1});
    EXPECT_EQ(d.samples(), again.samples());
}

TEST(ParallelRunner, MoreJobsThanRunsIsFine)
{
    cell::CellConfig cfg;
    core::RepeatSpec spec{2, 7};
    auto d = core::repeatRuns(cfg, spec, speSpeBody,
                              core::ParallelSpec{64});
    EXPECT_EQ(d.count(), 2u);
}

TEST(ParallelRunner, BodyExceptionsPropagate)
{
    cell::CellConfig cfg;
    core::RepeatSpec spec{6, 3};
    auto bomb = [](cell::CellSystem &) -> double {
        throw std::runtime_error("boom");
    };
    EXPECT_THROW(core::repeatRuns(cfg, spec, bomb,
                                  core::ParallelSpec{3}),
                 std::runtime_error);
    EXPECT_THROW(core::repeatRuns(cfg, spec, bomb,
                                  core::ParallelSpec{1}),
                 std::runtime_error);
}

TEST(ParallelRunner, WorkersSeeIndependentSystems)
{
    // Each run must observe a fresh CellSystem at tick 0; leakage of
    // event-queue state across runs would advance now() before the body.
    cell::CellConfig cfg;
    core::RepeatSpec spec{8, 42};
    std::atomic<bool> sawDirtySystem{false};
    core::repeatRuns(cfg, spec, [&](cell::CellSystem &sys) {
        if (sys.now() != 0)
            sawDirtySystem.store(true);
        return speSpeBody(sys);
    }, core::ParallelSpec{4});
    EXPECT_FALSE(sawDirtySystem.load());
}
