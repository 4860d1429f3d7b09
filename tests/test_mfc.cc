/** @file Unit tests for the MFC DMA engine (with a mock line router). */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/clock.hh"
#include "sim/task.hh"
#include "spe/mfc.hh"
#include "stats/json_writer.hh"
#include "stats/metrics.hh"

using namespace cellbw;
using spe::DmaDir;

namespace
{

/** Records every line and completes it after a configurable delay. */
struct MockRouter
{
    sim::EventQueue &eq;
    Tick delay = 50;
    std::vector<spe::LineRequest> lines = {};
    unsigned inFlight = 0;
    unsigned maxInFlight = 0;

    void
    operator()(spe::LineRequest &&req)
    {
        ++inFlight;
        maxInFlight = std::max(maxInFlight, inFlight);
        auto done = std::move(req.done);
        lines.push_back(std::move(req));
        eq.schedule(delay, [this, done = std::move(done)] {
            --inFlight;
            done();
        });
    }
};

struct MfcFixture : public ::testing::Test
{
    sim::EventQueue eq;
    sim::ClockSpec clock;
    spe::MfcParams params;
    MockRouter router{eq};

    std::unique_ptr<spe::Mfc>
    make()
    {
        auto mfc = std::make_unique<spe::Mfc>("mfc", eq, clock, params, 0);
        mfc->setLineHandler(std::ref(router));
        return mfc;
    }
};

sim::Task
waitTags(spe::Mfc &mfc, std::uint32_t mask, Tick *done_at,
         sim::EventQueue &eq)
{
    co_await mfc.tagWait(mask);
    *done_at = eq.now();
}

} // namespace

TEST_F(MfcFixture, GetSplitsIntoLines)
{
    auto mfc = make();
    mfc->get(0, 0x10000, 1024, 3);
    eq.run();
    ASSERT_EQ(router.lines.size(), 8u);
    for (unsigned i = 0; i < 8; ++i) {
        EXPECT_EQ(router.lines[i].bytes, 128u);
        EXPECT_EQ(router.lines[i].ea, 0x10000u + i * 128);
        EXPECT_EQ(router.lines[i].lsa, i * 128);
        EXPECT_EQ(router.lines[i].dir, DmaDir::Get);
        EXPECT_EQ(router.lines[i].speIndex, 0u);
    }
    EXPECT_EQ(mfc->bytesTransferred(), 1024u);
    EXPECT_EQ(mfc->commandsCompleted(), 1u);
    EXPECT_EQ(mfc->linesSent(), 8u);
}

TEST_F(MfcFixture, SmallTransfersAreOneLine)
{
    auto mfc = make();
    mfc->put(16, 0x20000, 16, 0);
    mfc->put(32, 0x20010, 4, 0);
    eq.run();
    ASSERT_EQ(router.lines.size(), 2u);
    EXPECT_EQ(router.lines[0].bytes, 16u);
    EXPECT_EQ(router.lines[1].bytes, 4u);
}

TEST_F(MfcFixture, TagMaskTracksPendingCommands)
{
    auto mfc = make();
    EXPECT_EQ(mfc->tagsPendingMask(), 0u);
    mfc->get(0, 0x10000, 128, 2);
    mfc->get(256, 0x20000, 128, 5);
    EXPECT_EQ(mfc->tagsPendingMask(), (1u << 2) | (1u << 5));
    eq.run();
    EXPECT_EQ(mfc->tagsPendingMask(), 0u);
}

TEST_F(MfcFixture, TagWaitBlocksUntilCompletion)
{
    auto mfc = make();
    mfc->get(0, 0x10000, 2048, 1);
    Tick woke_at = 0;
    sim::Task w = waitTags(*mfc, 1u << 1, &woke_at, eq);
    w.start();
    EXPECT_FALSE(w.done());
    eq.run();
    EXPECT_TRUE(w.done());
    EXPECT_GT(woke_at, 0u);
}

TEST_F(MfcFixture, TagWaitOnIdleTagDoesNotBlock)
{
    auto mfc = make();
    mfc->get(0, 0x10000, 128, 1);
    Tick woke_at = 1234;
    sim::Task w = waitTags(*mfc, 1u << 7, &woke_at, eq);
    w.start();
    EXPECT_TRUE(w.done());      // tag 7 idle: no suspension
    EXPECT_EQ(woke_at, 0u);
    eq.run();
}

TEST_F(MfcFixture, WindowLimitsOutstandingMemoryLines)
{
    params.memoryTokens = 4;
    auto mfc = make();
    mfc->get(0, 0x10000, 16 * 1024, 0);
    eq.run();
    EXPECT_EQ(router.lines.size(), 128u);
    EXPECT_EQ(router.maxInFlight, 4u);
}

TEST_F(MfcFixture, LsLinesUseTheLsWindow)
{
    params.memoryTokens = 1;
    params.lsLines = 8;
    auto mfc = make();
    mfc->get(0, spe::lsApertureBase + 0x4000, 16 * 1024, 0);
    eq.run();
    EXPECT_EQ(router.maxInFlight, 8u);
}

TEST_F(MfcFixture, MemoryLinesDoNotBlockLsLines)
{
    params.memoryTokens = 1;
    params.lsLines = 4;
    router.delay = 1000;    // memory lines stay in flight a long time
    auto mfc = make();
    mfc->get(0, 0x10000, 1024, 0);                           // memory
    mfc->get(8192, spe::lsApertureBase + 0x4000, 1024, 1);   // LS
    eq.run();
    // Both eventually complete, and at some point 1 mem + 4 LS lines
    // were in flight together.
    EXPECT_EQ(router.lines.size(), 16u);
    EXPECT_EQ(router.maxInFlight, 5u);
}

TEST_F(MfcFixture, QueueSlotsHeldUntilCompletion)
{
    params.queueDepth = 2;
    auto mfc = make();
    mfc->get(0, 0x10000, 128, 0);
    mfc->get(128, 0x20000, 128, 0);
    EXPECT_TRUE(mfc->queueFull());
    EXPECT_EQ(mfc->queueFree(), 0u);
    eq.run();
    EXPECT_EQ(mfc->queueFree(), 2u);
}

TEST_F(MfcFixture, OverflowWithoutAwaitIsFatal)
{
    params.queueDepth = 1;
    auto mfc = make();
    mfc->get(0, 0x10000, 128, 0);
    EXPECT_THROW(mfc->get(128, 0x20000, 128, 0), sim::FatalError);
}

TEST_F(MfcFixture, QueueSpaceAwaitAdmitsWhenSlotFrees)
{
    params.queueDepth = 1;
    auto mfc = make();
    bool issued_second = false;
    auto prog_fn = [&]() -> sim::Task {
        co_await mfc->queueSpace();
        mfc->get(0, 0x10000, 128, 0);
        co_await mfc->queueSpace();
        mfc->get(128, 0x20000, 128, 0);
        issued_second = true;
        co_await mfc->tagWait(1u << 0);
    };
    sim::Task prog = prog_fn();
    prog.start();
    EXPECT_FALSE(issued_second);
    eq.run();
    prog.rethrow();
    EXPECT_TRUE(prog.done());
    EXPECT_TRUE(issued_second);
    EXPECT_EQ(router.lines.size(), 2u);
}

TEST_F(MfcFixture, TwoStreamsNeverOverflowSharedQueue)
{
    // Regression: a woken waiter's slot must not be stolen by the
    // other stream running in the same tick.
    params.queueDepth = 4;
    auto mfc = make();
    auto stream = [&](unsigned tag, EffAddr base) -> sim::Task {
        for (int i = 0; i < 50; ++i) {
            co_await mfc->queueSpace();
            mfc->get(static_cast<LsAddr>((i % 8) * 128),
                     base + static_cast<EffAddr>(i) * 128, 128, tag);
        }
        co_await mfc->tagWait(1u << tag);
    };
    sim::Task a = stream(0, 0x100000);
    sim::Task b = stream(1, 0x200000);
    a.start();
    b.start();
    eq.run();
    a.rethrow();
    b.rethrow();
    EXPECT_TRUE(a.done());
    EXPECT_TRUE(b.done());
    EXPECT_EQ(router.lines.size(), 100u);
}

TEST_F(MfcFixture, ListCommandWalksAllElements)
{
    auto mfc = make();
    std::vector<spe::ListElement> list = {
        {0x10000, 256}, {0x40000, 128}, {0x80000, 512}};
    mfc->getList(0, list, 6);
    eq.run();
    EXPECT_EQ(mfc->bytesTransferred(), 896u);
    ASSERT_EQ(router.lines.size(), 7u);
    // Element boundaries never merge into one line.
    EXPECT_EQ(router.lines[0].ea, 0x10000u);
    EXPECT_EQ(mfc->commandsCompleted(), 1u);
}

TEST_F(MfcFixture, ListLsCursorAdvancesContiguously)
{
    auto mfc = make();
    std::vector<spe::ListElement> list = {{0x10000, 128}, {0x20000, 128}};
    mfc->getList(0x1000, list, 0);
    eq.run();
    ASSERT_EQ(router.lines.size(), 2u);
    EXPECT_EQ(router.lines[0].lsa, 0x1000u);
    EXPECT_EQ(router.lines[1].lsa, 0x1080u);
}

TEST_F(MfcFixture, ValidationRejectsBadCommands)
{
    auto mfc = make();
    // A rejected command returns false and latches the error on its
    // tag group instead of killing the run; the program can poll it.
    // Bad sizes.
    EXPECT_FALSE(mfc->get(0, 0x10000, 0, 0));
    EXPECT_FALSE(mfc->get(0, 0x10000, 3, 0));
    EXPECT_FALSE(mfc->get(0, 0x10000, 100, 0));
    EXPECT_FALSE(mfc->get(0, 0x10000, 32 * 1024, 0));
    // Bad alignment.
    EXPECT_FALSE(mfc->get(8, 0x10000, 128, 1));
    EXPECT_FALSE(mfc->get(0, 0x10004, 128, 1));
    // Bad tag numbers stay fatal: that is a program bug, not a
    // recoverable transfer fault.
    EXPECT_THROW(mfc->get(0, 0x10000, 128, 32), sim::FatalError);
    // LS overrun.
    EXPECT_FALSE(mfc->get(256 * 1024 - 64, 0x10000, 128, 2));
    // Bad lists.
    EXPECT_FALSE(mfc->getList(0, {}, 3));
    std::vector<spe::ListElement> toobig(2049, {0x10000, 16});
    EXPECT_FALSE(mfc->getList(0, toobig, 3));
    // Nothing leaked into the queue.
    EXPECT_EQ(mfc->queueFree(), params.queueDepth);
    eq.run();
    EXPECT_TRUE(router.lines.empty());

    // Each rejection left a fault record on its tag group.
    EXPECT_EQ(mfc->commandsFaulted(), 9u);
    EXPECT_EQ(mfc->tagFaultMask(), 0b1111u);
    EXPECT_EQ(mfc->tagFaultCount(0), 4u);
    EXPECT_EQ(mfc->tagFaultCount(1), 2u);
    EXPECT_EQ(mfc->tagFaultCount(2), 1u);
    EXPECT_EQ(mfc->tagFaultCount(3), 2u);
    auto size_faults = mfc->takeFaults(0);
    ASSERT_EQ(size_faults.size(), 4u);
    for (const auto &f : size_faults) {
        EXPECT_EQ(f.code, spe::MfcError::InvalidSize);
        EXPECT_FALSE(spe::isTransient(f.code));
    }
    auto align_faults = mfc->takeFaults(1);
    ASSERT_EQ(align_faults.size(), 2u);
    EXPECT_EQ(align_faults[0].code, spe::MfcError::Misaligned);
    auto overrun_faults = mfc->takeFaults(2);
    ASSERT_EQ(overrun_faults.size(), 1u);
    EXPECT_EQ(overrun_faults[0].code, spe::MfcError::LsOverrun);
    EXPECT_EQ(overrun_faults[0].lsa, 256u * 1024 - 64);
    ASSERT_EQ(overrun_faults[0].segs.size(), 1u);
    EXPECT_EQ(overrun_faults[0].segs[0].ea, 0x10000u);
    auto list_faults = mfc->takeFaults(3);
    ASSERT_EQ(list_faults.size(), 2u);
    EXPECT_EQ(list_faults[0].code, spe::MfcError::BadList);
    // All consumed.
    EXPECT_EQ(mfc->tagFaultMask(), 0u);
}

TEST_F(MfcFixture, ListAtMaxLengthIsAccepted)
{
    auto mfc = make();
    // Exactly maxListElements (2048) is legal; 2048 x 16 B fits in
    // 32 KiB of LS with room to spare.
    std::vector<spe::ListElement> list(spe::maxListElements,
                                       {0x10000, 16});
    EXPECT_TRUE(mfc->getList(0, list, 1));
    eq.run();
    EXPECT_EQ(mfc->commandsFaulted(), 0u);
    EXPECT_EQ(mfc->commandsCompleted(), 1u);
    EXPECT_EQ(mfc->linesSent(), spe::maxListElements);
    EXPECT_EQ(mfc->bytesTransferred(), spe::maxListElements * 16u);
}

TEST_F(MfcFixture, ListOneOverMaxIsRejectedCleanly)
{
    auto mfc = make();
    std::vector<spe::ListElement> list(spe::maxListElements + 1,
                                       {0x10000, 16});
    EXPECT_FALSE(mfc->getList(0, list, 1));
    // Rejection is a recoverable fault: nothing was queued, no tag is
    // pending, and the error is latched on the tag group.
    EXPECT_EQ(mfc->queueFree(), params.queueDepth);
    EXPECT_EQ(mfc->tagsPendingMask(), 0u);
    EXPECT_EQ(mfc->tagFaultCount(1), 1u);
    eq.run();
    EXPECT_TRUE(router.lines.empty());
    auto faults = mfc->takeFaults(1);
    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].code, spe::MfcError::BadList);
}

TEST_F(MfcFixture, ListCursorRoundUpTriggersLsOverrun)
{
    auto mfc = make();
    // Each list element starts on a fresh 16 B LS boundary.  Two 8 B
    // elements starting 24 B below the top of LS land at lsSize-16 and
    // lsSize (after round-up), so the second one runs past the end even
    // though the raw sizes (16 B) would fit.
    std::vector<spe::ListElement> list = {{0x10000, 8}, {0x10020, 8}};
    EXPECT_FALSE(mfc->getList(params.lsSize - 24, list, 4));
    EXPECT_EQ(mfc->tagsPendingMask(), 0u);
    EXPECT_EQ(mfc->queueFree(), params.queueDepth);
    auto faults = mfc->takeFaults(4);
    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].code, spe::MfcError::LsOverrun);

    // The same two elements issued 8 B lower fit exactly: the final
    // cursor lands on lsSize, which is in bounds.
    EXPECT_TRUE(mfc->getList(params.lsSize - 32, list, 4));
    eq.run();
    EXPECT_EQ(mfc->commandsCompleted(), 1u);
    ASSERT_EQ(router.lines.size(), 2u);
    EXPECT_EQ(router.lines[0].lsa, params.lsSize - 32);
    EXPECT_EQ(router.lines[1].lsa, params.lsSize - 16);
}

TEST_F(MfcFixture, RejectionDoesNotDisturbPendingCommands)
{
    auto mfc = make();
    EXPECT_TRUE(mfc->get(0, 0x10000, 1024, 5));
    EXPECT_FALSE(mfc->get(0, 0x20000, 100, 5));   // rejected, same tag
    Tick done_at = 0;
    sim::Task w = waitTags(*mfc, 1u << 5, &done_at, eq);
    w.start();
    eq.run();
    // The good command completed normally; the bad one is latched.
    EXPECT_EQ(mfc->commandsCompleted(), 1u);
    EXPECT_EQ(mfc->bytesTransferred(), 1024u);
    EXPECT_EQ(mfc->tagFaultCount(5), 1u);
    EXPECT_EQ(mfc->takeFaults(5)[0].code, spe::MfcError::InvalidSize);
}

TEST_F(MfcFixture, InjectedDropCompletesWithErrorAndNoData)
{
    params.faults.dropRate = 1.0;
    params.faults.seed = 42;
    auto mfc = make();
    EXPECT_TRUE(mfc->get(0, 0x10000, 1024, 4));
    Tick done_at = 0;
    sim::Task w = waitTags(*mfc, 1u << 4, &done_at, eq);
    w.start();
    eq.run();                       // tagWait must not deadlock
    EXPECT_TRUE(router.lines.empty());  // no data moved
    EXPECT_EQ(mfc->dropsInjected(), 1u);
    EXPECT_EQ(mfc->queueFree(), params.queueDepth);
    auto faults = mfc->takeFaults(4);
    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].code, spe::MfcError::Dropped);
    EXPECT_TRUE(spe::isTransient(faults[0].code));
    // The record carries the full descriptor for verbatim re-issue.
    EXPECT_EQ(faults[0].lsa, 0u);
    ASSERT_EQ(faults[0].segs.size(), 1u);
    EXPECT_EQ(faults[0].segs[0].ea, 0x10000u);
    EXPECT_EQ(faults[0].segs[0].size, 1024u);
}

TEST_F(MfcFixture, InjectedCorruptionMarksOneLine)
{
    params.faults.corruptRate = 1.0;
    auto mfc = make();
    EXPECT_TRUE(mfc->put(0, 0x10000, 1024, 6));
    eq.run();
    ASSERT_EQ(router.lines.size(), 8u);
    unsigned corrupted = 0;
    for (const auto &l : router.lines)
        corrupted += l.corrupt ? 1 : 0;
    EXPECT_EQ(corrupted, 1u);       // exactly one line damaged
    EXPECT_EQ(mfc->corruptionsInjected(), 1u);
    auto faults = mfc->takeFaults(6);
    ASSERT_EQ(faults.size(), 1u);
    EXPECT_EQ(faults[0].code, spe::MfcError::Corrupted);
}

TEST_F(MfcFixture, InjectedDelayPostponesCompletionOnly)
{
    params.faults.delayRate = 1.0;
    params.faults.delayTicks = 5000;
    auto mfc = make();

    Tick base_done = 0;
    {
        // Reference run without injection.
        spe::MfcParams clean = params;
        clean.faults = {};
        MockRouter r2{eq};
        auto m2 = std::make_unique<spe::Mfc>("m2", eq, clock, clean, 0);
        m2->setLineHandler(std::ref(r2));
        m2->get(0, 0x10000, 1024, 0);
        sim::Task w2 = waitTags(*m2, 1u << 0, &base_done, eq);
        w2.start();
        eq.run();
    }

    EXPECT_TRUE(mfc->get(0, 0x10000, 1024, 0));
    Tick done_at = 0;
    sim::Task w = waitTags(*mfc, 1u << 0, &done_at, eq);
    w.start();
    eq.run();
    EXPECT_EQ(mfc->delaysInjected(), 1u);
    // All data still moves, completion is late, and no error latches.
    EXPECT_EQ(mfc->bytesTransferred(), 1024u);
    EXPECT_GE(done_at, base_done + 5000);
    EXPECT_EQ(mfc->tagFaultMask(), 0u);
}

TEST_F(MfcFixture, FaultSequenceIsSeedReproducible)
{
    params.faults.dropRate = 0.3;
    params.faults.seed = 7;

    auto run_one = [&](std::uint64_t seed) {
        sim::EventQueue q;
        MockRouter r{q};
        spe::MfcParams p = params;
        p.faults.seed = seed;
        auto m = std::make_unique<spe::Mfc>("m", q, clock, p, 0);
        m->setLineHandler(std::ref(r));
        std::vector<bool> dropped;
        for (unsigned i = 0; i < 8; ++i) {
            m->get(0, 0x10000, 128, i % spe::numTags);
            q.run();
            dropped.push_back(m->takeFaults(i % spe::numTags).size() >
                              0);
        }
        return dropped;
    };

    auto a = run_one(7);
    auto b = run_one(7);
    auto c = run_one(8);
    EXPECT_EQ(a, b);                // same seed, same fate sequence
    EXPECT_NE(a, c);                // different seed diverges
    EXPECT_TRUE(std::count(a.begin(), a.end(), true) > 0);
    EXPECT_TRUE(std::count(a.begin(), a.end(), false) > 0);
}

TEST_F(MfcFixture, PlainCommandsOfOneTagMayOverlap)
{
    // Two commands of one tag group: the second's line leaves before
    // the first's completes.
    router.delay = 100;
    auto mfc = make();
    mfc->get(0, 0x1000, 128, 0);
    mfc->get(128, 0x2000, 128, 0);
    eq.run();
    ASSERT_EQ(router.lines.size(), 2u);
    EXPECT_EQ(router.maxInFlight, 2u);
}

TEST_F(MfcFixture, IssueOverheadSerializesCommands)
{
    // Three commands on three tag groups pass the serial issue engine
    // back to back in arrival order: one line every 100 bus cycles
    // (200 ticks), the first after one full occupancy.
    params.elemOverheadBus = 100;   // enormous, to dominate
    auto mfc = make();
    std::vector<std::pair<EffAddr, Tick>> seen;
    mfc->setLineHandler([&](spe::LineRequest &&req) {
        seen.emplace_back(req.ea, eq.now());
        eq.schedule(1, std::move(req.done));
    });
    mfc->get(0, 0x30000, 128, 2);
    mfc->get(128, 0x10000, 128, 0);
    mfc->get(256, 0x20000, 128, 1);
    eq.run();
    const std::vector<std::pair<EffAddr, Tick>> expected = {
        {0x30000, 200}, {0x10000, 400}, {0x20000, 600}};
    EXPECT_EQ(seen, expected);
}

TEST_F(MfcFixture, QueueDepthHistogramDoesNotDependOnMergeOrder)
{
    // A shallow and a deep MFC merge their queue-depth histograms into
    // one registry name, as the runs of a queue-depth sweep do.  The
    // merged shape must not depend on which registers first.
    auto fill = [&](unsigned depth, unsigned commands) {
        params.queueDepth = depth;
        auto mfc = make();
        for (unsigned i = 0; i < commands; ++i)
            mfc->get(static_cast<LsAddr>(i * 128),
                     0x10000u + static_cast<EffAddr>(i) * 128, 128, 0);
        eq.run();
        return mfc;
    };
    auto shallow = fill(1, 1);
    auto deep = fill(32, 20);   // depths 1..20, deeper than 9

    auto merged = [&](const spe::Mfc &first, const spe::Mfc &second) {
        stats::MetricsRegistry reg;
        first.registerMetrics(reg, "spe0.mfc");
        second.registerMetrics(reg, "spe0.mfc");
        stats::JsonWriter w;
        reg.writeJson(w);
        return w.str();
    };
    const std::string a = merged(*shallow, *deep);
    EXPECT_EQ(a, merged(*deep, *shallow));
    EXPECT_NE(a.find("\"count\":21,\"sum\":211,"), std::string::npos) << a;
    EXPECT_NE(a.find("\"buckets\":[0,2,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,1,"
                     "1,1]"),
              std::string::npos)
        << a;
}

TEST_F(MfcFixture, NoHandlerIsFatal)
{
    auto mfc = std::make_unique<spe::Mfc>("m", eq, clock, params, 0);
    EXPECT_THROW(mfc->get(0, 0x1000, 128, 0), sim::FatalError);
}

TEST_F(MfcFixture, FullWindowsKeepTheRoundRobinOrder)
{
    // Two memory tokens and three LS lines, so both windows fill while
    // several commands are active.  The router sees every line as
    // (ea, tick); the expected sequence is the one the rotate-by-one
    // issue loop produced, and skipping a ring of blocked commands in
    // one step must reproduce it exactly.  The mix reaches every early
    // exit: all active commands memory-bound with the memory window
    // full, all LS-bound with the LS window full (the long LS GET is
    // alone at the end), and both windows full.  Line latencies vary
    // with the address, so completions reorder.
    params.memoryTokens = 2;
    params.lsLines = 3;
    params.elemOverheadBus = 2;
    auto mfc = make();
    std::vector<std::pair<EffAddr, Tick>> seen;
    mfc->setLineHandler([&](spe::LineRequest &&req) {
        seen.emplace_back(req.ea, eq.now());
        eq.schedule(40 + (req.ea / 128) % 3 * 17, std::move(req.done));
    });
    const EffAddr ls = spe::lsApertureBase;
    mfc->get(0x0000, 0x10000, 768, 0);              // memory GET
    mfc->get(0x1000, ls + 0x4000, 1024, 1);         // LS GET
    mfc->put(0x2000, 0x30000, 512, 2);              // memory PUT
    mfc->getList(0x3000,
                 {{0x50000, 128}, {ls + 0x6000, 128}, {0x50080, 128},
                  {ls + 0x6080, 256}, {0x50100, 128}},
                 3);                                // alternating list
    mfc->get(0x4000, ls + 0x8000, 2048, 4);         // long LS GET
    eq.run();
    const std::vector<std::pair<EffAddr, Tick>> expected = {
        {0x10000, 4}, {0x10080, 4}, {ls + 0x4000, 8},
        {ls + 0x4080, 12}, {ls + 0x4100, 12}, {0x30000, 44},
        {ls + 0x4180, 52}, {ls + 0x8000, 65}, {0x50000, 78},
        {0x30080, 84}, {ls + 0x4200, 86}, {ls + 0x4280, 105},
        {ls + 0x6000, 109}, {0x50080, 135}, {0x30100, 141},
        {ls + 0x4300, 145}, {ls + 0x4380, 160}, {ls + 0x6080, 183},
        {ls + 0x6100, 202}, {0x30180, 209}, {0x10100, 215},
        {ls + 0x8080, 223}, {ls + 0x8100, 234}, {0x10180, 249},
        {ls + 0x8180, 259}, {0x50100, 272}, {ls + 0x8200, 280},
        {ls + 0x8280, 299}, {ls + 0x8300, 308}, {0x10200, 312},
        {0x10280, 323}, {ls + 0x8380, 337}, {ls + 0x8400, 348},
        {ls + 0x8480, 373}, {ls + 0x8500, 394}, {ls + 0x8580, 413},
        {ls + 0x8600, 422}, {ls + 0x8680, 451}, {ls + 0x8700, 462},
        {ls + 0x8780, 487},
    };
    EXPECT_EQ(seen, expected);
    EXPECT_EQ(mfc->commandsCompleted(), 5u);
}
