/** @file Unit tests for the conservative partitioned engine. */

#include <gtest/gtest.h>

#include <algorithm>
#include <compare>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/parallel.hh"

using namespace cellbw;

namespace
{

constexpr Tick kLook = 100;

} // namespace

TEST(PartitionedEngine, LocalEventsRunWithoutCrossings)
{
    sim::PartitionedEngine eng(2, kLook);
    int fired = 0;
    eng.queue(0).schedule(10, [&] { ++fired; });
    eng.queue(1).schedule(20, [&] { ++fired; });
    eng.queue(1).schedule(20, [&] { ++fired; });
    EXPECT_EQ(eng.run(1), 3u);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(eng.messagesDelivered(), 0u);
    EXPECT_EQ(eng.eventsProcessed(), 3u);
    EXPECT_EQ(eng.lastDispatchTick(), 20u);
}

namespace
{

/**
 * A fixed event script on @p q: six events over three ticks, two per
 * tick, each scheduling one more for its own tick and one past the
 * queue's bucket window.  Every event appends its id to @p order.
 */
void
scriptEvents(sim::EventQueue &q, std::vector<int> &order)
{
    for (int i = 0; i < 6; ++i) {
        q.scheduleAt(static_cast<Tick>(i % 3) * 7, [&q, &order, i] {
            order.push_back(i);
            q.schedule(0, [&order, i] { order.push_back(100 + i); });
            q.schedule(sim::EventQueue::window() + 5 - i,
                       [&order, i] { order.push_back(200 + i); });
        });
    }
}

} // namespace

TEST(PartitionedEngine, OnePartitionRunsLikeABareQueue)
{
    sim::EventQueue bare;
    std::vector<int> expected;
    scriptEvents(bare, expected);
    const std::uint64_t events = bare.run();
    ASSERT_EQ(events, 18u);

    // One partition never posts, so it needs no lookahead; two do.
    EXPECT_THROW(sim::PartitionedEngine(2, 0), sim::FatalError);
    sim::PartitionedEngine eng(1, 0);
    std::vector<int> order;
    scriptEvents(eng.queue(0), order);
    EXPECT_EQ(eng.run(4), events);
    EXPECT_EQ(order, expected);
    EXPECT_EQ(eng.windows(), 0u);
    EXPECT_EQ(eng.messagesDelivered(), 0u);
    EXPECT_EQ(eng.lastDispatchTick(), eng.queue(0).now());
    EXPECT_EQ(eng.lastDispatchTick(), bare.now());
}

TEST(PartitionedEngine, SendIsAnEventWithinAPartitionAndAPostAcross)
{
    sim::PartitionedEngine eng(2, kLook);
    Tick local = maxTick, remote = maxTick;
    eng.queue(1).schedule(10, [&] {
        eng.send(1, 1, 15, [&] { local = eng.queue(1).now(); });
        // On partition 1's queue at once, not parked as a message.
        EXPECT_EQ(eng.queue(1).pending(), 1u);
    });
    eng.queue(0).schedule(20, [&] {
        eng.send(0, 1, 20 + kLook, [&] { remote = eng.queue(1).now(); });
    });
    eng.run(1);
    EXPECT_EQ(local, 15u);
    EXPECT_EQ(remote, 20u + kLook);
    EXPECT_EQ(eng.messagesDelivered(), 1u);
}

TEST(PartitionedEngine, PostDeliversAtTheRequestedTick)
{
    sim::PartitionedEngine eng(2, kLook);
    Tick seen = maxTick;
    eng.queue(0).schedule(10, [&] {
        eng.post(0, 1, eng.queue(0).now() + kLook,
                 [&] { seen = eng.queue(1).now(); });
    });
    eng.run(1);
    EXPECT_EQ(seen, 110u);
    EXPECT_EQ(eng.messagesDelivered(), 1u);
}

TEST(PartitionedEngine, DeliveryOrderIsWhenSourceSeq)
{
    // Three messages land on partition 2 at the same tick: two from
    // partition 0 (in post order) and one from partition 1.  A local
    // event already queued for that tick fires first (bucket FIFO),
    // then the deliveries in (when, src, seq) order — the fixed merge
    // that makes the schedule thread-count independent.
    sim::PartitionedEngine eng(3, kLook);
    std::vector<int> order;
    eng.queue(2).scheduleAt(kLook, [&] { order.push_back(99); });
    eng.queue(0).schedule(0, [&] {
        eng.post(0, 2, kLook, [&] { order.push_back(1); });
        eng.post(0, 2, kLook, [&] { order.push_back(2); });
    });
    eng.queue(1).schedule(0, [&] {
        eng.post(1, 2, kLook, [&] { order.push_back(3); });
    });
    eng.run(1);
    EXPECT_EQ(order, (std::vector<int>{99, 1, 2, 3}));
}

namespace
{

/**
 * A deterministic two-partition ping-pong: each delivery re-posts to
 * the other side until @p bounces messages have crossed.  Returns the
 * (partition, tick) trace in delivery order.
 */
std::vector<std::pair<unsigned, Tick>>
pingPongTrace(unsigned threads, int bounces)
{
    sim::PartitionedEngine eng(2, kLook);
    std::vector<std::pair<unsigned, Tick>> trace;
    int left = bounces;
    // Self-referential continuation: bounce() posts a message whose
    // body records its arrival and bounces back.
    struct Bouncer
    {
        sim::PartitionedEngine &eng;
        std::vector<std::pair<unsigned, Tick>> &trace;
        int &left;

        void
        send(unsigned from)
        {
            const unsigned to = 1 - from;
            eng.post(from, to, eng.queue(from).now() + kLook,
                     [this, to] {
                         trace.emplace_back(to, eng.queue(to).now());
                         if (--left > 0)
                             send(to);
                     });
        }
    } bouncer{eng, trace, left};
    eng.queue(0).schedule(3, [&] { bouncer.send(0); });
    eng.run(threads);
    return trace;
}

} // namespace

TEST(PartitionedEngine, ThreadedScheduleMatchesSerial)
{
    // Threads change who executes a window, never what order events
    // fire in: the trace must be identical for any worker count.
    const auto serial = pingPongTrace(1, 24);
    ASSERT_EQ(serial.size(), 24u);
    EXPECT_EQ(serial.front(), (std::pair<unsigned, Tick>{1u, 103u}));
    EXPECT_EQ(serial.back().second, 3u + 24u * kLook);
    EXPECT_EQ(pingPongTrace(2, 24), serial);
    EXPECT_EQ(pingPongTrace(4, 24), serial);
}

namespace
{

/**
 * A deterministic four-partition relay: a token hops around the ring
 * 0 -> 1 -> 2 -> 3 -> 0 for @p laps laps, while partition 0 also posts
 * a diagonal message straight to partition 2 every lap (non-adjacent
 * partitions must work just like neighbours).  The engine pins the
 * schedule *within* each partition, not the wall-clock interleaving of
 * different partitions, so the trace is kept per partition: entry
 * (tick, isDiagonal) in delivery order.  Each vector is only ever
 * touched by the thread currently running that partition.
 */
std::vector<std::vector<std::pair<Tick, bool>>>
ringTrace(unsigned threads, int laps)
{
    constexpr unsigned kParts = 4;
    sim::PartitionedEngine eng(kParts, kLook);
    std::vector<std::vector<std::pair<Tick, bool>>> trace(kParts);
    int left = laps * static_cast<int>(kParts);
    struct Relay
    {
        sim::PartitionedEngine &eng;
        std::vector<std::vector<std::pair<Tick, bool>>> &trace;
        int &left;

        void
        send(unsigned from)
        {
            const unsigned to = (from + 1) % kParts;
            eng.post(from, to, eng.queue(from).now() + kLook,
                     [this, to] {
                         trace[to].emplace_back(eng.queue(to).now(),
                                                false);
                         if (--left > 0)
                             send(to);
                     });
            if (from == 0)
                eng.post(0, 2, eng.queue(0).now() + kLook,
                         [this] {
                             trace[2].emplace_back(eng.queue(2).now(),
                                                   true);
                         });
        }
    } relay{eng, trace, left};
    eng.queue(0).schedule(5, [&] { relay.send(0); });
    eng.run(threads);
    return trace;
}

} // namespace

TEST(PartitionedEngine, FourPartitionRingMatchesSerial)
{
    // Four partitions, neighbour hops plus a diagonal 0 -> 2 post every
    // lap: each partition's delivery schedule is thread-count
    // independent, just as in the two-partition case.
    const auto serial = ringTrace(1, 6);
    // 6 laps land one hop on every partition; partition 2 also gets
    // one diagonal per visit to partition 0 (kick-off + 5 laps).
    ASSERT_EQ(serial.size(), 4u);
    EXPECT_EQ(serial[1].size(), 6u);
    EXPECT_EQ(serial[2].size(), 12u);
    EXPECT_EQ(serial[1].front(), (std::pair<Tick, bool>{105u, false}));
    // The diagonal beats the two-hop ring path to partition 2.
    EXPECT_EQ(serial[2][0], (std::pair<Tick, bool>{105u, true}));
    EXPECT_EQ(serial[2][1], (std::pair<Tick, bool>{205u, false}));
    EXPECT_EQ(ringTrace(2, 6), serial);
    EXPECT_EQ(ringTrace(4, 6), serial);
    EXPECT_EQ(ringTrace(8, 6), serial);
}

TEST(PartitionedEngine, DiagonalPostsReachNonAdjacentPartitions)
{
    // The engine is a full crossbar, not a ring: 0 -> 2 and 3 -> 1
    // deliver without any intermediate partition in the loop.
    sim::PartitionedEngine eng(4, kLook);
    Tick at02 = maxTick, at31 = maxTick;
    eng.queue(0).schedule(10, [&] {
        eng.post(0, 2, eng.queue(0).now() + kLook,
                 [&] { at02 = eng.queue(2).now(); });
    });
    eng.queue(3).schedule(20, [&] {
        eng.post(3, 1, eng.queue(3).now() + kLook,
                 [&] { at31 = eng.queue(1).now(); });
    });
    EXPECT_EQ(eng.run(2), 4u);
    EXPECT_EQ(at02, 110u);
    EXPECT_EQ(at31, 120u);
    EXPECT_EQ(eng.messagesDelivered(), 2u);
}

namespace
{

/** One posted message, ordered as the engine must deliver it. */
struct Posted
{
    Tick when;
    unsigned src;
    unsigned seq;
    auto operator<=>(const Posted &) const = default;
};

struct BacklogRun
{
    std::vector<Posted> posted;      ///< source 0's posts, then 1's
    std::vector<Posted> delivered;   ///< in partition 2's run order
    std::uint64_t windows = 0;
};

/**
 * Partitions 0 and 1 each post 200 messages to partition 2: 25 events
 * at the same ticks on both sources, 8 posts each.  Every message
 * lands 0-4 whole windows past the lookahead, so the backlog holds
 * messages for several windows, a channel's messages arrive out of
 * send order, and messages tie on a tick within and across channels.
 */
BacklogRun
backlogRun(unsigned threads)
{
    constexpr unsigned kEvents = 25, kPostsPerEvent = 8;
    sim::PartitionedEngine eng(3, kLook);
    // Each vector is only touched by the partition that fills it.
    std::vector<Posted> posted[2], delivered;
    for (unsigned src = 0; src < 2; ++src) {
        for (unsigned e = 0; e < kEvents; ++e) {
            eng.queue(src).scheduleAt(e * 37, [&, src, e] {
                for (unsigned k = 0; k < kPostsPerEvent; ++k) {
                    const unsigned seq = e * kPostsPerEvent + k;
                    const Tick jitter = (seq * 7 + src * 3) % 5 * kLook;
                    const Posted m{eng.queue(src).now() + kLook + jitter,
                                   src, seq};
                    posted[src].push_back(m);
                    eng.post(src, 2, m.when,
                             [&eng, &delivered, m] {
                                 EXPECT_EQ(eng.queue(2).now(), m.when);
                                 delivered.push_back(m);
                             });
                }
            });
        }
    }
    eng.run(threads);
    BacklogRun out;
    out.posted = posted[0];
    out.posted.insert(out.posted.end(), posted[1].begin(),
                      posted[1].end());
    out.delivered = std::move(delivered);
    out.windows = eng.windows();
    EXPECT_EQ(eng.messagesDelivered(), out.posted.size());
    return out;
}

} // namespace

TEST(PartitionedEngine, BacklogIsDeliveredInWhenSourceSeqOrder)
{
    const BacklogRun serial = backlogRun(1);
    ASSERT_EQ(serial.posted.size(), 400u);

    // The workload really has a backlog, reordering and ties: some
    // same-tick pair has the later send on source 0, some on source 1.
    bool reordered = false, src0Later = false, src1Later = false;
    for (std::size_t i = 1; i < 200; ++i)
        reordered |= serial.posted[i].when < serial.posted[i - 1].when;
    for (std::size_t i = 0; i < 200; ++i) {
        for (std::size_t j = 200; j < 400; ++j) {
            const Posted &a = serial.posted[i], &b = serial.posted[j];
            if (a.when == b.when)
                (a.seq > b.seq ? src0Later : src1Later) = true;
        }
    }
    EXPECT_TRUE(reordered);
    EXPECT_TRUE(src0Later);
    EXPECT_TRUE(src1Later);

    auto expected = serial.posted;
    std::sort(expected.begin(), expected.end());
    EXPECT_GT(expected.back().when - expected.front().when, 4 * kLook);
    EXPECT_EQ(serial.delivered, expected);

    for (unsigned threads : {2u, 4u}) {
        const BacklogRun threaded = backlogRun(threads);
        EXPECT_EQ(threaded.delivered, serial.delivered)
            << threads << " threads";
        EXPECT_EQ(threaded.windows, serial.windows)
            << threads << " threads";
    }
}

TEST(PartitionedEngine, EventsProcessedCountsDeliveredMessages)
{
    sim::PartitionedEngine eng(2, kLook);
    eng.queue(0).schedule(0, [&] {
        eng.post(0, 1, kLook, [] {});
    });
    eng.run(1);
    // The origin event plus the delivered continuation.
    EXPECT_EQ(eng.eventsProcessed(), 2u);
    EXPECT_EQ(eng.messagesDelivered(), 1u);
}

namespace
{

/**
 * Two partitions whose events at tick 10 call sim::fatal when their
 * partition is in @p failing; @return the message run(@p threads)
 * throws, or "" if it returns.
 */
std::string
fatalMessage(unsigned threads, std::vector<unsigned> failing)
{
    sim::PartitionedEngine eng(2, kLook);
    for (unsigned p = 0; p < 2; ++p) {
        bool fails = std::find(failing.begin(), failing.end(), p) !=
                     failing.end();
        eng.queue(p).schedule(10, [p, fails] {
            if (fails)
                sim::fatal("partition %u failed", p);
        });
    }
    try {
        eng.run(threads);
    } catch (const sim::FatalError &e) {
        return e.what();
    }
    return "";
}

} // namespace

TEST(PartitionedEngine, FatalErrorOnAWorkerThreadReachesTheCaller)
{
    // A fatal error inside an event reaches run()'s caller for any
    // worker count, instead of terminating the process from a window
    // thread, and it is the error a serial run raises.
    const std::string serial = fatalMessage(1, {1});
    EXPECT_NE(serial.find("partition 1 failed"), std::string::npos);
    EXPECT_EQ(fatalMessage(2, {1}), serial);

    // Both partitions fail in one window: the serial run stops at
    // partition 0, so the threaded run reports partition 0 too.
    const std::string both = fatalMessage(1, {0, 1});
    EXPECT_NE(both.find("partition 0 failed"), std::string::npos);
    EXPECT_EQ(fatalMessage(2, {0, 1}), both);
}

TEST(PartitionedEngineDeathTest, PostBelowTheLookaheadPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::PartitionedEngine eng(2, kLook);
    eng.queue(0).schedule(10, [&] {
        eng.post(0, 1, eng.queue(0).now() + kLook - 1, [] {});
    });
    EXPECT_DEATH(eng.run(1), "lookahead");
}

TEST(PartitionedEngineDeathTest, PostWithinAPartitionPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::PartitionedEngine eng(2, kLook);
    eng.queue(1).schedule(0, [&] {
        eng.post(1, 1, kLook, [] {});
    });
    EXPECT_DEATH(eng.run(1), "use send");
}

TEST(PartitionedEngineDeathTest, PostToUnknownPartitionPanics)
{
    ::testing::FLAGS_gtest_death_test_style = "threadsafe";
    sim::PartitionedEngine eng(2, kLook);
    eng.queue(0).schedule(0, [&] {
        eng.post(0, 2, kLook, [] {});
    });
    EXPECT_DEATH(eng.run(1), "unknown partition");
}
