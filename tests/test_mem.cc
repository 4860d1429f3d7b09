/** @file Unit tests for the memory subsystem. */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "mem/backing_store.hh"
#include "mem/dram_bank.hh"
#include "mem/io_link.hh"
#include "mem/memory_system.hh"
#include "mem/page_allocator.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"

using namespace cellbw;

/* ------------------------------------------------------------------ */
/*  BackingStore                                                        */
/* ------------------------------------------------------------------ */

TEST(BackingStore, RoundTripsWithinOnePage)
{
    mem::BackingStore bs;
    const char msg[] = "hello cell";
    bs.write(0x1000, msg, sizeof(msg));
    char out[sizeof(msg)] = {};
    bs.read(0x1000, out, sizeof(msg));
    EXPECT_STREQ(out, msg);
}

TEST(BackingStore, RoundTripsAcrossPageBoundary)
{
    mem::BackingStore bs(4096);
    std::vector<std::uint8_t> in(10000);
    for (size_t i = 0; i < in.size(); ++i)
        in[i] = static_cast<std::uint8_t>(i * 13);
    bs.write(4000, in.data(), in.size());
    std::vector<std::uint8_t> out(in.size());
    bs.read(4000, out.data(), out.size());
    EXPECT_EQ(in, out);
    EXPECT_GE(bs.touchedPages(), 3u);
}

TEST(BackingStore, UntouchedReadsAsZero)
{
    mem::BackingStore bs;
    EXPECT_EQ(bs.byteAt(0xdeadbeef), 0);
    std::uint8_t buf[4] = {9, 9, 9, 9};
    bs.read(0x50000000, buf, 4);
    for (auto b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(bs.touchedPages(), 0u);
}

TEST(BackingStore, FillAndClear)
{
    mem::BackingStore bs;
    bs.fill(100, 0xAB, 300);
    EXPECT_EQ(bs.byteAt(100), 0xAB);
    EXPECT_EQ(bs.byteAt(399), 0xAB);
    EXPECT_EQ(bs.byteAt(400), 0x00);
    bs.clear();
    EXPECT_EQ(bs.byteAt(100), 0x00);
}

TEST(BackingStore, NonPow2PageSizeIsFatal)
{
    EXPECT_THROW(mem::BackingStore(1000), sim::FatalError);
}

TEST(BackingStore, ScatteredSmallWritesAllocateFewPages)
{
    // The GUPS pattern: 4096 random 8 B updates over an 8 MiB table.
    // With 64 KiB pages every page of the table gets touched (8 MiB);
    // the store's own small page holds them in well under half that.
    mem::BackingStore bs;
    const std::uint64_t table = 8 * util::MiB;
    sim::Rng rng(42);
    for (unsigned i = 0; i < 4096; ++i) {
        const std::uint64_t v = i;
        bs.write(rng.uniformInt(0, table / 8 - 1) * 8, &v, sizeof(v));
    }
    EXPECT_LE(bs.touchedPages() * bs.pageBytes(), 4 * util::MiB);
    EXPECT_GT(bs.touchedPages(), 0u);
}

TEST(BackingStore, ZerosIntoUnwrittenPagesAllocateNothing)
{
    mem::BackingStore bs;
    const std::vector<std::uint8_t> zeros(3000, 0);
    bs.write(0x4000, zeros.data(), zeros.size());
    bs.fill(0x9000, 0, 5000);
    EXPECT_EQ(bs.touchedPages(), 0u);
    // Over a page that exists, zeros are data like any other byte.
    const std::uint8_t ones[16] = {1, 1, 1, 1, 1, 1, 1, 1,
                                   1, 1, 1, 1, 1, 1, 1, 1};
    bs.write(0x4000, ones, sizeof(ones));
    bs.write(0x4000, zeros.data(), 8);
    bs.fill(0x4008, 0, 4);
    EXPECT_EQ(bs.touchedPages(), 1u);
    std::uint8_t out[16];
    bs.read(0x4000, out, sizeof(out));
    for (unsigned i = 0; i < 16; ++i)
        EXPECT_EQ(out[i], i < 12 ? 0 : 1) << i;
}

TEST(BackingStore, ReadPastEveryWrittenPageAllocatesNothing)
{
    mem::BackingStore bs;
    const std::uint8_t one = 1;
    bs.write(0x2000, &one, 1);
    ASSERT_EQ(bs.touchedPages(), 1u);
    std::uint8_t buf[256];
    bs.read(64 * util::MiB, buf, sizeof(buf));
    bs.read(0x2000 + bs.pageBytes(), buf, sizeof(buf));
    EXPECT_EQ(bs.byteAt(1ull << 39), 0);
    for (auto b : buf)
        EXPECT_EQ(b, 0);
    EXPECT_EQ(bs.touchedPages(), 1u);
    EXPECT_EQ(bs.byteAt(0x2000), 1);
}

/* ------------------------------------------------------------------ */
/*  DramBank                                                            */
/* ------------------------------------------------------------------ */

namespace
{

mem::DramBankParams
fastBank()
{
    mem::DramBankParams p;
    p.bytesPerTick = 8.0;       // 128 B line = 16 ticks of pin time
    p.accessLatency = 100;
    p.refreshInterval = 0;      // off unless a test enables it
    return p;
}

} // namespace

TEST(DramBank, ReadCompletesAfterServicePlusLatency)
{
    sim::EventQueue eq;
    mem::DramBank bank("b", eq, fastBank());
    Tick done = 0;
    bank.access(128, false, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, 116u);      // 16 service + 100 latency
    EXPECT_EQ(bank.bytesServiced(), 128u);
}

TEST(DramBank, BackToBackRequestsSerializeOnThePins)
{
    sim::EventQueue eq;
    mem::DramBank bank("b", eq, fastBank());
    Tick first = 0, second = 0;
    bank.access(128, false, [&] { first = eq.now(); });
    bank.access(128, false, [&] { second = eq.now(); });
    eq.run();
    EXPECT_EQ(first, 116u);
    EXPECT_EQ(second, 132u);    // 16 ticks later: pin-serialized
}

TEST(DramBank, WriteAlsoPaysAckLatency)
{
    sim::EventQueue eq;
    mem::DramBank bank("b", eq, fastBank());
    Tick done = 0;
    bank.access(128, true, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, 116u);
}

TEST(DramBank, RefreshWindowDelaysService)
{
    sim::EventQueue eq;
    auto p = fastBank();
    p.refreshInterval = 1000;
    p.refreshDuration = 50;
    mem::DramBank bank("b", eq, p);
    // At t=0 the bank is refreshing (interval boundary).
    Tick done = 0;
    bank.access(128, false, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, 50u + 16u + 100u);
    EXPECT_GE(bank.refreshStalls(), 1u);
}

TEST(DramBank, ServiceSpanningRefreshIsSplit)
{
    sim::EventQueue eq;
    auto p = fastBank();
    p.refreshInterval = 100;
    p.refreshDuration = 10;
    mem::DramBank bank("b", eq, p);
    // Occupy past the first boundary: 1024 B = 128 ticks of pin time,
    // starting at 10 (after the t=0 refresh), must skip the t=100
    // refresh window (and reach into the t=200 one).
    Tick done = 0;
    bank.access(1024, true, [&] { done = eq.now(); });
    eq.run();
    // Pin time: 10..100 (90), refresh to 110, 110..148 (38 remaining).
    EXPECT_EQ(done, 148u + p.accessLatency);
}

TEST(DramBank, SustainedRateMatchesConfig)
{
    sim::EventQueue eq;
    mem::DramBank bank("b", eq, fastBank());
    Tick done = 0;
    const int lines = 1000;
    for (int i = 0; i < lines; ++i)
        bank.access(128, false, [&] { done = eq.now(); });
    eq.run();
    // 1000 lines at 16 ticks each + one access latency at the end.
    EXPECT_EQ(done, 1000u * 16u + 100u);
}

TEST(DramBank, RowSpanningAccessCountsEachRowTouched)
{
    sim::EventQueue eq;
    mem::DramBank bank("b", eq, fastBank());    // rowBytes = 2048
    // First access ever: row 0 must be activated.
    bank.access(0, 128, false, [] {});
    EXPECT_EQ(bank.rowHits(), 0u);
    EXPECT_EQ(bank.rowConflicts(), 1u);
    // 128 B straddling rows 0 and 1: the starting row is still open
    // (hit), the crossing into row 1 is a fresh activate (conflict).
    bank.access(2048 - 64, 128, false, [] {});
    EXPECT_EQ(bank.rowHits(), 1u);
    EXPECT_EQ(bank.rowConflicts(), 2u);
    // The spanning access left its *last* row open, not its first.
    bank.access(2048, 64, false, [] {});
    EXPECT_EQ(bank.rowHits(), 2u);
    EXPECT_EQ(bank.rowConflicts(), 2u);
    eq.run();
}

TEST(DramBank, RefreshWindowsCountExactlyOnce)
{
    sim::EventQueue eq;
    auto p = fastBank();
    p.refreshInterval = 100;
    p.refreshDuration = 10;
    mem::DramBank bank("b", eq, p);
    // 1024 B = 128 ticks of pin time starting inside the t=0 window:
    // one stall for the start push-back (to t=10), one for the split
    // across the t=100 window — exactly two, nothing double-counted.
    Tick first = 0;
    bank.access(1024, true, [&] { first = eq.now(); });
    eq.run();
    EXPECT_EQ(first, 148u + p.accessLatency);
    EXPECT_EQ(bank.refreshStalls(), 2u);
    // A follow-up access starting clear of any window adds no stall.
    // It is issued at t=248 (the first completion), pins 248..264, and
    // the next window at t=300 never touches it.
    Tick second = 0;
    bank.access(128, true, [&] { second = eq.now(); });
    eq.run();
    EXPECT_EQ(second, 264u + p.accessLatency);
    EXPECT_EQ(bank.refreshStalls(), 2u);
}

TEST(DramBank, ZeroDurationRefreshNeverStalls)
{
    sim::EventQueue eq;
    auto p = fastBank();
    p.refreshInterval = 100;
    p.refreshDuration = 0;      // zero-length windows delay nothing
    mem::DramBank bank("b", eq, p);
    Tick done = 0;
    bank.access(1024, false, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, 128u + p.accessLatency);
    EXPECT_EQ(bank.refreshStalls(), 0u);
}

TEST(DramBank, RowTimingOffKeepsConflictHeavyAndSequentialIdentical)
{
    sim::EventQueue eq;
    mem::DramBank thrash("t", eq, fastBank());
    mem::DramBank stream("s", eq, fastBank());
    Tick thrash_done = 0, stream_done = 0;
    for (int i = 0; i < 8; ++i) {
        // Alternating rows vs one hot row: same completion times while
        // the counters are observational.
        thrash.access(i % 2 ? 4096 : 0, 128, false,
                      [&] { thrash_done = eq.now(); });
        stream.access(static_cast<EffAddr>(i) * 128, 128, false,
                      [&] { stream_done = eq.now(); });
    }
    eq.run();
    EXPECT_EQ(thrash_done, stream_done);
    EXPECT_GT(thrash.rowConflicts(), stream.rowConflicts());
}

TEST(DramBank, RowTimingChargesActivatesAndCasOnlyHits)
{
    sim::EventQueue eq;
    auto p = fastBank();
    p.rowTiming = true;
    p.rowHitLatency = 20;
    p.rowMissPenalty = 30;
    mem::DramBank bank("b", eq, p);
    Tick a = 0, b = 0, c = 0;
    // Miss: activate (30) + 16 service, completes +20 CAS.
    bank.access(0, 128, false, [&] { a = eq.now(); });
    // Hit on the open row: 16 service only.
    bank.access(128, 128, false, [&] { b = eq.now(); });
    // Miss on another row: activate again.
    bank.access(4096, 128, false, [&] { c = eq.now(); });
    eq.run();
    EXPECT_EQ(a, 46u + 20u);
    EXPECT_EQ(b, 46u + 16u + 20u);
    EXPECT_EQ(c, 46u + 16u + 46u + 20u);
    EXPECT_EQ(bank.rowHits(), 1u);
    EXPECT_EQ(bank.rowConflicts(), 2u);
}

TEST(DramBank, RowTimingSpanningAccessPaysEveryActivate)
{
    sim::EventQueue eq;
    auto p = fastBank();
    p.rowTiming = true;
    p.rowHitLatency = 20;
    p.rowMissPenalty = 30;
    mem::DramBank bank("b", eq, p);
    // Fresh bank, 128 B spanning rows 0 and 1: two activates.
    Tick done = 0;
    bank.access(2048 - 64, 128, false, [&] { done = eq.now(); });
    eq.run();
    EXPECT_EQ(done, 16u + 2u * 30u + 20u);
}

TEST(DramBank, InvalidParamsAreFatal)
{
    sim::EventQueue eq;
    auto p = fastBank();
    p.bytesPerTick = 0.0;
    EXPECT_THROW(mem::DramBank("b", eq, p), sim::FatalError);
    p = fastBank();
    p.refreshInterval = 10;
    p.refreshDuration = 10;
    EXPECT_THROW(mem::DramBank("b", eq, p), sim::FatalError);
}

/* ------------------------------------------------------------------ */
/*  IoLink                                                              */
/* ------------------------------------------------------------------ */

namespace
{

mem::IoLinkParams
linkParams()
{
    mem::IoLinkParams p;
    p.bytesPerTick = 4.0;
    p.crossingLatency = 10;
    return p;
}

} // namespace

TEST(IoLink, DirectionsAreIndependent)
{
    // Both ends on one partition, as the single-chip blade's IOIF.
    sim::PartitionedEngine eng(1, 0);
    sim::EventQueue &eq = eng.queue(0);
    mem::IoLink link("io", eng, 0, 0, linkParams());
    Tick out_done = 0, in_done = 0;
    link.send(mem::IoLink::Dir::Outbound, 128, [&] { out_done = eq.now(); });
    link.send(mem::IoLink::Dir::Inbound, 128, [&] { in_done = eq.now(); });
    eng.run(1);
    EXPECT_EQ(out_done, 42u);   // 32 serialize + 10 crossing
    EXPECT_EQ(in_done, 42u);    // not serialized behind outbound
    EXPECT_EQ(link.bytesSent(mem::IoLink::Dir::Outbound), 128u);
    EXPECT_EQ(eng.messagesDelivered(), 0u);
}

TEST(IoLink, SameDirectionSerializes)
{
    sim::PartitionedEngine eng(1, 0);
    sim::EventQueue &eq = eng.queue(0);
    mem::IoLink link("io", eng, 0, 0, linkParams());
    Tick a = 0, b = 0;
    link.send(mem::IoLink::Dir::Inbound, 128, [&] { a = eq.now(); });
    link.send(mem::IoLink::Dir::Inbound, 128, [&] { b = eq.now(); });
    eng.run(1);
    EXPECT_EQ(a, 42u);
    EXPECT_EQ(b, 74u);
}

TEST(IoLink, CrossingCompletesOnTheReceivingPartition)
{
    // Partition 1's clock stops at 69 after a first window; partition 0
    // sends at tick 100 of the next.  The Outbound lane starts from its
    // sender's clock (a lane reading partition 1's would land at 111),
    // and the tail arrives as a post on partition 1's queue.
    sim::PartitionedEngine eng(2, 10);
    mem::IoLink link("io", eng, 0, 1, linkParams());
    Tick done = 0;
    eng.queue(1).scheduleAt(60, [] {});
    eng.queue(0).scheduleAt(100, [&] {
        link.send(mem::IoLink::Dir::Outbound, 128,
                  [&] { done = eng.queue(1).now(); });
    });
    eng.run(1);
    EXPECT_EQ(done, 142u);      // 100 + 32 serialize + 10 crossing
    EXPECT_EQ(eng.messagesDelivered(), 1u);
    EXPECT_EQ(eng.queue(0).eventsProcessed(), 1u);
    EXPECT_EQ(eng.queue(1).eventsProcessed(), 2u);
    EXPECT_EQ(link.bytesSent(mem::IoLink::Dir::Outbound), 128u);
}

/* ------------------------------------------------------------------ */
/*  PageAllocator                                                       */
/* ------------------------------------------------------------------ */

TEST(PageAllocator, NeverHandsOutAddressZero)
{
    mem::PageAllocator pa(65536, 2);
    EffAddr ea = pa.alloc(100, mem::NumaPolicy::local());
    EXPECT_GE(ea, 65536u);
}

TEST(PageAllocator, LocalAndRemotePolicies)
{
    mem::PageAllocator pa(65536, 2);
    EffAddr local = pa.alloc(200000, mem::NumaPolicy::local());
    EffAddr remote = pa.alloc(200000, mem::NumaPolicy::remote());
    for (EffAddr off = 0; off < 200000; off += 65536) {
        EXPECT_EQ(pa.bankOf(local + off), 0u);
        EXPECT_EQ(pa.bankOf(remote + off), 1u);
    }
}

TEST(PageAllocator, InterleaveShareIsAccurate)
{
    mem::PageAllocator pa(65536, 2);
    const std::uint64_t pages = 1000;
    EffAddr ea = pa.alloc(pages * 65536, mem::NumaPolicy::interleave(0.65));
    unsigned bank0 = 0;
    for (std::uint64_t p = 0; p < pages; ++p)
        if (pa.bankOf(ea + p * 65536) == 0)
            ++bank0;
    EXPECT_NEAR(bank0, 650u, 1u);
}

TEST(PageAllocator, InterleaveIsBalancedOnEveryPrefix)
{
    mem::PageAllocator pa(65536, 2);
    EffAddr ea = pa.alloc(100 * 65536, mem::NumaPolicy::interleave(0.5));
    int balance = 0;
    for (std::uint64_t p = 0; p < 100; ++p) {
        balance += pa.bankOf(ea + p * 65536) == 0 ? 1 : -1;
        EXPECT_LE(std::abs(balance), 2);
    }
}

TEST(PageAllocator, UnallocatedAccessIsFatal)
{
    mem::PageAllocator pa(65536, 2);
    EXPECT_THROW(pa.bankOf(1ull << 30), sim::FatalError);
}

TEST(PageAllocator, ZeroByteAllocIsFatal)
{
    mem::PageAllocator pa(65536, 2);
    EXPECT_THROW(pa.alloc(0, mem::NumaPolicy::local()), sim::FatalError);
}

TEST(PageAllocator, ResetReclaimsEverything)
{
    mem::PageAllocator pa(65536, 2);
    pa.alloc(10 * 65536, mem::NumaPolicy::local());
    EXPECT_EQ(pa.bytesAllocated(), 10 * 65536u);
    pa.reset();
    EXPECT_EQ(pa.bytesAllocated(), 0u);
}

TEST(PageAllocator, SingleBankInterleaveFallsBackToBank0)
{
    mem::PageAllocator pa(65536, 1);
    EffAddr ea = pa.alloc(5 * 65536, mem::NumaPolicy::interleave(0.3));
    for (int p = 0; p < 5; ++p)
        EXPECT_EQ(pa.bankOf(ea + static_cast<EffAddr>(p) * 65536), 0u);
}

/* ------------------------------------------------------------------ */
/*  MemorySystem                                                        */
/* ------------------------------------------------------------------ */

TEST(MemorySystem, BadBankIndexIsFatal)
{
    sim::PartitionedEngine eng(1, 0);
    mem::MemorySystemParams p;
    mem::MemorySystem ms("m", eng, p);
    EXPECT_THROW(ms.bank(2), sim::FatalError);
}

TEST(MemorySystem, BanksRunOnTheirChipsPartitions)
{
    // One chip: the far bank has no chip and runs on partition 0.
    sim::PartitionedEngine one(1, 0);
    mem::MemorySystem blade("m", one, mem::MemorySystemParams{});
    EXPECT_EQ(&blade.bank(0).eventQueue(), &one.queue(0));
    EXPECT_EQ(&blade.bank(1).eventQueue(), &one.queue(0));

    mem::MemorySystemParams p;
    p.numChips = 2;
    sim::PartitionedEngine two(2, 10);
    mem::MemorySystem ms("m", two, p);
    EXPECT_EQ(&ms.bank(0).eventQueue(), &two.queue(0));
    EXPECT_EQ(&ms.bank(1).eventQueue(), &two.queue(1));
}
