/** @file Integration tests for the assembled CellSystem and DMA routing. */

#include <gtest/gtest.h>

#include <set>

#include "cell/cell_system.hh"
#include "stats/metrics.hh"
#include "test_util.hh"

using namespace cellbw;

TEST(CellSystem, BringsUpAllComponents)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, 1);
    EXPECT_EQ(sys.numSpes(), 8u);
    EXPECT_EQ(sys.now(), 0u);
    for (unsigned i = 0; i < 8; ++i) {
        EXPECT_EQ(sys.spe(i).logicalIndex(), i);
        EXPECT_LT(sys.physicalOf(i), 8u);
        EXPECT_TRUE(eib::isSpeRamp(sys.rampOf(i)));
    }
    EXPECT_THROW(sys.spe(8), sim::FatalError);
}

TEST(CellSystem, RandomPlacementIsAPermutationAndSeedDependent)
{
    cell::CellConfig cfg;
    cell::CellSystem a(cfg, 1);
    cell::CellSystem b(cfg, 1);
    cell::CellSystem c(cfg, 99);
    EXPECT_EQ(a.placement(), b.placement());    // same seed
    std::set<std::uint32_t> uniq(a.placement().begin(),
                                 a.placement().end());
    EXPECT_EQ(uniq.size(), 8u);
    // Different seeds almost surely give a different mapping.
    EXPECT_NE(a.placement(), c.placement());
}

TEST(CellSystem, LinearAndPairedPlacements)
{
    cell::CellConfig cfg;
    cfg.affinity = cell::AffinityPolicy::Linear;
    cell::CellSystem lin(cfg, 5);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(lin.physicalOf(i), i);

    cfg.affinity = cell::AffinityPolicy::Paired;
    cell::CellSystem par(cfg, 5);
    // Each logical pair must sit on ring-adjacent ramps.
    for (unsigned p = 0; p < 4; ++p) {
        unsigned r0 = par.rampOf(2 * p);
        unsigned r1 = par.rampOf(2 * p + 1);
        EXPECT_EQ(eib::shortestHops(r0, r1), 1u);
    }
}

TEST(CellSystem, LsEaMappingRoundTrips)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, 1);
    EffAddr ea = sys.lsEa(3, 0x1234);
    EXPECT_TRUE(sys.isLsEa(ea));
    EXPECT_EQ(ea, cell::lsEaBase + 3 * cell::lsEaStride + 0x1234);
    EXPECT_FALSE(sys.isLsEa(sys.malloc(4096)));
    EXPECT_THROW(sys.lsEa(8, 0), sim::FatalError);
}

TEST(CellSystem, MallocReturnsDistinctRegions)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, 1);
    EffAddr a = sys.malloc(1 * util::MiB);
    EffAddr b = sys.malloc(1 * util::MiB);
    EXPECT_GE(b, a + 1 * util::MiB);
}

namespace
{

sim::Task
getProgram(cell::CellSystem &sys, unsigned spe, LsAddr lsa, EffAddr ea,
           std::uint32_t bytes)
{
    auto &s = sys.spe(spe);
    for (std::uint32_t off = 0; off < bytes; off += 16 * 1024) {
        std::uint32_t chunk = std::min<std::uint32_t>(16 * 1024,
                                                      bytes - off);
        co_await s.mfc().queueSpace();
        s.mfc().get(lsa + off, ea + off, chunk, 0);
    }
    co_await s.mfc().tagWait(1u << 0);
}

sim::Task
putProgram(cell::CellSystem &sys, unsigned spe, LsAddr lsa, EffAddr ea,
           std::uint32_t bytes)
{
    auto &s = sys.spe(spe);
    for (std::uint32_t off = 0; off < bytes; off += 16 * 1024) {
        std::uint32_t chunk = std::min<std::uint32_t>(16 * 1024,
                                                      bytes - off);
        co_await s.mfc().queueSpace();
        s.mfc().put(lsa + off, ea + off, chunk, 1);
    }
    co_await s.mfc().tagWait(1u << 1);
}

} // namespace

TEST(CellSystem, GetFromMemoryDeliversData)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, 1);
    const std::uint32_t bytes = 64 * 1024;
    EffAddr src = sys.malloc(bytes);
    for (std::uint32_t i = 0; i < bytes; i += 4096)
        sys.memory().store().fill(src + i, static_cast<std::uint8_t>(i >> 12),
                                  4096);
    sys.launch(getProgram(sys, 0, 0, src, bytes));
    sys.run();
    for (std::uint32_t i = 0; i < bytes; i += 4096)
        EXPECT_EQ(sys.spe(0).ls().byteAt(i), static_cast<std::uint8_t>(i >> 12));
}

TEST(CellSystem, PutToMemoryDeliversData)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, 1);
    const std::uint32_t bytes = 32 * 1024;
    EffAddr dst = sys.malloc(bytes);
    sys.spe(2).ls().fill(0, 0xEE, bytes);
    sys.launch(putProgram(sys, 2, 0, dst, bytes));
    sys.run();
    EXPECT_EQ(sys.memory().store().byteAt(dst), 0xEE);
    EXPECT_EQ(sys.memory().store().byteAt(dst + bytes - 1), 0xEE);
}

TEST(CellSystem, FarBankLinesCrossTheIoif)
{
    // The single-chip blade's second bank sits behind the IOIF.  A GET
    // from a remote page takes longer than from a local one and brings
    // its bytes in on the inbound lane; a PUT to a remote page is
    // serviced by bank 1 and sends its bytes on the outbound lane.
    const std::uint32_t bytes = 16 * 1024;
    auto getTicks = [&](const mem::NumaPolicy &policy, unsigned bank) {
        cell::CellConfig cfg;
        cell::CellSystem sys(cfg, 1);
        EffAddr src = sys.malloc(bytes, policy);
        sys.memory().store().fill(src, 0x3C, bytes);
        sys.launch(getProgram(sys, 0, 0, src, bytes));
        sys.run();
        EXPECT_EQ(sys.spe(0).ls().byteAt(bytes - 1), 0x3C);
        EXPECT_EQ(sys.memory().bank(bank).bytesServiced(), bytes);
        EXPECT_EQ(sys.memory().ioLink().bytesSent(
                      mem::IoLink::Dir::Inbound),
                  bank == 1 ? bytes : 0u);
        return sys.now();
    };
    EXPECT_GT(getTicks(mem::NumaPolicy::remote(), 1),
              getTicks(mem::NumaPolicy::local(), 0));

    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, 1);
    EffAddr dst = sys.malloc(bytes, mem::NumaPolicy::remote());
    sys.spe(0).ls().fill(0, 0xC3, bytes);
    sys.launch(putProgram(sys, 0, 0, dst, bytes));
    sys.run();
    EXPECT_EQ(sys.memory().store().byteAt(dst + bytes - 1), 0xC3);
    EXPECT_EQ(sys.memory().bank(1).bytesServiced(), bytes);
    EXPECT_EQ(sys.memory().bank(0).bytesServiced(), 0u);
    EXPECT_EQ(sys.memory().ioLink().bytesSent(mem::IoLink::Dir::Outbound),
              bytes);
    EXPECT_EQ(sys.memory().ioLink().bytesSent(mem::IoLink::Dir::Inbound),
              0u);
}

TEST(CellSystem, ProfiledSingleChipHasNoWindowRows)
{
    // One chip is one partition: a far-bank line's link crossing is an
    // event on it, booked as iolink, and the profile has no window or
    // delivery rows, as the engine opens no window and posts nothing.
    cell::CellConfig cfg;
    cfg.simProfile = true;
    cell::CellSystem sys(cfg, 1);
    const std::uint32_t bytes = 16 * 1024;
    EffAddr src = sys.malloc(bytes, mem::NumaPolicy::remote());
    sys.launch(getProgram(sys, 0, 0, src, bytes));
    sys.run();
    EXPECT_EQ(sys.engine().partitions(), 1u);
    EXPECT_EQ(sys.engine().windows(), 0u);
    EXPECT_EQ(sys.engine().messagesDelivered(), 0u);
    stats::MetricsRegistry reg;
    sys.snapshotMetrics(reg);
    const auto *iolink = reg.findCounter("profile.iolink.events");
    ASSERT_NE(iolink, nullptr);
    EXPECT_EQ(iolink->value(), bytes / spe::lineBytes);
    EXPECT_EQ(reg.findCounter("profile.engine.windows"), nullptr);
    EXPECT_EQ(reg.findCounter("profile.crossings.delivered"), nullptr);
}

TEST(CellSystem, CheckedModeBooksItsVerdict)
{
    // A GET and a PUT of 32 KiB each, two 16 KiB commands apiece: the
    // checked-mode verdict reaches the metrics as verify.* counters.
    const std::uint32_t bytes = 32 * 1024;
    auto run = [&](const cell::CellConfig &cfg,
                   stats::MetricsRegistry &reg) {
        cell::CellSystem sys(cfg, 1);
        EffAddr src = sys.malloc(bytes);
        EffAddr dst = sys.malloc(bytes);
        sys.memory().store().fill(src, 0x5A, bytes);
        sys.spe(1).ls().fill(0, 0xA5, bytes);
        sys.launch(getProgram(sys, 0, 0, src, bytes));
        sys.launch(putProgram(sys, 1, 0, dst, bytes));
        sys.run();
        sys.snapshotMetrics(reg);
        return sys.verifyStats();
    };
    auto counter = [](const stats::MetricsRegistry &reg, const char *name) {
        const auto *c = reg.findCounter(name);
        EXPECT_NE(c, nullptr) << name;
        return c ? c->value() : ~0ull;
    };

    cell::CellConfig cfg;
    cfg.verify = true;
    stats::MetricsRegistry reg;
    const auto v = run(cfg, reg);
    EXPECT_EQ(v.transfersChecked, 4u);
    EXPECT_EQ(counter(reg, "verify.transfers_checked"), v.transfersChecked);
    EXPECT_EQ(counter(reg, "verify.bytes_checked"), 2u * bytes);
    EXPECT_EQ(counter(reg, "verify.divergences"), 0u);
    EXPECT_EQ(counter(reg, "verify.faulted_skipped"), 0u);

    // Corrupted commands are expected to diverge: skipped, not counted.
    cfg.spe.mfc.faults.corruptRate = 0.5;
    stats::MetricsRegistry faulted;
    run(cfg, faulted);
    EXPECT_GT(counter(faulted, "verify.faulted_skipped"), 0u);
    EXPECT_EQ(counter(faulted, "verify.divergences"), 0u);

    // Without --verify the report carries no verdict.
    cfg = cell::CellConfig{};
    stats::MetricsRegistry unchecked;
    run(cfg, unchecked);
    for (const auto &name : unchecked.names())
        EXPECT_NE(name.rfind("verify.", 0), 0u) << name;
    EXPECT_GT(unchecked.size(), 0u);
}

TEST(CellSystem, SpeToSpeGetAndPut)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, 7);
    const std::uint32_t bytes = 16 * 1024;
    // SPE1's LS holds a pattern; SPE0 GETs it.
    sys.spe(1).ls().fill(0x8000, 0x3C, bytes);
    sys.launch(getProgram(sys, 0, 0, sys.lsEa(1, 0x8000), bytes));
    sys.run();
    EXPECT_EQ(sys.spe(0).ls().byteAt(0), 0x3C);
    EXPECT_EQ(sys.spe(0).ls().byteAt(bytes - 1), 0x3C);

    // SPE0 PUTs its own pattern into SPE1.
    sys.spe(0).ls().fill(0x20000, 0x99, bytes);
    sys.launch(putProgram(sys, 0, 0x20000, sys.lsEa(1, 0x30000), bytes));
    sys.run();
    EXPECT_EQ(sys.spe(1).ls().byteAt(0x30000), 0x99);
    EXPECT_EQ(sys.spe(1).ls().byteAt(0x30000 + bytes - 1), 0x99);
}

TEST(CellSystem, DmaToOwnLsApertureIsFatal)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, 1);
    sys.launch(getProgram(sys, 0, 0, sys.lsEa(0, 0x8000), 128));
    EXPECT_THROW(sys.run(), sim::FatalError);
}

TEST(CellSystem, DeadlockedProgramIsReported)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, 1);
    auto stuck = [](cell::CellSystem &s) -> sim::Task {
        // Nobody ever writes this mailbox.
        co_await s.spe(0).inboundMailbox().read();
    };
    sys.launch(stuck(sys));
    EXPECT_THROW(sys.run(), sim::FatalError);
}

TEST(CellSystem, ProgramExceptionsPropagateFromRun)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, 1);
    auto bad = [](cell::CellSystem &s) -> sim::Task {
        co_await sim::Delay{s.eventQueue(), 5};
        // An out-of-range tag raises FatalError inside the coroutine
        // (a validation failure would merely latch a fault record).
        s.spe(0).mfc().get(0, 0x10000, 128, 99);
    };
    sys.launch(bad(sys));
    EXPECT_THROW(sys.run(), sim::FatalError);
}

TEST(CellSystem, ReducedSpeCountWorks)
{
    cell::CellConfig cfg;
    cfg.numSpes = 2;
    cell::CellSystem sys(cfg, 1);
    EXPECT_EQ(sys.numSpes(), 2u);
    EXPECT_THROW(sys.spe(2), sim::FatalError);
    EXPECT_THROW(sys.lsEa(2, 0), sim::FatalError);
}

TEST(CellSystem, SimulatedTimeAdvancesWithTransfers)
{
    cell::CellConfig cfg;
    cell::CellSystem sys(cfg, 1);
    EffAddr src = sys.malloc(64 * 1024);
    sys.launch(getProgram(sys, 0, 0, src, 64 * 1024));
    sys.run();
    // 64 KiB at ~10 GB/s is ~6.5 us.
    EXPECT_GT(sys.seconds(), 3e-6);
    EXPECT_LT(sys.seconds(), 3e-5);
}
