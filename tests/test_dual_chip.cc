/** @file Tests for the two-chip blade extension: cross-chip SPE pairs
 *        go through the 7 GB/s IOIF, the paper's closing warning. */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/experiments.hh"
#include "core/halo.hh"
#include "stats/metrics.hh"
#include "test_util.hh"

using namespace cellbw;

namespace
{

cell::CellConfig
twoChips(cell::AffinityPolicy aff = cell::AffinityPolicy::Linear)
{
    cell::CellConfig cfg;
    cfg.numChips = 2;
    cfg.affinity = aff;
    return cfg;
}

/** A pair transfer between logical SPE 0 and 1 at 4 KiB elements. */
double
pairBandwidth(cell::CellSystem &sys)
{
    core::SpeSpeConfig sc;
    sc.numSpes = 2;
    sc.elemBytes = 4096;
    sc.bytesPerStream = 1 * util::MiB;
    return core::runSpeSpe(sys, sc);
}

} // namespace

TEST(DualChip, SixteenSpesComeUp)
{
    auto cfg = twoChips();
    cfg.numSpes = 16;
    cell::CellSystem sys(cfg, 1);
    EXPECT_EQ(sys.numSpes(), 16u);
    EXPECT_EQ(sys.numChips(), 2u);
    for (unsigned i = 0; i < 8; ++i)
        EXPECT_EQ(sys.chipOf(i), 0u);
    for (unsigned i = 8; i < 16; ++i)
        EXPECT_EQ(sys.chipOf(i), 1u);
    EXPECT_THROW(sys.eib(2), sim::FatalError);
}

TEST(DualChip, SingleChipRejectsMoreThanEightSpes)
{
    cell::CellConfig cfg;
    cfg.numSpes = 9;
    EXPECT_THROW(cell::CellSystem(cfg, 1), sim::FatalError);
}

namespace
{

/** One lane of the link between chips lo < hi. */
struct Lane
{
    unsigned lo;
    unsigned hi;
    mem::IoLink::Dir dir;
};

/**
 * A line's trip across chips: an SPE on chip @p from DMAs with the LS
 * of an SPE, or the XDR bank, on chip @p to.  @p lanes lists the lanes
 * its data crosses, in route order.
 */
struct Crossing
{
    const char *name;
    bool toLs;
    bool isGet;
    unsigned chips;
    unsigned from;
    unsigned to;
    std::vector<Lane> lanes;
};

/** gtest prints a failing case by its name. */
void
PrintTo(const Crossing &c, std::ostream *os)
{
    *os << c.name;
}

constexpr auto kOut = mem::IoLink::Dir::Outbound;
constexpr auto kIn = mem::IoLink::Dir::Inbound;

/** Data from chip 1 to chip 0, or back. */
const std::vector<Lane> kTwoChipIn = {{0, 1, kIn}};
const std::vector<Lane> kTwoChipOut = {{0, 1, kOut}};
/** Four chips on two blades (gateways 0 and 2): chip 3 to chip 1
 *  takes IOIF 2-3, the blade link 0-2 and IOIF 0-1, and back. */
const std::vector<Lane> kThreeHopsIn = {{2, 3, kIn}, {0, 2, kIn},
                                        {0, 1, kOut}};
const std::vector<Lane> kThreeHopsOut = {{0, 1, kIn}, {0, 2, kOut},
                                         {2, 3, kOut}};

struct CrossingRun
{
    Tick now = 0;
    bool landed = false;
    cell::CellSystem::VerifyStats verify;
    /** Bytes on each lane of the route, in route order. */
    std::vector<std::uint64_t> routeBytes;
    /** Bytes on every lane of every link. */
    std::uint64_t allBytes = 0;
    /** Bytes each chip's EIB moved. */
    std::vector<std::uint64_t> eibBytes;
};

constexpr std::uint32_t kCrossBytes = 16 * 1024;

CrossingRun
runCrossing(const Crossing &c, bool verify, unsigned simJobs)
{
    cell::CellConfig cfg;
    cfg.numChips = c.chips;
    cfg.numSpes = 8 * c.chips;
    cfg.affinity = cell::AffinityPolicy::Linear;  // logical i on chip i/8
    cfg.verify = verify;
    cfg.simJobs = simJobs;
    cell::CellSystem sys(cfg, 1);
    const unsigned issuer = 8 * c.from;
    const unsigned peer = 8 * c.to;

    std::vector<std::uint8_t> data(kCrossBytes);
    for (std::size_t i = 0; i < data.size(); ++i)
        data[i] = static_cast<std::uint8_t>(i * 7 + 3);
    EffAddr ea = c.toLs ? sys.lsEa(peer, 0)
                        : sys.malloc(kCrossBytes,
                                     mem::NumaPolicy::onBank(c.to));
    // The source holds the pattern: the peer LS or bank for a GET, the
    // issuer's LS for a PUT.
    if (!c.isGet)
        sys.spe(issuer).ls().write(0, data.data(), kCrossBytes);
    else if (c.toLs)
        sys.spe(peer).ls().write(0, data.data(), kCrossBytes);
    else
        sys.memory().store().write(ea, data.data(), kCrossBytes);

    auto prog = [&]() -> sim::Task {
        auto &mfc = sys.spe(issuer).mfc();
        if (c.isGet)
            mfc.get(0, ea, kCrossBytes, 0);
        else
            mfc.put(0, ea, kCrossBytes, 0);
        co_await mfc.tagWait(1u << 0);
    };
    sys.launch(prog());
    sys.run();

    std::vector<std::uint8_t> got(kCrossBytes);
    if (c.isGet)
        sys.spe(issuer).ls().read(0, got.data(), kCrossBytes);
    else if (c.toLs)
        sys.spe(peer).ls().read(0, got.data(), kCrossBytes);
    else
        sys.memory().store().read(ea, got.data(), kCrossBytes);

    CrossingRun r;
    r.now = sys.now();
    r.landed = got == data;
    r.verify = sys.verifyStats();
    auto &links = sys.memory().links();
    for (const Lane &lane : c.lanes)
        r.routeBytes.push_back(
            links.linkBetween(lane.lo, lane.hi)->bytesSent(lane.dir));
    for (std::size_t l = 0; l < links.numLinks(); ++l)
        r.allBytes += links.link(l).bytesSent(kOut) +
                      links.link(l).bytesSent(kIn);
    for (unsigned chip = 0; chip < c.chips; ++chip)
        r.eibBytes.push_back(sys.eib(chip).bytesMoved());
    return r;
}

class CrossChipDma : public ::testing::TestWithParam<Crossing>
{};

} // namespace

TEST_P(CrossChipDma, DeliversDataOnItsRoute)
{
    const Crossing &c = GetParam();
    const CrossingRun checked = runCrossing(c, true, 1);
    EXPECT_TRUE(checked.landed);
    EXPECT_EQ(checked.verify.transfersChecked, 1u);
    EXPECT_EQ(checked.verify.divergences, 0u)
        << checked.verify.firstDivergence;

    // The data serializes once on every lane of its route and nowhere
    // else: commands and acknowledgments cross as latency only.
    const std::vector<std::uint64_t> route(c.lanes.size(), kCrossBytes);
    EXPECT_EQ(checked.routeBytes, route);
    EXPECT_EQ(checked.allBytes, kCrossBytes * c.lanes.size());
    // It rides the EIB of the chips at both ends, and no other.
    std::vector<std::uint64_t> eibs(c.chips, 0);
    eibs[c.from] = eibs[c.to] = kCrossBytes;
    EXPECT_EQ(checked.eibBytes, eibs);

    // Checked mode runs the windows on one thread; unchecked runs at
    // one and two worker threads must land the same data at the same
    // tick.
    for (unsigned jobs : {1u, 2u}) {
        const CrossingRun r = runCrossing(c, false, jobs);
        EXPECT_TRUE(r.landed) << "sim-jobs " << jobs;
        EXPECT_EQ(r.now, checked.now) << "sim-jobs " << jobs;
        EXPECT_EQ(r.routeBytes, route) << "sim-jobs " << jobs;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Routes, CrossChipDma,
    ::testing::Values(
        Crossing{"LsGetTwoChips", true, true, 2, 0, 1, kTwoChipIn},
        Crossing{"LsPutTwoChips", true, false, 2, 0, 1, kTwoChipOut},
        Crossing{"MemGetTwoChips", false, true, 2, 0, 1, kTwoChipIn},
        Crossing{"MemPutTwoChips", false, false, 2, 0, 1, kTwoChipOut},
        Crossing{"LsGetThreeHops", true, true, 4, 1, 3, kThreeHopsIn},
        Crossing{"LsPutThreeHops", true, false, 4, 1, 3, kThreeHopsOut},
        Crossing{"MemGetThreeHops", false, true, 4, 1, 3, kThreeHopsIn},
        Crossing{"MemPutThreeHops", false, false, 4, 1, 3,
                 kThreeHopsOut}),
    [](const ::testing::TestParamInfo<Crossing> &info) {
        return std::string(info.param.name);
    });

TEST(DualChip, FarChipFatalErrorReachesRun)
{
    // SPE 0 GETs two lines from the end of chip 1's LS; the second
    // reads past it on chip 1's partition.  Every --sim-jobs value
    // raises the same catchable error from run().
    auto message = [](unsigned simJobs) {
        auto cfg = twoChips();
        cfg.numSpes = 16;
        cfg.simJobs = simJobs;
        cell::CellSystem sys(cfg, 1);
        auto prog = [&]() -> sim::Task {
            auto &mfc = sys.spe(0).mfc();
            mfc.get(0, sys.lsEa(8, 256 * util::KiB - 128), 256, 0);
            co_await mfc.tagWait(1u << 0);
        };
        sys.launch(prog());
        try {
            sys.run();
        } catch (const sim::FatalError &e) {
            return std::string(e.what());
        }
        return std::string();
    };
    const std::string serial = message(1);
    EXPECT_NE(serial.find("out of the 262144-byte store"),
              std::string::npos) << serial;
    EXPECT_EQ(message(2), serial);
}

TEST(DualChip, CrossChipPairIsIoifLimited)
{
    // Same-chip pair: linear placement puts logical 0,1 on chip 0.
    auto cfg_same = twoChips();
    cfg_same.numSpes = 16;
    cell::CellSystem same(cfg_same, 1);
    ASSERT_EQ(same.chipOf(0), same.chipOf(1));
    double bw_same = pairBandwidth(same);

    // Cross-chip pair: put logical 1 on chip 1 by using 2 SPEs with a
    // handcrafted system: logical 0 -> phys 0 (chip 0), logical 1 ->
    // phys 8 (chip 1).  Random placements with seed search.
    double bw_cross = 0.0;
    for (std::uint64_t seed = 1; seed < 64; ++seed) {
        auto cfg = twoChips(cell::AffinityPolicy::Random);
        cfg.numSpes = 2;
        cell::CellSystem sys(cfg, seed);
        if (sys.chipOf(0) == sys.chipOf(1))
            continue;
        bw_cross = pairBandwidth(sys);
        break;
    }
    ASSERT_GT(bw_cross, 0.0) << "no cross-chip placement found";

    EXPECT_GT(bw_same, 0.9 * 33.6);
    // The cross-chip pair is capped by the IOIF: well under half the
    // on-chip peak, and no more than the two directions' 2 x 7 GB/s.
    EXPECT_LT(bw_cross, 15.0);
    EXPECT_GT(bw_cross, 3.0);
}

TEST(DualChip, MemoryOnOwnChipIsLocal)
{
    auto cfg = twoChips();
    cfg.numSpes = 16;
    cfg.numa = mem::NumaPolicy::remote();   // all pages on bank 1
    cell::CellSystem sys(cfg, 1);
    // An SPE on chip 1 reading bank 1 must not cross the blade.
    EffAddr buf = sys.malloc(64 * 1024);
    auto prog_fn = [&]() -> sim::Task {
        auto &s = sys.spe(8);
        for (unsigned off = 0; off < 64 * 1024; off += 16 * 1024) {
            co_await s.mfc().queueSpace();
            s.mfc().get(off, buf + off, 16 * 1024, 0);
        }
        co_await s.mfc().tagWait(1u << 0);
    };
    sys.launch(prog_fn());
    sys.run();
    EXPECT_EQ(sys.memory().ioLink().bytesSent(
                  mem::IoLink::Dir::Inbound), 0u);
    EXPECT_EQ(sys.memory().ioLink().bytesSent(
                  mem::IoLink::Dir::Outbound), 0u);
    EXPECT_EQ(sys.memory().bank(1).bytesServiced(), 64u * 1024u);
}

TEST(DualChip, PairedAffinityKeepsPairsOnOneChip)
{
    auto cfg = twoChips(cell::AffinityPolicy::Paired);
    cfg.numSpes = 16;
    cell::CellSystem sys(cfg, 1);
    for (unsigned p = 0; p < 8; ++p) {
        EXPECT_EQ(sys.chipOf(2 * p), sys.chipOf(2 * p + 1));
        EXPECT_EQ(eib::shortestHops(sys.rampOf(2 * p),
                                    sys.rampOf(2 * p + 1)), 1u);
    }
}

TEST(DualChip, SimJobsNeverChangesTheAnswer)
{
    // The partitioned engine's window schedule is fixed by the IOIF
    // crossing-latency lookahead; worker threads only change who
    // executes a window.  Bandwidth must therefore be exactly equal —
    // not merely close — for any --sim-jobs value, including thread
    // counts above the partition count.
    auto run = [](unsigned simJobs) {
        auto cfg = twoChips(cell::AffinityPolicy::Random);
        cfg.numSpes = 16;
        cfg.simJobs = simJobs;
        cell::CellSystem sys(cfg, 7);   // seed 7: mixed placement
        core::SpeSpeConfig sc;
        sc.numSpes = 16;
        sc.elemBytes = 4096;
        sc.bytesPerStream = 256 * util::KiB;
        return core::runSpeSpe(sys, sc);
    };
    const double serial = run(1);
    ASSERT_GT(serial, 0.0);
    EXPECT_EQ(serial, run(2));
    EXPECT_EQ(serial, run(4));
}

TEST(DualChip, ProfiledRunBooksCrossingsAsIoLinkAndCountsWindows)
{
    // Under --sim-profile every message the engine delivers is a link
    // crossing and is booked as iolink, and the engine counts its
    // lookahead windows.  Both follow from the partitioned schedule,
    // so --sim-jobs must not move them.
    auto profile = [](unsigned simJobs) {
        auto cfg = twoChips(cell::AffinityPolicy::Random);
        cfg.numSpes = 16;
        cfg.simJobs = simJobs;
        cfg.simProfile = true;
        cell::CellSystem sys(cfg, 7);   // seed 7: mixed placement
        core::SpeSpeConfig sc;
        sc.numSpes = 16;
        sc.elemBytes = 4096;
        sc.bytesPerStream = 64 * util::KiB;
        core::runSpeSpe(sys, sc);
        stats::MetricsRegistry reg;
        sys.snapshotMetrics(reg);
        auto count = [&reg](const char *name) {
            const auto *c = reg.findCounter(name);
            return c ? c->value() : std::uint64_t(0);
        };
        return std::pair(count("profile.iolink.events"),
                         count("profile.engine.windows"));
    };
    const auto serial = profile(1);
    EXPECT_GT(serial.first, 0u);
    EXPECT_GT(serial.second, 0u);
    EXPECT_EQ(serial, profile(2));
}

TEST(DualChip, OnlyThreadedWindowsPreTouchMemory)
{
    // Threaded windows need a page map that no chip changes while they
    // run, so every allocation is faulted in up front.  Serial windows
    // back main memory lazily, as one chip does.
    auto touched = [](unsigned simJobs) {
        auto cfg = twoChips();
        cfg.simJobs = simJobs;
        cell::CellSystem sys(cfg, 1);
        sys.malloc(1 * util::MiB);
        const auto &store = sys.memory().store();
        return std::pair(store.touchedPages(), store.pageBytes());
    };
    EXPECT_EQ(touched(1).first, 0u);
    const auto threaded = touched(2);
    EXPECT_EQ(threaded.first, util::MiB / threaded.second);
}

TEST(DualChip, SerialClusterHaloTouchesLessThanItsSlabs)
{
    cell::CellConfig cfg;
    cfg.numChips = 4;
    cfg.numSpes = 32;
    cfg.affinity = cell::AffinityPolicy::Linear;
    cell::CellSystem sys(cfg, 1);
    core::HaloConfig hc;
    hc.steps = 2;
    core::runClusterHalo(sys, hc);
    const auto &store = sys.memory().store();
    const std::uint64_t slabs = 4ull * hc.ranksPerChip * hc.slabBytes;
    EXPECT_LT(store.touchedPages() * store.pageBytes(), slabs);
}

TEST(DualChip, SixteenSpeCouplesScaleAcrossChips)
{
    // With paired affinity all 8 couples are chip-local: aggregate
    // bandwidth approaches 2 chips x 4 couples x 33.6.
    auto cfg = twoChips(cell::AffinityPolicy::Paired);
    cfg.numSpes = 16;
    cell::CellSystem sys(cfg, 1);
    core::SpeSpeConfig sc;
    sc.numSpes = 16;
    sc.elemBytes = 4096;
    sc.bytesPerStream = 512 * util::KiB;
    double bw = core::runSpeSpe(sys, sc);
    EXPECT_GT(bw, 0.9 * 16 * 16.8);
}
