/** @file Tests for the N-chip cluster topology: blade shapes, the
 *        inter-chip link graph and its gateway routing, deterministic
 *        placement, and the cluster-level oracle peaks. */

#include <gtest/gtest.h>

#include "core/oracle.hh"
#include "eib/topology.hh"
#include "mem/link_graph.hh"
#include "test_util.hh"

using namespace cellbw;

namespace
{

/** Count the links a shape names, split on-blade vs inter-blade. */
void
countLinks(const eib::ClusterShape &s, unsigned &onBlade,
           unsigned &interBlade)
{
    onBlade = interBlade = 0;
    s.forEachLink([&](unsigned, unsigned, bool inter) {
        (inter ? interBlade : onBlade)++;
    });
}

mem::IoLinkParams
linkParams(double bytesPerTick, Tick latency)
{
    mem::IoLinkParams p;
    p.bytesPerTick = bytesPerTick;
    p.crossingLatency = latency;
    return p;
}

} // namespace

TEST(ClusterShape, BladeMathAndValidity)
{
    EXPECT_EQ(eib::ClusterShape::autoBlades(1), 1u);
    EXPECT_EQ(eib::ClusterShape::autoBlades(2), 1u);
    EXPECT_EQ(eib::ClusterShape::autoBlades(4), 2u);
    EXPECT_EQ(eib::ClusterShape::autoBlades(8), 4u);

    auto s = eib::ClusterShape::of(4);
    EXPECT_EQ(s.blades, 2u);
    EXPECT_EQ(s.chipsPerBlade(), 2u);
    EXPECT_EQ(s.bladeOf(0), 0u);
    EXPECT_EQ(s.bladeOf(1), 0u);
    EXPECT_EQ(s.bladeOf(2), 1u);
    EXPECT_EQ(s.bladeOf(3), 1u);
    EXPECT_EQ(s.gatewayOf(0), 0u);
    EXPECT_EQ(s.gatewayOf(1), 2u);
    EXPECT_TRUE(s.valid());

    // One chip per blade is legal (no on-blade links at all).
    EXPECT_TRUE(eib::ClusterShape::of(4, 4).valid());
    // Blades may not be empty, nor carry three chips.
    EXPECT_FALSE(eib::ClusterShape::of(4, 3).valid());
    EXPECT_FALSE(eib::ClusterShape::of(5, 2).valid());
    EXPECT_FALSE(eib::ClusterShape::of(2, 3).valid());
}

TEST(ClusterShape, LinkEnumeration)
{
    unsigned on = 0, inter = 0;

    countLinks(eib::ClusterShape::of(2), on, inter);
    EXPECT_EQ(on, 1u);      // the classic dual-Cell blade IOIF
    EXPECT_EQ(inter, 0u);

    countLinks(eib::ClusterShape::of(4, 2), on, inter);
    EXPECT_EQ(on, 2u);
    EXPECT_EQ(inter, 1u);   // gateway 0 <-> gateway 2

    countLinks(eib::ClusterShape::of(8, 4), on, inter);
    EXPECT_EQ(on, 4u);
    EXPECT_EQ(inter, 6u);   // full mesh over 4 gateways

    countLinks(eib::ClusterShape::of(4, 4), on, inter);
    EXPECT_EQ(on, 0u);
    EXPECT_EQ(inter, 6u);
}

TEST(LinkGraph, EdgesAndNames)
{
    sim::EventQueue eq;
    mem::LinkGraph g("mem", eq, eib::ClusterShape::of(4, 2),
                     linkParams(3.33, 84), linkParams(1.0, 840));
    ASSERT_EQ(g.numLinks(), 3u);
    EXPECT_EQ(g.edge(0).suffix, "ioif");
    EXPECT_EQ(g.edge(1).suffix, "ioif1");
    EXPECT_EQ(g.edge(2).suffix, "blade0_1");
    EXPECT_FALSE(g.edge(0).interBlade);
    EXPECT_FALSE(g.edge(1).interBlade);
    EXPECT_TRUE(g.edge(2).interBlade);

    EXPECT_NE(g.linkBetween(0, 1), nullptr);
    EXPECT_NE(g.linkBetween(2, 3), nullptr);
    EXPECT_NE(g.linkBetween(0, 2), nullptr);
    EXPECT_EQ(g.linkBetween(1, 2), nullptr);
    EXPECT_EQ(g.linkBetween(1, 3), nullptr);
    EXPECT_EQ(g.linkBetween(0, 3), nullptr);
    // Symmetric lookup.
    EXPECT_EQ(g.linkBetween(1, 0), g.linkBetween(0, 1));
}

TEST(LinkGraph, GatewayRoutingAndLatency)
{
    const Tick ioif = 84, blade = 840;
    sim::EventQueue eq;
    mem::LinkGraph g("mem", eq, eib::ClusterShape::of(4, 2),
                     linkParams(3.33, ioif), linkParams(1.0, blade));

    // Direct neighbours: one hop, lane named from the lower chip's
    // viewpoint (lower -> higher is Outbound).
    auto h01 = g.firstHop(0, 1);
    EXPECT_EQ(h01.next, 1u);
    EXPECT_EQ(h01.lane, mem::IoLink::Dir::Outbound);
    auto h10 = g.firstHop(1, 0);
    EXPECT_EQ(h10.next, 0u);
    EXPECT_EQ(h10.lane, mem::IoLink::Dir::Inbound);

    // A non-gateway chip routes via its own gateway first.
    auto h13 = g.firstHop(1, 3);
    EXPECT_EQ(h13.next, 0u);
    EXPECT_EQ(h13.lane, mem::IoLink::Dir::Inbound);
    // A gateway routes to the destination blade's gateway.
    auto h03 = g.firstHop(0, 3);
    EXPECT_EQ(h03.next, 2u);

    EXPECT_EQ(g.pathLatency(0, 0), 0u);
    EXPECT_EQ(g.pathLatency(0, 1), ioif);
    EXPECT_EQ(g.pathLatency(0, 2), blade);
    EXPECT_EQ(g.pathLatency(0, 3), blade + ioif);
    // Worst case: non-gateway to non-gateway on another blade.
    EXPECT_EQ(g.pathLatency(1, 3), ioif + blade + ioif);
    // Routes are symmetric in latency.
    EXPECT_EQ(g.pathLatency(3, 1), g.pathLatency(1, 3));
}

TEST(LinkGraph, OneChipsFarBankCrossesTheIoif)
{
    // The single-chip blade: two banks, one chip.  A line from the far
    // bank serializes on the IOIF's Inbound lane and lands one event
    // later on the same queue.
    sim::EventQueue eq;
    mem::LinkGraph g("mem", eq, eib::ClusterShape::of(2, 0),
                     linkParams(4.0, 10), linkParams(1.0, 840));
    Tick done = 0;
    g.sendData(1, 0, 128, [&] { done = eq.now(); });
    EXPECT_EQ(eq.run(), 1u);
    EXPECT_EQ(done, 42u);       // 32 serialize + 10 crossing
    EXPECT_EQ(g.link(0).bytesSent(mem::IoLink::Dir::Inbound), 128u);
    EXPECT_EQ(g.link(0).bytesSent(mem::IoLink::Dir::Outbound), 0u);
}

TEST(LinkGraph, MultiHopDataSerializesOnEveryLink)
{
    // Chip 1 to chip 3 on two blades: IOIF 0-1, the blade link 0-2 and
    // IOIF 2-3.  Each hop re-enters sendData when the tail arrives, so
    // the arrival is the sum of the three serialize + crossing terms.
    sim::EventQueue eq;
    mem::LinkGraph g("mem", eq, eib::ClusterShape::of(4, 2),
                     linkParams(4.0, 10), linkParams(2.0, 100));
    Tick done = 0;
    g.sendData(1, 3, 128, [&] { done = eq.now(); });
    EXPECT_EQ(eq.run(), 3u);
    EXPECT_EQ(done, (32u + 10u) + (64u + 100u) + (32u + 10u));
    EXPECT_EQ(g.linkBetween(0, 1)->bytesSent(mem::IoLink::Dir::Inbound),
              128u);
    EXPECT_EQ(g.linkBetween(0, 2)->bytesSent(mem::IoLink::Dir::Outbound),
              128u);
    EXPECT_EQ(g.linkBetween(2, 3)->bytesSent(mem::IoLink::Dir::Outbound),
              128u);
}

TEST(LinkGraph, InvalidShapeIsFatal)
{
    sim::EventQueue eq;
    EXPECT_THROW(mem::LinkGraph("mem", eq, eib::ClusterShape::of(5, 2),
                                linkParams(3.33, 84),
                                linkParams(1.0, 840)),
                 sim::FatalError);
}

TEST(ClusterSystem, FourChipsComeUp)
{
    cell::CellConfig cfg;
    cfg.numChips = 4;
    cfg.numSpes = 32;
    cfg.affinity = cell::AffinityPolicy::Linear;
    cell::CellSystem sys(cfg, 1);
    EXPECT_EQ(sys.numChips(), 4u);
    EXPECT_EQ(sys.numSpes(), 32u);
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(sys.chipOf(i), i / 8);
    EXPECT_EQ(sys.memory().numBanks(), 4u);
    EXPECT_EQ(sys.memory().links().numLinks(), 3u);
}

TEST(ClusterSystem, ChipsBeyondTheValidatedRangeAreFatal)
{
    // 1-16 chips is the range the cluster tests and baselines cover;
    // one chip more must fail loudly.
    EXPECT_EQ(cell::kMaxChips, 16u);
    cell::CellConfig cfg;
    cfg.numChips = cell::kMaxChips + 1;
    cfg.numSpes = 8;
    EXPECT_THROW(cell::CellSystem(cfg, 1), sim::FatalError);
}

TEST(ClusterSystem, InvalidBladeShapeIsFatal)
{
    cell::CellConfig cfg;
    cfg.numChips = 4;
    cfg.numBlades = 3;
    cfg.numSpes = 8;
    EXPECT_THROW(cell::CellSystem(cfg, 1), sim::FatalError);
}

TEST(ClusterSystem, PlacementIsDeterministicPerSeed)
{
    cell::CellConfig cfg;
    cfg.numChips = 4;
    cfg.numSpes = 32;
    cfg.affinity = cell::AffinityPolicy::Random;
    cell::CellSystem a(cfg, 9), b(cfg, 9);
    EXPECT_EQ(a.placement(), b.placement());

    // The placement is a permutation of the physical slots.
    std::vector<bool> seen(32, false);
    for (unsigned i = 0; i < 32; ++i) {
        unsigned phys = a.physicalOf(i);
        ASSERT_LT(phys, 32u);
        EXPECT_FALSE(seen[phys]);
        seen[phys] = true;
    }

    // Linear affinity is the identity regardless of seed.
    cfg.affinity = cell::AffinityPolicy::Linear;
    cell::CellSystem lin(cfg, 1234);
    for (unsigned i = 0; i < 32; ++i)
        EXPECT_EQ(lin.physicalOf(i), i);
}

TEST(ClusterOracle, BladeLinkAndBisectionPeaks)
{
    cell::CellConfig cfg;
    core::Oracle two(cfg);
    double io = 0, bladeLink = 0, bisection = 0, mem = 0;
    ASSERT_TRUE(two.peak("io", io));
    ASSERT_TRUE(two.peak("blade-link", bladeLink));
    ASSERT_TRUE(two.peak("bisection", bisection));
    // One blade, two chips: the cut is the IOIF itself.
    EXPECT_DOUBLE_EQ(bisection, io);
    EXPECT_NEAR(io, 7.0, 1e-6);
    EXPECT_NEAR(bladeLink, 2.0, 1e-6);

    // Four chips on two blades: only the inter-blade link crosses the
    // chips/2 cut.
    cfg.numChips = 4;
    core::Oracle four(cfg);
    ASSERT_TRUE(four.peak("bisection", bisection));
    EXPECT_DOUBLE_EQ(bisection, bladeLink);

    // Eight chips on four blades: gateways 0 and 2 each link to
    // gateways 4 and 6 across the cut.
    cfg.numChips = 8;
    core::Oracle eight(cfg);
    ASSERT_TRUE(eight.peak("bisection", bisection));
    EXPECT_DOUBLE_EQ(bisection, 4.0 * bladeLink);

    // Every chip past the first contributes a bank1-rated bank.
    double bank0 = 0, bank1 = 0;
    ASSERT_TRUE(eight.peak("bank0", bank0));
    ASSERT_TRUE(eight.peak("bank1", bank1));
    ASSERT_TRUE(eight.peak("mem", mem));
    EXPECT_DOUBLE_EQ(mem, bank0 + 7.0 * bank1);
}
