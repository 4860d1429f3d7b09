/** @file Tests for CellConfig option registration and parsing. */

#include <gtest/gtest.h>

#include "cell/config.hh"
#include "test_util.hh"

using namespace cellbw;

namespace
{

cell::CellConfig
parse(std::vector<const char *> args)
{
    util::Options opts("test", "test");
    cell::CellConfig::registerOptions(opts);
    args.insert(args.begin(), "test");
    if (!opts.parse(static_cast<int>(args.size()), args.data()))
        sim::fatal("parse failed");
    return cell::CellConfig::fromOptions(opts);
}

} // namespace

TEST(CellConfig, DefaultsMatchThePaperMachine)
{
    cell::CellConfig cfg;
    EXPECT_DOUBLE_EQ(cfg.clock.cpuHz, 2.1e9);
    EXPECT_EQ(cfg.numSpes, 8u);
    EXPECT_EQ(cfg.numChips, 1u);
    EXPECT_EQ(cfg.eib.numRings, 4u);
    EXPECT_EQ(cfg.spe.mfc.queueDepth, 16u);
    EXPECT_NEAR(cfg.rampPeakGBps(), 16.8, 1e-9);
    EXPECT_NEAR(cfg.lsPeakGBps(), 33.6, 1e-9);
    EXPECT_NEAR(cfg.pairPeakGBps(), 33.6, 1e-9);
    EXPECT_NEAR(cfg.memory.ioLink.bytesPerTick * cfg.clock.cpuHz / 1e9,
                7.0, 1e-6);
}

TEST(CellConfig, FlagsReachTheRightFields)
{
    auto cfg = parse({"--cpu-ghz=3.2", "--spes=4", "--rings=8",
                      "--mfc-queue-depth=8", "--mfc-mem-tokens=10",
                      "--dma-elem-overhead=48", "--bank0-gbps=20",
                      "--io-gbps=5", "--numa=local",
                      "--affinity=paired", "--no-flow-pinning",
                      "--chips=2"});
    EXPECT_DOUBLE_EQ(cfg.clock.cpuHz, 3.2e9);
    EXPECT_EQ(cfg.numSpes, 4u);
    EXPECT_EQ(cfg.numChips, 2u);
    EXPECT_EQ(cfg.eib.numRings, 8u);
    EXPECT_EQ(cfg.spe.mfc.queueDepth, 8u);
    EXPECT_EQ(cfg.spe.mfc.memoryTokens, 10u);
    EXPECT_EQ(cfg.spe.mfc.elemOverheadBus, 48u);
    EXPECT_NEAR(cfg.memory.bank0.bytesPerTick * cfg.clock.cpuHz / 1e9,
                20.0, 1e-6);
    EXPECT_NEAR(cfg.memory.ioLink.bytesPerTick * cfg.clock.cpuHz / 1e9,
                5.0, 1e-6);
    EXPECT_EQ(cfg.numa.kind, mem::NumaPolicy::Kind::LocalOnly);
    EXPECT_EQ(cfg.affinity, cell::AffinityPolicy::Paired);
    EXPECT_FALSE(cfg.eib.flowPinning);
}

TEST(CellConfig, NumaShareFlagControlsInterleave)
{
    auto cfg = parse({"--numa=interleave", "--bank0-share=0.8"});
    EXPECT_EQ(cfg.numa.kind, mem::NumaPolicy::Kind::Interleave);
    EXPECT_DOUBLE_EQ(cfg.numa.bank0Share, 0.8);
    auto remote = parse({"--numa=remote"});
    EXPECT_EQ(remote.numa.kind, mem::NumaPolicy::Kind::RemoteOnly);
}

TEST(CellConfig, BadValuesAreFatal)
{
    EXPECT_THROW(parse({"--spes=0"}), sim::FatalError);
    EXPECT_THROW(parse({"--spes=9"}), sim::FatalError);
    // 17 chips is past the validated range of --chips.
    EXPECT_THROW(parse({"--chips=17"}), sim::FatalError);
    // More blades than chips would leave a blade empty; five chips on
    // two blades would need three on one blade.
    EXPECT_THROW(parse({"--chips=2", "--blades=3"}), sim::FatalError);
    EXPECT_THROW(parse({"--chips=5", "--blades=2"}), sim::FatalError);
    EXPECT_THROW(parse({"--numa=bogus"}), sim::FatalError);
    EXPECT_THROW(parse({"--affinity=bogus"}), sim::FatalError);
    // Values that would poison the clock: NaN and infinities, a
    // non-positive clock or rate, a negative latency, a duration or a
    // line's service past 2^32 - 1 ticks, a cycle count past 2^32 - 1
    // and a share outside [0, 1].
    for (const char *bad :
         {"--cpu-ghz=nan", "--cpu-ghz=inf", "--cpu-ghz=0", "--cpu-ghz=-2",
          "--cpu-ghz=1e300", "--io-gbps=0", "--bank0-gbps=-1",
          "--blade-link-gbps=1e-18", "--ioif-latency=-40",
          "--mem-latency-ns=-10", "--blade-latency=1e300",
          "--fault-delay-ns=nan", "--fault-drop-rate=nan",
          "--eib-cmd-latency=18446744073709551615",
          "--dma-elem-overhead=4294967296",
          "--dma-list-elem-overhead=4294967296", "--bank0-share=1.5",
          "--bank0-share=-0.1"}) {
        EXPECT_THROW(parse({bad}), sim::FatalError) << bad;
    }
    // The edges of each range are fine.
    auto edges = parse({"--ioif-latency=0", "--eib-cmd-latency=4294967295",
                        "--bank0-share=1"});
    EXPECT_EQ(edges.memory.ioLink.crossingLatency, 0u);
    EXPECT_EQ(edges.eib.cmdLatencyBus, 4294967295u);
    // Two chips raise the SPE ceiling.
    auto cfg = parse({"--chips=2", "--spes=16"});
    EXPECT_EQ(cfg.numSpes, 16u);
}

TEST(CellConfig, ClusterFlagsReachTheRightFields)
{
    auto cfg = parse({"--chips=4", "--blades=2", "--spes=32",
                      "--affinity=linear", "--blade-link-gbps=4",
                      "--blade-latency=200", "--ioif-latency=50"});
    EXPECT_EQ(cfg.numChips, 4u);
    EXPECT_EQ(cfg.numBlades, 2u);
    EXPECT_NEAR(cfg.memory.bladeLink.bytesPerTick * cfg.clock.cpuHz / 1e9,
                4.0, 1e-6);
    EXPECT_EQ(cfg.memory.bladeLink.crossingLatency,
              cfg.clock.fromNs(200.0));
    EXPECT_EQ(cfg.memory.ioLink.crossingLatency, cfg.clock.fromNs(50.0));
    EXPECT_EQ(cfg.memory.numChips, 4u);
    EXPECT_EQ(cfg.memory.numBlades, 2u);

    // Defaults: blades auto-derive.
    auto def = parse({"--chips=8", "--spes=64"});
    EXPECT_EQ(def.numBlades, 0u);
}

TEST(CellConfig, AffinityNamesRoundTrip)
{
    EXPECT_EQ(cell::affinityFromString("random"),
              cell::AffinityPolicy::Random);
    EXPECT_EQ(cell::affinityFromString("LINEAR"),
              cell::AffinityPolicy::Linear);
    EXPECT_STREQ(cell::toString(cell::AffinityPolicy::Paired), "paired");
}

TEST(CellConfig, RowTimingFlagsPlumbToBothBanks)
{
    auto off = parse({});
    EXPECT_FALSE(off.memory.bank0.rowTiming);
    EXPECT_FALSE(off.memory.bank1.rowTiming);
    EXPECT_EQ(off.memory.bank0.rowBytes, 2048u);

    auto cfg = parse({"--mem-row-timing", "--mem-row-hit-ns=20",
                      "--mem-row-miss-ns=60", "--mem-row-bytes=4096"});
    EXPECT_TRUE(cfg.memory.bank0.rowTiming);
    EXPECT_TRUE(cfg.memory.bank1.rowTiming);
    EXPECT_EQ(cfg.memory.bank0.rowBytes, 4096u);
    EXPECT_EQ(cfg.memory.bank1.rowBytes, 4096u);
    EXPECT_EQ(cfg.memory.bank0.rowHitLatency, cfg.clock.fromNs(20.0));
    EXPECT_EQ(cfg.memory.bank0.rowMissPenalty, cfg.clock.fromNs(60.0));
    EXPECT_EQ(cfg.memory.bank1.rowHitLatency,
              cfg.memory.bank0.rowHitLatency);
    EXPECT_EQ(cfg.memory.bank1.rowMissPenalty,
              cfg.memory.bank0.rowMissPenalty);
}
