#include "cell/config.hh"

#include <climits>
#include <cmath>

#include "sim/logging.hh"
#include "util/strings.hh"

namespace cellbw::cell
{

namespace
{

double
bytesPerTick(double gbps, double cpuHz)
{
    return gbps * 1e9 / cpuHz;
}

/** The most ticks a flag's duration, or one line's service at a flag's
 *  rate, may take: latencies add up along a route and onto the clock,
 *  so each stays far inside Tick, like the 32-bit cycle flags. */
constexpr double kMaxFlagTicks = 4294967295.0;

} // namespace

CellConfig::CellConfig()
{
    // Paper machine: 2.1 GHz, XDR banks.  A bank sustains ~14 GB/s of
    // its 16.8 GB/s ramp peak (refresh & co); its access latency is set
    // so that one MFC's 16-line window sustains ~10 GB/s, the paper's
    // single-SPE measurement.
    memory.bank0.bytesPerTick = bytesPerTick(15.5, clock.cpuHz);
    memory.bank1.bytesPerTick = bytesPerTick(15.5, clock.cpuHz);
    memory.bank0.accessLatency = clock.fromNs(110.0);
    memory.bank1.accessLatency = clock.fromNs(110.0);
    memory.ioLink.bytesPerTick = bytesPerTick(7.0, clock.cpuHz);
    memory.ioLink.crossingLatency = clock.fromNs(40.0);
    // Inter-blade links are an external fabric: narrower and farther
    // than the on-blade IOIF (think an InfiniBand-class interconnect).
    memory.bladeLink.bytesPerTick = bytesPerTick(2.0, clock.cpuHz);
    memory.bladeLink.crossingLatency = clock.fromNs(400.0);
}

double
CellConfig::rampPeakGBps() const
{
    double bus_hz = clock.cpuHz / clock.busPeriodTicks;
    return eib.bytesPerBusCycle * bus_hz / 1e9;
}

double
CellConfig::lsPeakGBps() const
{
    return spe.ls.bytesPerCycle * clock.cpuHz / 1e9;
}

double
CellConfig::pairPeakGBps() const
{
    return 2.0 * rampPeakGBps();
}

AffinityPolicy
affinityFromString(const std::string &s)
{
    std::string v = util::toLower(s);
    if (v == "random")
        return AffinityPolicy::Random;
    if (v == "linear")
        return AffinityPolicy::Linear;
    if (v == "paired")
        return AffinityPolicy::Paired;
    sim::fatal("unknown affinity policy '%s' "
               "(expected random|linear|paired)", s.c_str());
}

const char *
toString(AffinityPolicy a)
{
    switch (a) {
      case AffinityPolicy::Random:
        return "random";
      case AffinityPolicy::Linear:
        return "linear";
      case AffinityPolicy::Paired:
        return "paired";
    }
    return "?";
}

void
CellConfig::registerOptions(util::Options &opts)
{
    opts.addDouble("cpu-ghz", 2.1, "CPU clock in GHz");
    // Fields cast to unsigned are bounded so a value past 2^32 fails
    // the parse instead of wrapping (--chips 4294967297 ran 1 chip).
    const std::uint64_t u32 = UINT_MAX;
    opts.addUint("chips", 1, "Cell chips with active SPEs (1-16)", u32);
    opts.addUint("blades", 0,
                 "blades holding the chips (0 = two chips per blade)",
                 u32);
    opts.addUint("spes", 8, "number of SPEs", u32);
    opts.addUint("rings", 4, "EIB data rings", u32);
    opts.addUint("eib-cmd-latency", 20, "EIB command phase, bus cycles",
                 u32);
    opts.addUint("mfc-queue-depth", 16, "MFC command queue entries (1-1024)",
                 u32);
    opts.addUint("mfc-mem-tokens", 18,
                 "MFC outstanding 128B lines to main memory", u32);
    opts.addUint("mfc-ls-lines", 64,
                 "MFC outstanding 128B lines to LS apertures", u32);
    opts.addUint("dma-elem-overhead", 24,
                 "MFC issue occupancy per DMA command, bus cycles", u32);
    opts.addUint("dma-list-elem-overhead", 2,
                 "extra issue occupancy per DMA-list element, bus cycles",
                 u32);
    opts.addDouble("bank0-gbps", 15.5, "local XDR bank sustained GB/s");
    opts.addDouble("bank1-gbps", 15.5, "remote XDR bank sustained GB/s");
    opts.addDouble("io-gbps", 7.0, "IOIF link GB/s per direction");
    opts.addDouble("ioif-latency", 40.0,
                   "one-way IOIF crossing latency, ns");
    opts.addDouble("blade-link-gbps", 2.0,
                   "inter-blade link GB/s per direction");
    opts.addDouble("blade-latency", 400.0,
                   "one-way inter-blade crossing latency, ns");
    opts.addDouble("mem-latency-ns", 110.0, "bank access latency, ns");
    opts.addBool("mem-row-timing", false,
                 "timing row-buffer model (open page): row hits pay "
                 "CAS only, each activate adds bank occupancy");
    opts.addDouble("mem-row-hit-ns", 30.0,
                   "row-hit (CAS-only) completion latency, ns");
    opts.addDouble("mem-row-miss-ns", 80.0,
                   "precharge+activate occupancy per row miss, ns");
    opts.addUint("mem-row-bytes", 2048, "DRAM row (page) size in bytes");
    opts.addDouble("bank0-share", 0.65,
                   "fraction of interleaved pages on the local bank");
    opts.addString("numa", "interleave",
                   "page placement: interleave|local|remote");
    opts.addBool("flow-pinning", true,
                 "pin each flow to one EIB ring (vs per-packet choice)");
    opts.addString("affinity", "random",
                   "SPE placement policy: random|linear|paired");
    opts.addDouble("fault-drop-rate", 0.0,
                   "P(a DMA command is silently dropped)");
    opts.addDouble("fault-corrupt-rate", 0.0,
                   "P(a DMA command's payload is corrupted in flight)");
    opts.addDouble("fault-delay-rate", 0.0,
                   "P(a DMA command's completion is delayed)");
    opts.addDouble("fault-delay-ns", 950.0,
                   "extra completion latency of a delayed command, ns");
    opts.addUint("fault-seed", 1,
                 "base seed of the fault-injection generators");
    opts.addBool("verify", false,
                 "cross-check every DMA against the backing store");
    opts.addBool("sim-profile", false,
                 "book per-component event counts and self-time into "
                 "the report");
}

CellConfig
CellConfig::fromOptions(const util::Options &opts)
{
    CellConfig cfg;
    // A machine flag must leave the clock sane: the clock and every
    // rate positive, no latency negative, and no duration or line
    // service past kMaxFlagTicks.  NaN and infinities never parse.
    const double ghz = opts.getDouble("cpu-ghz");
    cfg.clock.cpuHz = ghz * 1e9;
    if (!(ghz > 0.0) || !std::isfinite(cfg.clock.cpuHz))
        sim::fatal("--cpu-ghz must be positive and finite, not %g", ghz);
    auto rate = [&](const char *flag) {
        const double gbps = opts.getDouble(flag);
        const double perTick = bytesPerTick(gbps, cfg.clock.cpuHz);
        if (!(gbps > 0.0))
            sim::fatal("--%s must be positive, not %g", flag, gbps);
        if (spe::lineBytes / perTick > kMaxFlagTicks) {
            sim::fatal("--%s %g GB/s moves a %u-byte line in more than "
                       "%.0f ticks", flag, gbps, spe::lineBytes,
                       kMaxFlagTicks);
        }
        return perTick;
    };
    auto duration = [&](const char *flag) {
        const double ns = opts.getDouble(flag);
        if (ns < 0.0)
            sim::fatal("--%s must not be negative, not %g", flag, ns);
        if (ns * 1e-9 * cfg.clock.cpuHz + 0.5 > kMaxFlagTicks) {
            sim::fatal("--%s %g ns is more than %.0f ticks", flag, ns,
                       kMaxFlagTicks);
        }
        return cfg.clock.fromNs(ns);
    };
    cfg.numChips = static_cast<unsigned>(opts.getUint("chips"));
    if (cfg.numChips < 1) {
        sim::fatal("--chips must be at least 1");
    } else if (cfg.numChips > kMaxChips) {
        sim::fatal("--chips %u exceeds the validated maximum of %u chips",
                   cfg.numChips, kMaxChips);
    }
    cfg.numBlades = static_cast<unsigned>(opts.getUint("blades"));
    {
        auto shape = eib::ClusterShape::of(cfg.numChips, cfg.numBlades);
        if (!shape.valid()) {
            sim::fatal("--blades %u cannot hold %u chips (blades carry "
                       "one or two chips each and none may be empty)",
                       cfg.numBlades, cfg.numChips);
        }
    }
    cfg.numSpes = static_cast<unsigned>(opts.getUint("spes"));
    if (cfg.numSpes == 0 ||
        cfg.numSpes > cfg.numChips * eib::numPhysicalSpes) {
        sim::fatal("--spes must be 1..%u with %u chip(s)",
                   cfg.numChips * eib::numPhysicalSpes, cfg.numChips);
    }
    cfg.eib.numRings = static_cast<unsigned>(opts.getUint("rings"));
    cfg.eib.cmdLatencyBus = opts.getUint("eib-cmd-latency");
    cfg.spe.mfc.queueDepth =
        static_cast<unsigned>(opts.getUint("mfc-queue-depth"));
    if (cfg.spe.mfc.queueDepth < 1 ||
        cfg.spe.mfc.queueDepth > spe::maxQueueDepth) {
        sim::fatal("--mfc-queue-depth must be 1..%u, not %u",
                   spe::maxQueueDepth, cfg.spe.mfc.queueDepth);
    }
    auto window = [&](const char *flag) {
        const auto lines = static_cast<unsigned>(opts.getUint(flag));
        if (lines == 0)
            sim::fatal("--%s must be positive, not 0", flag);
        return lines;
    };
    cfg.spe.mfc.memoryTokens = window("mfc-mem-tokens");
    cfg.spe.mfc.lsLines = window("mfc-ls-lines");
    cfg.spe.mfc.elemOverheadBus = opts.getUint("dma-elem-overhead");
    cfg.spe.mfc.listElemOverheadBus =
        opts.getUint("dma-list-elem-overhead");

    cfg.memory.bank0.bytesPerTick = rate("bank0-gbps");
    cfg.memory.bank1.bytesPerTick = rate("bank1-gbps");
    cfg.memory.ioLink.bytesPerTick = rate("io-gbps");
    cfg.memory.ioLink.crossingLatency = duration("ioif-latency");
    cfg.memory.bladeLink.bytesPerTick = rate("blade-link-gbps");
    cfg.memory.bladeLink.crossingLatency = duration("blade-latency");
    cfg.memory.numChips = cfg.numChips;
    cfg.memory.numBlades = cfg.numBlades;
    cfg.memory.bank0.accessLatency = duration("mem-latency-ns");
    cfg.memory.bank1.accessLatency = cfg.memory.bank0.accessLatency;
    cfg.memory.bank0.rowTiming = opts.getBool("mem-row-timing");
    cfg.memory.bank0.rowHitLatency = duration("mem-row-hit-ns");
    cfg.memory.bank0.rowMissPenalty = duration("mem-row-miss-ns");
    cfg.memory.bank0.rowBytes = opts.getUint("mem-row-bytes");
    cfg.memory.bank1.rowTiming = cfg.memory.bank0.rowTiming;
    cfg.memory.bank1.rowHitLatency = cfg.memory.bank0.rowHitLatency;
    cfg.memory.bank1.rowMissPenalty = cfg.memory.bank0.rowMissPenalty;
    cfg.memory.bank1.rowBytes = cfg.memory.bank0.rowBytes;

    const double share = opts.getDouble("bank0-share");
    if (share < 0.0 || share > 1.0)
        sim::fatal("--bank0-share %g is not a fraction in [0, 1]", share);
    const std::string &numa = opts.getString("numa");
    if (numa == "interleave") {
        cfg.numa = mem::NumaPolicy::interleave(share);
    } else if (numa == "local") {
        cfg.numa = mem::NumaPolicy::local();
    } else if (numa == "remote") {
        cfg.numa = mem::NumaPolicy::remote();
    } else {
        sim::fatal("unknown numa policy '%s'", numa.c_str());
    }

    cfg.eib.flowPinning = opts.getBool("flow-pinning");
    cfg.affinity = affinityFromString(opts.getString("affinity"));

    auto &faults = cfg.spe.mfc.faults;
    faults.dropRate = opts.getDouble("fault-drop-rate");
    faults.corruptRate = opts.getDouble("fault-corrupt-rate");
    faults.delayRate = opts.getDouble("fault-delay-rate");
    faults.delayTicks = duration("fault-delay-ns");
    faults.seed = opts.getUint("fault-seed");
    if (faults.dropRate < 0.0 || faults.corruptRate < 0.0 ||
        faults.delayRate < 0.0 ||
        faults.dropRate + faults.corruptRate + faults.delayRate > 1.0) {
        sim::fatal("--fault-*-rate values must be >= 0 and sum to <= 1");
    }
    cfg.verify = opts.getBool("verify");
    cfg.simProfile = opts.getBool("sim-profile");
    return cfg;
}

} // namespace cellbw::cell
