/**
 * @file
 * Every structural parameter of the modeled machine in one place.
 *
 * Defaults reproduce the paper's platform: a 2.1 GHz dual-Cell blade,
 * 512 MB XDR in two banks (local via MIC, remote via a 7 GB/s IOIF),
 * Linux with 64 KB pages and NUMA enabled, libspe 1.1 semantics.
 * Bench binaries expose these knobs as command-line flags, so every
 * number in DESIGN.md's calibration table is an ablation axis.
 */

#ifndef CELLBW_CELL_CONFIG_HH
#define CELLBW_CELL_CONFIG_HH

#include "eib/eib.hh"
#include "mem/memory_system.hh"
#include "ppe/ppu.hh"
#include "sim/clock.hh"
#include "spe/spe.hh"
#include "util/options.hh"

namespace cellbw::cell
{

/** Logical-to-physical SPE placement policy. */
enum class AffinityPolicy
{
    Random,     ///< what libspe 1.1 gives you: an arbitrary kernel choice
    Linear,     ///< logical i = physical i (die order interleaved)
    Paired,     ///< logical 2k/2k+1 physically adjacent (paper's wish)
};

/** The validated range of numChips (--chips): 1 to 16 chips. */
constexpr unsigned kMaxChips = 16;

struct CellConfig
{
    sim::ClockSpec clock;

    /**
     * Cell chips with *active* SPEs.  The paper boots its dual-Cell
     * blade with maxcpus=2 so only chip 0 runs code (numChips = 1) but
     * both chips' XDR banks stay reachable; numChips = 2 additionally
     * simulates the second chip's EIB and SPEs, reproducing the
     * conclusion's warning that cross-chip SPE pairs are "limited to
     * 7 GB/s" through the IOIF.  Beyond 2 the machine becomes a
     * cluster: chips pair up on blades (eib::ClusterShape) joined by
     * inter-blade links, up to kMaxChips.
     */
    unsigned numChips = 1;

    /** Blades in the cluster; 0 = auto (two chips per blade). */
    unsigned numBlades = 0;

    unsigned numSpes = 8;

    spe::SpeParams spe;
    ppe::PpuParams ppu;
    mem::MemorySystemParams memory;
    eib::EibParams eib;

    /** Extra one-way delay for a DMA command to reach a remote MFC/LS. */
    Tick remoteCmdLatencyBus = 8;

    /** Default NUMA placement for CellSystem::malloc(). */
    mem::NumaPolicy numa = mem::NumaPolicy::interleave(0.65);

    AffinityPolicy affinity = AffinityPolicy::Random;

    /**
     * Checked mode: cross-check every completed DMA command against the
     * backing store and count divergences (--verify).  Fault-injection
     * knobs live in spe.mfc.faults (--fault-* flags).
     */
    bool verify = false;

    /**
     * Worker threads for the conservative parallel engine
     * (--sim-jobs): each chip is a partition synchronized at IOIF
     * crossing-latency granularity.  Effective parallelism is capped at
     * numChips; reports are bit-identical for any value, so the flag is
     * result-neutral (0 = one thread per chip).  Distinct from --jobs,
     * which parallelizes *across* repeated runs.
     */
    unsigned simJobs = 1;

    /**
     * Book per-component event counts and dispatch self-time into the
     * metrics registry (--sim-profile); adds `profile.<tag>.*` counters
     * to the report.
     */
    bool simProfile = false;

    /** Construct the defaults, derived quantities filled in. */
    CellConfig();

    /** @name Derived peaks (GB/s), used by benches as reference lines. */
    /** @{ */
    double rampPeakGBps() const;    ///< one EIB ramp direction: 16.8
    double lsPeakGBps() const;      ///< SPU <-> LS: 33.6
    double pairPeakGBps() const;    ///< concurrent get+put pair: 33.6
    /** @} */

    /** Register the standard --knob flags on @p opts. */
    static void registerOptions(util::Options &opts);

    /** Build a config from parsed options. */
    static CellConfig fromOptions(const util::Options &opts);
};

/** Parse an affinity policy name ("random", "linear", "paired"). */
AffinityPolicy affinityFromString(const std::string &s);
const char *toString(AffinityPolicy a);

} // namespace cellbw::cell

#endif // CELLBW_CELL_CONFIG_HH
