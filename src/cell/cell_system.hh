/**
 * @file
 * The assembled machine: one PPE, eight SPEs per chip on 1-16 chips,
 * each chip's EIB and XDR bank (at least two banks, so one chip still
 * sees its blade's second bank), the links between chips — plus the
 * DMA router that moves lines between them.
 *
 * A CellSystem is built per experiment run: construction draws the
 * logical-to-physical SPE placement from the given seed (libspe 1.1
 * gives the programmer no control over placement, so the paper runs
 * everything 10 times over different mappings; our affinity policies
 * beyond Random are the extension the paper asks libspe for).
 *
 * Execution.  Every chip runs on one event queue.  Anything that
 * crosses a link (the on-blade IOIF or an inter-blade link — see
 * mem::LinkGraph) to another chip is an event scheduled at the tick it
 * arrives there; multi-hop routes re-enter the router at each
 * intermediate chip.  Events of one tick fire in the order they were
 * scheduled, whichever chip they belong to.
 *
 * One set of routing stages serves every chip count.  Each in-flight DMA
 * line is a Flight: a slot in the system's flight arena whose address
 * never changes, holding the request, the routing state and a 128-byte
 * payload.  Every stage, on the home chip (the issuing SPE's) or on the
 * far chip the line visits, captures {this, Flight *}, so the hot path
 * schedules inline-stored callbacks and allocates nothing.  A crossing
 * line's data meets the backing store at the far stage: a GET reads it
 * as the line leaves the bank's chip, a PUT writes it when the line
 * arrives over the link.
 *
 * The single-chip blade still has the second chip's XDR bank behind
 * the IOIF (the NUMA ablations) but not that chip's EIB: a line to the
 * far bank pays the link and the bank only, and its write completes
 * when the bank accepts it, with no acknowledgment crossing back.
 *
 * @code
 *   cell::CellConfig cfg;
 *   cell::CellSystem sys(cfg, seed);
 *   EffAddr buf = sys.malloc(32 * MiB);
 *   sys.launch(myProgram(sys, sys.spe(0), buf));
 *   sys.run();
 * @endcode
 */

#ifndef CELLBW_CELL_CELL_SYSTEM_HH
#define CELLBW_CELL_CELL_SYSTEM_HH

#include <memory>
#include <vector>

#include "cell/config.hh"
#include "eib/topology.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"
#include "sim/task.hh"
#include "trace/recorder.hh"

namespace cellbw::stats
{
class MetricsRegistry;
} // namespace cellbw::stats

namespace cellbw::cell
{

/** Base effective address of the memory-mapped local stores (the MFC
 *  uses the same constant to classify lines for its token windows). */
constexpr EffAddr lsEaBase = spe::lsApertureBase;

/** EA stride between consecutive SPEs' LS apertures. */
constexpr EffAddr lsEaStride = 1ull << 24;

class CellSystem
{
  public:
    CellSystem(const CellConfig &cfg, std::uint64_t placementSeed);
    ~CellSystem();

    CellSystem(const CellSystem &) = delete;
    CellSystem &operator=(const CellSystem &) = delete;

    /** @name Component access. */
    /** @{ */
    /** The one event queue every chip runs on. */
    sim::EventQueue &eventQueue() { return *eq_; }
    const sim::ClockSpec &clock() const { return cfg_.clock; }
    const CellConfig &config() const { return cfg_; }
    /** The seed this run was built with (workloads derive their own
     *  streams from it so a run is a pure function of cfg + seed). */
    std::uint64_t placementSeed() const { return placementSeed_; }
    unsigned numSpes() const { return cfg_.numSpes; }
    unsigned numChips() const { return cfg_.numChips; }
    spe::Spe &spe(unsigned logical);
    ppe::Ppu &ppu() { return *ppu_; }
    mem::MemorySystem &memory() { return *memory_; }
    eib::Eib &eib(unsigned chip = 0);
    /** @} */

    /** Allocate main memory with the config's NUMA policy. */
    EffAddr malloc(std::uint64_t bytes);
    EffAddr malloc(std::uint64_t bytes, const mem::NumaPolicy &policy);

    /**
     * Effective address of @p lsa inside logical SPE @p logical's
     * memory-mapped local store (for SPE-to-SPE DMA).
     */
    EffAddr lsEa(unsigned logical, LsAddr lsa = 0) const;

    /** True iff @p ea falls in some SPE's LS aperture. */
    bool isLsEa(EffAddr ea) const { return ea >= lsEaBase; }

    /** Launch a coroutine program; it is kept alive until reset. */
    void launch(sim::Task task);

    /**
     * Run the simulation until no events remain.  fatal()s if a
     * launched program has not finished (deadlock); rethrows the first
     * program exception.
     */
    void run();

    /**
     * Turn on event tracing: every MFC command and EIB packet from now
     * on is recorded.  @return the recorder for timelines and traces;
     * Recorder::setCapacity() bounds what it keeps.
     */
    trace::Recorder &enableTracing();

    /** The recorder, or nullptr when tracing is off. */
    trace::Recorder *recorder() { return recorder_.get(); }

    /**
     * Accumulate every component's utilization counters into @p reg
     * (EIB rings, DRAM banks, MFC queues, PPE caches, plus `sim.runs`
     * and `sim.ticks`, and the checked-mode verdict as `verify.*` when
     * verifying).  Counters *add* into @p reg, so snapshotting
     * several runs into one registry yields across-run totals; all
     * accumulation is commutative, keeping parallel seed sweeps
     * deterministic.  Call after run().
     */
    void snapshotMetrics(stats::MetricsRegistry &reg) const;

    /** @name Checked mode (config.verify / --verify).
     *
     *  Every completed non-faulted DMA command is cross-checked
     *  end-to-end: the LS bytes and the backing-store bytes of each
     *  transferred segment must agree once the command reports done.
     *  Faulted commands (dropped/corrupted) are *expected* to diverge
     *  and are skipped — recovery is the program's job. */
    /** @{ */
    struct VerifyStats
    {
        std::uint64_t transfersChecked = 0;
        std::uint64_t bytesChecked = 0;
        std::uint64_t divergences = 0;
        std::uint64_t faultedSkipped = 0;
        /** Diagnostics of the first divergence seen, empty if none. */
        std::string firstDivergence;
    };

    bool verifying() const { return cfg_.verify; }
    const VerifyStats &verifyStats() const { return verifyStats_; }
    /** @} */

    Tick now() const { return eq_->lastDispatchTick(); }

    /** Seconds of simulated time elapsed since construction. */
    double seconds() const { return cfg_.clock.seconds(now()); }

    /** @name Placement introspection.  Physical SPE slots 8c..8c+7
     *        live on chip c. */
    /** @{ */
    unsigned physicalOf(unsigned logical) const;
    unsigned chipOf(unsigned logical) const;
    unsigned rampOf(unsigned logical) const;
    const std::vector<std::uint32_t> &placement() const
    {
        return placement_;
    }
    std::string placementString() const;
    /** @} */

  private:
    /**
     * An in-flight DMA line: the request, its routing state and its
     * payload.  Stages on either chip read everything from here.
     */
    struct Flight
    {
        spe::LineRequest req;
        Flight *next = nullptr;       ///< arena free-list link
        std::uint8_t home = 0;        ///< the issuing SPE's chip
        std::uint8_t bank = 0;        ///< memory routing: target bank
        bool crossing = false;        ///< the line crosses a link
        std::uint16_t srcSpe = 0;     ///< LS routing: data-holding SPE
        std::uint16_t dstSpe = 0;     ///< LS routing: receiving SPE
        LsAddr srcLsa = 0;
        LsAddr dstLsa = 0;
        std::uint8_t payload[spe::lineBytes];
    };

    /** The flights: allocated in chunks, never moved, recycled through
     *  a free list. */
    class FlightArena
    {
      public:
        Flight *
        acquire()
        {
            if (!free_) {
                chunks_.push_back(std::make_unique<Flight[]>(kChunk));
                for (std::size_t i = 0; i < kChunk; ++i)
                    release(&chunks_.back()[i]);
            }
            Flight *f = free_;
            free_ = f->next;
            return f;
        }

        void
        release(Flight *f)
        {
            f->req = spe::LineRequest{};
            f->next = free_;
            free_ = f;
        }

      private:
        static constexpr std::size_t kChunk = 32;
        std::vector<std::unique_ptr<Flight[]>> chunks_;
        Flight *free_ = nullptr;
    };

    Flight *
    acquireFlight(unsigned home, spe::LineRequest &&req)
    {
        Flight *f = flights_.acquire();
        f->req = std::move(req);
        f->home = static_cast<std::uint8_t>(home);
        return f;
    }

    /** The EIB on bank @p b's chip, or nullptr for the single-chip
     *  blade's far bank, which has no chip of its own. */
    eib::Eib *
    bankEib(unsigned b)
    {
        return b < eibs_.size() ? eibs_[b].get() : nullptr;
    }

    void buildPlacement(std::uint64_t seed);

    /** @name Routing stages.  Each takes the flight it moves. */
    /** @{ */
    void routeLine(spe::LineRequest &&req);
    void routeMemory(spe::LineRequest &&req);
    void routeLocalStore(spe::LineRequest &&req);
    void memGetAccess(Flight *f);
    void memGetRead(Flight *f);
    void memGetCross(Flight *f);
    void memGetRide(Flight *f);
    void memGetLand(Flight *f);
    void memPutRide(Flight *f);
    void memPutLeave(Flight *f);
    void memPutStore(Flight *f);
    void memPutAck(Flight *f);
    void lsRead(Flight *f);
    void lsRide(Flight *f);
    void lsCross(Flight *f);
    void lsArrive(Flight *f);
    void lsLand(Flight *f);
    /** Release @p f and run its completion. */
    void finishFlight(Flight *f);
    /** @} */

    void verifyCompletion(const spe::Mfc::Completion &done);
    void readEa(EffAddr ea, std::uint8_t *buf, std::uint32_t bytes);

    CellConfig cfg_;
    std::uint64_t placementSeed_ = 0;
    std::unique_ptr<sim::EventQueue> eq_;
    std::unique_ptr<mem::MemorySystem> memory_;
    std::vector<std::unique_ptr<eib::Eib>> eibs_;
    std::unique_ptr<ppe::Ppu> ppu_;
    std::vector<std::unique_ptr<spe::Spe>> spes_;
    FlightArena flights_;
    std::vector<std::uint32_t> placement_;   // logical -> physical SPE
    std::vector<sim::Task> programs_;
    std::unique_ptr<trace::Recorder> recorder_;
    VerifyStats verifyStats_;
};

} // namespace cellbw::cell

#endif // CELLBW_CELL_CELL_SYSTEM_HH
