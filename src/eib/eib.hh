/**
 * @file
 * Element Interconnect Bus data arbiter.
 *
 * The EIB has four data rings (two per direction) plus a tree-structured
 * command bus.  The data arbiter grants a packet to a ring whose
 * direction matches the packet's shorter path (never more than halfway
 * around) and whose path segments are free; each ramp can drive one
 * outgoing and accept one incoming 16 B flit per bus cycle.
 *
 * Transfers are reserved greedily at request time: the packet gets the
 * ring that lets it start earliest, subject to its source TX port,
 * destination RX port, and path-segment availability.  This keeps the
 * model O(path length) per packet while reproducing the conflict
 * behaviour the paper measures (couples vs. cycles, placement spread).
 */

#ifndef CELLBW_EIB_EIB_HH
#define CELLBW_EIB_EIB_HH

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "eib/ring.hh"
#include "sim/clock.hh"
#include "sim/sim_object.hh"

namespace cellbw::eib
{

struct EibParams
{
    /** Data rings, split evenly between the two directions. */
    unsigned numRings = 4;

    /** Command-phase latency before data arbitration, bus cycles. */
    Tick cmdLatencyBus = 20;

    /** Per-segment data latency, bus cycles. */
    Tick hopLatencyBus = 1;

    /** Ring width: bytes moved per bus cycle. */
    unsigned bytesPerBusCycle = 16;

    /**
     * Pin each (src, dst) flow to one ring of its direction instead of
     * load-balancing per packet.  The real data arbiter keeps a
     * transfer's packets on the ring it was granted, so concurrent
     * flows whose paths overlap *and* hash to the same ring serialize —
     * the loss the paper measures with 4 couples / 8-SPE cycles.
     */
    bool flowPinning = true;
};

class Eib : public sim::SimObject
{
  public:
    Eib(std::string name, sim::EventQueue &eq, const sim::ClockSpec &clock,
        const EibParams &params);

    /**
     * Move a data packet of @p bytes (<= 128 in normal operation) from
     * ramp @p src to ramp @p dst.  @p onDone fires when the packet's
     * tail arrives at the destination ramp.  The callable is scheduled
     * directly on the event queue (inline storage for small captures).
     */
    template <typename F>
    void
    transfer(RampPos src, RampPos dst, std::uint32_t bytes, F &&onDone)
    {
        const Tick arrival = reserveTransfer(src, dst, bytes);
        sim::TagScope tag(eventQueue(), sim::EventTag::Eib);
        eventQueue().scheduleAt(arrival, std::forward<F>(onDone));
    }

    /**
     * Arbitrate and reserve ring/ramp time for a packet; returns the
     * tick its tail arrives at @p dst.  transfer() is this plus the
     * completion event.
     */
    Tick reserveTransfer(RampPos src, RampPos dst, std::uint32_t bytes);

    /** @name Introspection for tests and the bench reports. */
    /** @{ */
    unsigned numRings() const { return static_cast<unsigned>(rings_.size()); }
    const Ring &ring(unsigned i) const { return *rings_[i]; }
    std::uint64_t bytesMoved() const { return bytesMoved_; }
    std::uint64_t packets() const { return packets_; }
    /** Sum over packets of (grant tick - earliest possible tick). */
    Tick contentionTicks() const { return contentionTicks_; }
    /** Peak data bandwidth of one ramp direction, GB/s. */
    double rampPeakGBps() const;
    /** @} */

    /**
     * Accumulate this bus's utilization counters (packets, bytes,
     * contention) and each ring's grants/occupancy into @p reg under
     * `<prefix>.*` / `<prefix>.ring<i>.*`.
     */
    void registerMetrics(stats::MetricsRegistry &reg,
                         const std::string &prefix) const;

  private:
    sim::ClockSpec clock_;
    EibParams params_;
    std::vector<std::unique_ptr<Ring>> rings_;
    std::array<Tick, numRamps> txFreeAt_{};
    std::array<Tick, numRamps> rxFreeAt_{};
    std::uint64_t bytesMoved_ = 0;
    std::uint64_t packets_ = 0;
    Tick contentionTicks_ = 0;
    unsigned rrCounter_ = 0;
};

} // namespace cellbw::eib

#endif // CELLBW_EIB_EIB_HH
