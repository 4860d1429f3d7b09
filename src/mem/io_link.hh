/**
 * @file
 * IOIF / BIF FlexIO link model.
 *
 * On the dual-Cell blade the second chip's XDR bank is reached through
 * the IOIF, which the paper quotes at 7 GB/s.  The link serializes
 * traffic per direction at that rate and adds a fixed crossing latency.
 * Both ends share the simulation's one event queue: a crossing is an
 * event scheduled at the tick its tail arrives.
 */

#ifndef CELLBW_MEM_IO_LINK_HH
#define CELLBW_MEM_IO_LINK_HH

#include <cstdint>
#include <string>
#include <utility>

#include "sim/event_queue.hh"

namespace cellbw::mem
{

struct IoLinkParams
{
    /** Per-direction sustained rate, bytes per tick (~7 GB/s). */
    double bytesPerTick = 3.33;

    /** One-way crossing latency in ticks (~60 ns). */
    Tick crossingLatency = 126;
};

class IoLink
{
  public:
    /** Lanes, named from the link's lower-numbered chip: Outbound
     *  carries data away from it, Inbound toward it (on the blade's
     *  IOIF, away from and toward chip 0). */
    enum class Dir { Outbound = 0, Inbound = 1 };

    /** A link whose lanes reserve and complete on @p eq. */
    IoLink(std::string name, sim::EventQueue &eq, const IoLinkParams &p);

    /**
     * Send @p bytes across the link in direction @p dir; @p onDone fires
     * when the tail of the message arrives on the far side.
     */
    template <typename F>
    void
    send(Dir dir, std::uint32_t bytes, F &&onDone)
    {
        const Tick arrival = reserveSend(dir, bytes);
        sim::TagScope tag(eq_, sim::EventTag::IoLink);
        eq_.scheduleAt(arrival, std::forward<F>(onDone));
    }

    /**
     * Serialize @p bytes onto lane @p dir; returns the tick the tail
     * arrives on the far side.  send() is this plus the completion.
     */
    Tick reserveSend(Dir dir, std::uint32_t bytes);

    std::uint64_t bytesSent(Dir dir) const
    {
        return bytesSent_[static_cast<int>(dir)];
    }

    Tick crossingLatency() const { return params_.crossingLatency; }

  private:
    std::string name_;
    sim::EventQueue &eq_;
    IoLinkParams params_;
    Tick freeAt_[2] = {0, 0};
    std::uint64_t bytesSent_[2] = {0, 0};
};

} // namespace cellbw::mem

#endif // CELLBW_MEM_IO_LINK_HH
