/**
 * @file
 * IOIF / BIF FlexIO link model.
 *
 * On the dual-Cell blade the second chip's XDR bank is reached through
 * the IOIF, which the paper quotes at 7 GB/s.  The link serializes
 * traffic per direction at that rate and adds a fixed crossing latency.
 * Each end of a link is a partition of the simulation's engine, and a
 * crossing completes on the receiving end's partition through
 * sim::PartitionedEngine::send().
 */

#ifndef CELLBW_MEM_IO_LINK_HH
#define CELLBW_MEM_IO_LINK_HH

#include <cstdint>
#include <string>
#include <utility>

#include "sim/parallel.hh"

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

    /**
     * A link between partitions @p lo and @p hi of @p engine, those of
     * its lower- and higher-numbered chip (one partition when both ends
     * run on it).  Outbound sends from @p lo, Inbound from @p hi; a
     * lane's reservation clock reads its sender's queue.
     */
    IoLink(std::string name, sim::PartitionedEngine &engine, unsigned lo,
           unsigned hi, const IoLinkParams &p);

    /**
     * Send @p bytes across the link in direction @p dir; @p onDone fires
     * on the receiving end's partition when the tail of the message
     * arrives there.
     */
    template <typename F>
    void
    send(Dir dir, std::uint32_t bytes, F &&onDone)
    {
        const int d = static_cast<int>(dir);
        const Tick arrival = reserveSend(dir, bytes);
        // A completion on the sender's own partition is booked as a
        // link event here; a post is booked so at delivery.
        sim::TagScope tag(engine_.queue(end_[d]), sim::EventTag::IoLink);
        engine_.send(end_[d], end_[1 - d], arrival,
                     std::forward<F>(onDone));
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
    sim::PartitionedEngine &engine_;
    /** Partition of the lane's sender: [Outbound] = lo, [Inbound] = hi. */
    unsigned end_[2];
    IoLinkParams params_;
    Tick freeAt_[2] = {0, 0};
    std::uint64_t bytesSent_[2] = {0, 0};
};

} // namespace cellbw::mem

#endif // CELLBW_MEM_IO_LINK_HH
