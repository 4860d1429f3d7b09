/**
 * @file
 * IOIF / BIF FlexIO link model.
 *
 * On the dual-Cell blade the second chip's XDR bank is reached through
 * the IOIF, which the paper quotes at 7 GB/s.  The link serializes
 * traffic per direction at that rate and adds a fixed crossing latency.
 */

#ifndef CELLBW_MEM_IO_LINK_HH
#define CELLBW_MEM_IO_LINK_HH

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/sim_object.hh"

namespace cellbw::mem
{

struct IoLinkParams
{
    /** Per-direction sustained rate, bytes per tick (~7 GB/s). */
    double bytesPerTick = 3.33;

    /** One-way crossing latency in ticks (~60 ns). */
    Tick crossingLatency = 126;
};

class IoLink : public sim::SimObject
{
  public:
    /** Lanes, named from the link's lower-numbered chip: Outbound
     *  carries data away from it, Inbound toward it (on the blade's
     *  IOIF, away from and toward chip 0). */
    enum class Dir { Outbound = 0, Inbound = 1 };

    IoLink(std::string name, sim::EventQueue &eq, const IoLinkParams &p);

    using Callback = sim::EventQueue::Callback;

    /**
     * Partitioned-simulation hook (see cell/cell_system).  A crossing's
     * completion always belongs to the *destination* chip; when the
     * chips run on separate event queues, the hook carries the callback
     * into the far partition instead of the local queue.  @p loQueue
     * and @p hiQueue are the queues of the link's lower- and
     * higher-numbered chip, which send on the Outbound and the Inbound
     * lane respectively; a lane's reservation clock reads its sender's
     * tick.
     */
    using RemotePost = std::function<void(Dir, Tick, Callback)>;

    void
    setPartitioned(sim::EventQueue *loQueue, sim::EventQueue *hiQueue,
                   RemotePost post)
    {
        srcQueue_[static_cast<int>(Dir::Outbound)] = loQueue;
        srcQueue_[static_cast<int>(Dir::Inbound)] = hiQueue;
        post_ = std::move(post);
    }

    /**
     * Send @p bytes across the link in direction @p dir; @p onDone fires
     * when the tail of the message arrives on the far side.
     */
    template <typename F>
    void
    send(Dir dir, std::uint32_t bytes, F &&onDone)
    {
        const Tick arrival = reserveSend(dir, bytes);
        if (post_) [[unlikely]] {
            post_(dir, arrival, Callback(std::forward<F>(onDone)));
        } else {
            sim::TagScope tag(eventQueue(), sim::EventTag::IoLink);
            eventQueue().scheduleAt(arrival, std::forward<F>(onDone));
        }
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
    /** Current tick of the queue that drives lane @p d's senders. */
    Tick
    laneNow(int d) const
    {
        return srcQueue_[d] ? srcQueue_[d]->now() : curTick();
    }

    IoLinkParams params_;
    Tick freeAt_[2] = {0, 0};
    std::uint64_t bytesSent_[2] = {0, 0};
    sim::EventQueue *srcQueue_[2] = {nullptr, nullptr};
    RemotePost post_;
};

} // namespace cellbw::mem

#endif // CELLBW_MEM_IO_LINK_HH
