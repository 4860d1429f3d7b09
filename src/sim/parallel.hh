/**
 * @file
 * Conservative parallel discrete-event engine.
 *
 * The dual-Cell blade partitions naturally at the IOIF: everything on
 * one chip (its SPEs, its EIB, its XDR bank) interacts with the other
 * chip only through the FlexIO link, whose one-way crossing latency L
 * is a hard lower bound on how soon an event on one chip can affect
 * the other.  That makes L a classic conservative-synchronization
 * lookahead: each partition may safely run to `tmin + L - 1`, where
 * tmin is the earliest pending event (or undelivered cross-partition
 * message) anywhere in the system.
 *
 * The engine owns one EventQueue per partition plus one outbox per
 * partition.  A partition sends work across the boundary with post(),
 * which appends a small key (when, channel, seq, slot) to the sender's
 * own outbox and parks the callback in that outbox's slot, so posts
 * from concurrently running partitions never share state.  Between
 * windows the coordinator merges the outboxes' keys into one min-heap
 * and pops exactly the messages due in the next window, in a fixed
 * (when, channel = src * n + dst, seq) order.  The event schedule — and
 * hence every report — is therefore bit-identical no matter how many
 * worker threads execute the windows.  Threads only change *who* runs
 * a partition's window, never *what order* events fire in: determinism
 * is a property of the partitioned schedule itself, not of thread
 * count.  A message parked windows ahead (a reserved link lane) costs
 * nothing until it is due.
 *
 * The safety rule post() enforces: a message created by an event
 * executing at tick t must be delivered no earlier than t + L.  Since
 * every event in a window executes at t >= tmin, a compliant message
 * lands at >= tmin + L, strictly beyond the window's end — no partition
 * can ever receive a message for a tick it has already passed.
 *
 * Callers that may or may not cross use send(): work for the sender's
 * own partition is a plain event on its queue, anything else a post().
 * An engine of one partition therefore never posts; its run() drains
 * the one queue with EventQueue::run(), opens no window, and needs no
 * positive lookahead.
 */

#ifndef CELLBW_SIM_PARALLEL_HH
#define CELLBW_SIM_PARALLEL_HH

#include <compare>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"

namespace cellbw::sim
{

class PartitionedEngine
{
  public:
    PartitionedEngine(unsigned partitions, Tick lookahead);
    ~PartitionedEngine();

    PartitionedEngine(const PartitionedEngine &) = delete;
    PartitionedEngine &operator=(const PartitionedEngine &) = delete;

    unsigned partitions() const { return n_; }
    Tick lookahead() const { return lookahead_; }
    EventQueue &queue(unsigned p) { return *queues_[p]; }
    const EventQueue &queue(unsigned p) const { return *queues_[p]; }

    /**
     * Send @p fn from partition @p src to partition @p dst, to run at
     * tick @p when.  Must be called from @p src's execution context
     * (its queue's current event); panics if @p when violates the
     * lookahead safety rule.
     */
    void post(unsigned src, unsigned dst, Tick when, EventQueue::Callback fn);

    /**
     * Run @p fn at tick @p when on partition @p dst, sent from
     * partition @p src: an event on @p dst's queue when the two are
     * one partition, else a post().
     */
    template <typename F>
    void
    send(unsigned src, unsigned dst, Tick when, F &&fn)
    {
        if (src == dst)
            queues_[dst]->scheduleAt(when, std::forward<F>(fn));
        else
            post(src, dst, when, EventQueue::Callback(std::forward<F>(fn)));
    }

    /**
     * Run every partition until no events or undelivered messages
     * remain.  @p threads worker threads execute the windows
     * (1 = serial); results are identical for any value.  One
     * partition runs its queue to the end with no windows.  If events
     * throw, run() rethrows the error of the lowest-numbered partition
     * that threw in the first failing window, for any @p threads.
     * @return total events processed across all partitions.
     */
    std::uint64_t run(unsigned threads);

    /** Latest dispatched tick across all partitions. */
    Tick lastDispatchTick() const;

    std::uint64_t eventsProcessed() const;

    /** Number of cross-partition messages delivered so far. */
    std::uint64_t messagesDelivered() const { return delivered_; }

    /** Number of lookahead windows run so far. */
    std::uint64_t windows() const { return windows_; }

    void setProfiling(bool on);

  private:
    /** An undelivered message's place in the delivery order; its
     *  callback waits in @ref slot of the sender's outbox. */
    struct Key
    {
        Tick when;
        std::uint32_t channel;   ///< src * n + dst
        std::uint64_t seq;       ///< the sender's post count
        std::uint32_t slot;      ///< never decides: (channel, seq) is unique
        auto operator<=>(const Key &) const = default;
    };

    /** One partition's posts.  Only its own events write it during a
     *  window; the coordinator drains it between windows. */
    struct alignas(64) Outbox
    {
        std::vector<Key> posted;   ///< keys not yet in heap_
        std::vector<EventQueue::Callback> slots;
        std::vector<std::uint32_t> freeSlots;
        std::uint64_t seq = 0;
    };

    /** Merge the outboxes into the heap; @return the earliest pending
     *  event or undelivered message, or maxTick. */
    Tick nextTick();

    /** Pop every message with when <= @p horizon into its destination
     *  queue, in (when, channel, seq) order. */
    void deliverDue(Tick horizon);

    /** Deliver the next window's messages and count it; @return false
     *  when nothing is left to run. */
    bool openWindow(Tick &windowEnd);

    std::uint64_t runWindowsSerial();
    std::uint64_t runWindowsThreaded(unsigned threads);

    unsigned n_;
    Tick lookahead_;
    std::vector<std::unique_ptr<EventQueue>> queues_;
    std::vector<Outbox> outboxes_;
    /** Every undelivered message's key, earliest on top. */
    std::vector<Key> heap_;
    std::uint64_t delivered_ = 0;
    std::uint64_t windows_ = 0;
};

} // namespace cellbw::sim

#endif // CELLBW_SIM_PARALLEL_HH
