#include "sim/parallel.hh"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <exception>
#include <functional>
#include <thread>

#include "sim/logging.hh"

namespace cellbw::sim
{

PartitionedEngine::PartitionedEngine(unsigned partitions, Tick lookahead)
    : n_(partitions), lookahead_(lookahead)
{
    if (n_ == 0)
        fatal("partitioned engine needs at least one partition");
    if (lookahead_ == 0 && n_ > 1)
        fatal("partitioned engine needs a positive lookahead");
    queues_.reserve(n_);
    for (unsigned p = 0; p < n_; ++p)
        queues_.push_back(std::make_unique<EventQueue>());
    outboxes_.resize(n_);
}

PartitionedEngine::~PartitionedEngine() = default;

void
PartitionedEngine::post(unsigned src, unsigned dst, Tick when,
                        EventQueue::Callback fn)
{
    if (src >= n_ || dst >= n_)
        panic("post between unknown partitions %u -> %u", src, dst);
    if (src == dst)
        panic("post within partition %u: use send()", src);
    Tick src_now = queues_[src]->now();
    if (when < src_now + lookahead_) {
        panic("cross-partition post at tick %llu from partition %u "
              "(now %llu) violates the lookahead of %llu ticks",
              (unsigned long long)when, src,
              (unsigned long long)src_now,
              (unsigned long long)lookahead_);
    }
    Outbox &ob = outboxes_[src];
    if (ob.freeSlots.empty()) {
        ob.freeSlots.push_back(static_cast<std::uint32_t>(ob.slots.size()));
        ob.slots.emplace_back();
    }
    const std::uint32_t slot = ob.freeSlots.back();
    ob.freeSlots.pop_back();
    ob.slots[slot] = std::move(fn);
    ob.posted.push_back(Key{when, src * n_ + dst, ob.seq++, slot});
}

Tick
PartitionedEngine::nextTick()
{
    for (auto &ob : outboxes_) {
        for (const Key &k : ob.posted) {
            heap_.push_back(k);
            std::push_heap(heap_.begin(), heap_.end(), std::greater<>{});
        }
        ob.posted.clear();
    }
    Tick t = heap_.empty() ? maxTick : heap_.front().when;
    for (auto &q : queues_)
        t = std::min(t, q->nextEventTick());
    return t;
}

void
PartitionedEngine::deliverDue(Tick horizon)
{
    // The heap's order is total, so the delivery order does not depend
    // on which outbox a key was merged from: earliest first, ties by
    // channel (source partition first), then by send order.
    while (!heap_.empty() && heap_.front().when <= horizon) {
        std::pop_heap(heap_.begin(), heap_.end(), std::greater<>{});
        const Key k = heap_.back();
        heap_.pop_back();
        Outbox &ob = outboxes_[k.channel / n_];
        const unsigned dst = k.channel % n_;
        // Deterministic profile attribution: every message is a link
        // crossing, not the last event's component.
        TagScope tag(*queues_[dst], EventTag::IoLink);
        queues_[dst]->scheduleAt(k.when, std::move(ob.slots[k.slot]));
        ob.freeSlots.push_back(k.slot);
        ++delivered_;
    }
}

bool
PartitionedEngine::openWindow(Tick &windowEnd)
{
    Tick tmin = nextTick();
    if (tmin == maxTick)
        return false;
    windowEnd = (tmin > maxTick - lookahead_) ? maxTick
                                              : tmin + lookahead_ - 1;
    deliverDue(windowEnd);
    ++windows_;
    return true;
}

std::uint64_t
PartitionedEngine::run(unsigned threads)
{
    if (n_ == 1)
        return queues_[0]->run();
    if (threads > 1)
        return runWindowsThreaded(std::min(threads, n_));
    return runWindowsSerial();
}

std::uint64_t
PartitionedEngine::runWindowsSerial()
{
    std::uint64_t events = 0;
    for (Tick we = 0; openWindow(we);) {
        for (auto &q : queues_)
            events += q->runUntil(we);
    }
    return events;
}

std::uint64_t
PartitionedEngine::runWindowsThreaded(unsigned threads)
{
    std::atomic<Tick> window_end{0};
    std::atomic<bool> stop{false};
    std::atomic<std::uint64_t> events{0};
    // An event that throws ends its partition's window; the window's
    // other partitions finish it, then run() rethrows the error of the
    // lowest-numbered partition, the one a serial run stops at.
    std::vector<std::exception_ptr> errors(n_);
    // Workers + the coordinator; two phases per window (start, finish).
    std::barrier<> sync(static_cast<std::ptrdiff_t>(threads) + 1);

    std::vector<std::thread> workers;
    workers.reserve(threads);
    for (unsigned w = 0; w < threads; ++w) {
        workers.emplace_back([this, w, threads, &sync, &window_end,
                              &stop, &events, &errors] {
            for (;;) {
                sync.arrive_and_wait();
                if (stop.load(std::memory_order_relaxed))
                    return;
                Tick we = window_end.load(std::memory_order_relaxed);
                std::uint64_t local = 0;
                for (unsigned p = w; p < n_; p += threads) {
                    try {
                        local += queues_[p]->runUntil(we);
                    } catch (...) {
                        errors[p] = std::current_exception();
                    }
                }
                events.fetch_add(local, std::memory_order_relaxed);
                sync.arrive_and_wait();
            }
        });
    }

    std::exception_ptr failed;
    for (Tick we = 0; !failed && openWindow(we);) {
        window_end.store(we, std::memory_order_relaxed);
        sync.arrive_and_wait();  // workers start the window
        sync.arrive_and_wait();  // workers finished the window
        for (auto &e : errors) {
            if (e) {
                failed = e;
                break;
            }
        }
    }
    stop.store(true, std::memory_order_relaxed);
    sync.arrive_and_wait();
    for (auto &t : workers)
        t.join();
    if (failed)
        std::rethrow_exception(failed);
    return events.load();
}

Tick
PartitionedEngine::lastDispatchTick() const
{
    Tick t = 0;
    for (auto &q : queues_)
        t = std::max(t, q->lastDispatchTick());
    return t;
}

std::uint64_t
PartitionedEngine::eventsProcessed() const
{
    std::uint64_t n = 0;
    for (auto &q : queues_)
        n += q->eventsProcessed();
    return n;
}

void
PartitionedEngine::setProfiling(bool on)
{
    for (auto &q : queues_)
        q->setProfiling(on);
}

} // namespace cellbw::sim
