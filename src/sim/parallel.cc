#include "sim/parallel.hh"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <exception>
#include <thread>

#include "sim/logging.hh"

namespace cellbw::sim
{

PartitionedEngine::PartitionedEngine(unsigned partitions, Tick lookahead)
    : n_(partitions), lookahead_(lookahead)
{
    if (n_ == 0)
        fatal("partitioned engine needs at least one partition");
    if (lookahead_ == 0)
        fatal("partitioned engine needs a positive lookahead");
    queues_.reserve(n_);
    for (unsigned p = 0; p < n_; ++p)
        queues_.push_back(std::make_unique<EventQueue>());
    channels_.resize(static_cast<std::size_t>(n_) * n_);
    channelSeq_.resize(channels_.size(), 0);
}

PartitionedEngine::~PartitionedEngine() = default;

void
PartitionedEngine::post(unsigned src, unsigned dst, Tick when,
                        EventQueue::Callback fn)
{
    if (src >= n_ || dst >= n_)
        panic("post between unknown partitions %u -> %u", src, dst);
    Tick src_now = queues_[src]->now();
    if (when < src_now + lookahead_) {
        panic("cross-partition post at tick %llu from partition %u "
              "(now %llu) violates the lookahead of %llu ticks",
              (unsigned long long)when, src,
              (unsigned long long)src_now,
              (unsigned long long)lookahead_);
    }
    auto &ch = channels_[static_cast<std::size_t>(src) * n_ + dst];
    ch.push_back(Msg{when,
                     channelSeq_[static_cast<std::size_t>(src) * n_ + dst]++,
                     src, std::move(fn)});
}

Tick
PartitionedEngine::nextTick() const
{
    Tick t = maxTick;
    for (auto &q : queues_)
        t = std::min(t, q->nextEventTick());
    for (auto &ch : channels_)
        for (auto &m : ch)
            t = std::min(t, m.when);
    return t;
}

void
PartitionedEngine::deliverDue(Tick horizon)
{
    due_.clear();
    for (unsigned src = 0; src < n_; ++src) {
        for (unsigned dst = 0; dst < n_; ++dst) {
            auto &ch = channels_[static_cast<std::size_t>(src) * n_ + dst];
            std::size_t kept = 0;
            for (auto &m : ch) {
                if (m.when <= horizon) {
                    // Tag the message with its destination (reuse src:
                    // it is only needed for the sort key below, and the
                    // destination is recoverable from the channel).
                    due_.push_back(std::move(m));
                    due_.back().src = src * n_ + dst;
                } else {
                    ch[kept++] = std::move(m);
                }
            }
            ch.resize(kept);
        }
    }
    if (due_.empty())
        return;
    // A fixed delivery order makes the schedule independent of the
    // channel scan: earliest first, ties by source partition, then by
    // per-channel send order.
    std::sort(due_.begin(), due_.end(), [](const Msg &a, const Msg &b) {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.src != b.src)
            return a.src < b.src;
        return a.seq < b.seq;
    });
    for (auto &m : due_) {
        unsigned dst = m.src % n_;
        // Deterministic profile attribution: every message is a link
        // crossing, not the last event's component.
        TagScope tag(*queues_[dst], EventTag::IoLink);
        queues_[dst]->scheduleAt(m.when, std::move(m.fn));
        ++delivered_;
    }
    due_.clear();
}

std::uint64_t
PartitionedEngine::run(unsigned threads)
{
    if (threads > 1 && n_ > 1)
        return runWindowsThreaded(std::min(threads, n_));
    return runWindowsSerial();
}

std::uint64_t
PartitionedEngine::runWindowsSerial()
{
    std::uint64_t events = 0;
    for (;;) {
        Tick tmin = nextTick();
        if (tmin == maxTick)
            break;
        Tick window_end = (tmin > maxTick - lookahead_)
                              ? maxTick
                              : tmin + lookahead_ - 1;
        deliverDue(window_end);
        ++windows_;
        for (auto &q : queues_)
            events += q->runUntil(window_end);
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
    while (!failed) {
        Tick tmin = nextTick();
        if (tmin == maxTick)
            break;
        Tick we = (tmin > maxTick - lookahead_) ? maxTick
                                                : tmin + lookahead_ - 1;
        deliverDue(we);
        ++windows_;
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
