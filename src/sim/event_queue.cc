#include "sim/event_queue.hh"

#include <bit>
#include <chrono>

#include "sim/logging.hh"

namespace cellbw::sim
{

namespace
{

std::uint64_t
monotonicNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

/**
 * Set when this thread's ChunkPool is destroyed.  Trivially
 * destructible, so it stays readable for the rest of thread exit.
 */
thread_local bool t_chunkPoolGone = false;

} // namespace

struct EventQueue::ChunkPool
{
    Chunk *head = nullptr;
    std::size_t size = 0;

    ~ChunkPool()
    {
        while (head) {
            Chunk *next = head->next;
            delete head;
            head = next;
        }
        t_chunkPoolGone = true;
    }
};

EventQueue::ChunkPool *
EventQueue::chunkPool()
{
    if (t_chunkPoolGone)
        return nullptr;
    static thread_local ChunkPool pool;
    return &pool;
}

EventQueue::~EventQueue()
{
    // Park chunks in the thread-local pool rather than freeing them:
    // glibc trims page-sized frees back to the OS, and the next queue
    // on this thread would page-fault the same memory straight back in.
    ChunkPool *pool = chunkPool();
    auto release = [pool](Chunk *c) {
        while (c) {
            for (std::size_t i = 0; i < c->count; ++i)
                c->slot(i)->~Callback();
            Chunk *next = c->next;
            if (pool && pool->size < kPoolCap) {
                c->next = pool->head;
                pool->head = c;
                ++pool->size;
            } else {
                delete c;
            }
            c = next;
        }
    };
    for (Bucket &b : buckets_)
        release(b.head);
    release(freelist_);
}

void
EventQueue::pastEventPanic(Tick when) const
{
    panic("event scheduled in the past: %llu < %llu",
          (unsigned long long)when, (unsigned long long)now_);
}

void
EventQueue::pushOverflow(Tick when, Callback cb)
{
    overflow_.push(Entry{when, nextSeq_++, std::move(cb), currentTag_});
    const Tick h = when >= kWindow ? when - kWindow + 1 : 0;
    if (h < horizon_)
        horizon_ = h;
}

EventQueue::Chunk *
EventQueue::appendChunk(Bucket &b)
{
    Chunk *c = freelist_;
    ChunkPool *pool;
    if (c) {
        freelist_ = c->next;
    } else if ((pool = chunkPool()) && (c = pool->head)) {
        pool->head = c->next;
        --pool->size;
    } else {
        c = new Chunk;
    }
    c->next = nullptr;
    c->count = 0;
    if (b.tail)
        b.tail->next = c;
    else
        b.head = c;
    b.tail = c;
    return c;
}

void
EventQueue::pushBucket(Entry e)
{
    const std::size_t idx = static_cast<std::size_t>(e.when % kWindow);
    const EventTag saved = currentTag_;
    currentTag_ = e.tag;
    emplaceBucket(idx, std::move(e.cb));
    currentTag_ = saved;
}

void
EventQueue::advanceTo(Tick t)
{
    now_ = t;
    // Pull every overflow event that the advance brought inside the
    // window.  Heap order is (when, seq), so same-tick entries arrive in
    // schedule order, and they arrive before any direct scheduleAt() can
    // append to those buckets — see the FIFO note in the header.
    while (!overflow_.empty() && inWindow(overflow_.top().when)) {
        Entry e = std::move(const_cast<Entry &>(overflow_.top()));
        overflow_.pop();
        pushBucket(std::move(e));
    }
    refreshHorizon();
}

void
EventQueue::refreshHorizon()
{
    if (overflow_.empty()) {
        horizon_ = maxTick;
    } else {
        const Tick top = overflow_.top().when;
        horizon_ = top >= kWindow ? top - kWindow + 1 : 0;
    }
}

std::uint64_t
EventQueue::dispatchTick(Tick t)
{
    const std::size_t idx = static_cast<std::size_t>(t % kWindow);
    Bucket &b = buckets_[idx];
    std::uint64_t n = 0;
    lastDispatch_ = t;
    // Callbacks run in place inside their chunk slot.  A callback may
    // schedule another event for this same tick, which appends to the
    // tail chunk (or grows the chain); the cursor below picks those up
    // in FIFO order.  Chunks never move, so in-place execution is safe.
    Chunk *c = b.head;
    std::size_t i = 0;
    while (c) {
        while (i < c->count) {
            Callback *cb = c->slot(i);
            currentTag_ = static_cast<EventTag>(c->tags[i]);
            ++i;
            --pending_;
            ++processed_;
            ++n;
            if (profiling_) [[unlikely]] {
                const std::uint64_t t0 = monotonicNs();
                (*cb)();
                auto &p = profiles_[c->tags[i - 1]];
                p.selfNs += monotonicNs() - t0;
                ++p.events;
            } else {
                (*cb)();
            }
            cb->~Callback();
        }
        // Re-check before leaving: the invocations above may have
        // appended to this chunk or linked a new tail.
        if (i == c->count && !c->next)
            break;
        if (i == c->count) {
            c = c->next;
            i = 0;
        }
    }
    // Return the drained chain to the free list in one splice.
    if (b.head) {
        Chunk *ch = b.head;
        while (true) {
            ch->count = 0;
            if (!ch->next)
                break;
            ch = ch->next;
        }
        ch->next = freelist_;
        freelist_ = b.head;
        b.head = b.tail = nullptr;
    }
    occupied_[idx / 64] &= ~(std::uint64_t(1) << (idx % 64));
    currentTag_ = EventTag::Program;
    return n;
}

std::uint64_t
EventQueue::drainRing(Tick cap)
{
    std::uint64_t n = 0;
    for (;;) {
        // Cursor scan for the next bucketed tick >= now_.
        const std::size_t start = static_cast<std::size_t>(now_ % kWindow);
        std::size_t w = start / 64;
        std::uint64_t word = occupied_[w] &
                             (~std::uint64_t(0) << (start % 64));
        Tick t = maxTick;
        for (std::size_t scanned = 0; scanned <= kWords; ++scanned) {
            if (word) {
                const std::size_t idx = w * 64 +
                    static_cast<std::size_t>(std::countr_zero(word));
                t = now_ + ((idx + kWindow - start) % kWindow);
                break;
            }
            w = (w + 1) % kWords;
            word = occupied_[w];
        }
        // horizon_ is re-read every iteration: a callback dispatched
        // below may have pushed an overflow entry that lowers it.
        if (t >= cap || t >= horizon_)
            return n;
        now_ = t;
        n += dispatchTick(t);
    }
}

std::uint64_t
EventQueue::run()
{
    std::uint64_t n = 0;
    while (pending_ > 0) {
        if (horizon_ > now_)
            n += drainRing(maxTick);
        if (pending_ == 0)
            break;
        if (pending_ == overflow_.size()) {
            // Ring drained; jump straight to the earliest far event.
            advanceTo(overflow_.top().when);
        } else {
            // Ring has events at or beyond the horizon: pull the heap
            // entries that are due, then resume draining.
            advanceTo(std::max(now_, horizon_));
        }
    }
    return n;
}

std::uint64_t
EventQueue::runUntil(Tick when)
{
    std::uint64_t n = 0;
    const Tick cap = when == maxTick ? maxTick : when + 1;
    while (pending_ > 0) {
        if (horizon_ > now_)
            n += drainRing(cap);
        if (pending_ == 0)
            break;
        if (pending_ == overflow_.size()) {
            if (overflow_.top().when > when)
                break;
            advanceTo(overflow_.top().when);
        } else {
            // Remaining ring events are at or beyond min(cap, horizon).
            if (horizon_ > when)
                break;
            advanceTo(std::max(now_, horizon_));
        }
    }
    if (now_ < when)
        advanceTo(when);
    return n;
}

} // namespace cellbw::sim
