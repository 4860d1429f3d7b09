#include "core/worker_pool.hh"

#include "sim/logging.hh"

namespace cellbw::core
{

unsigned
WorkerPool::width(unsigned requested)
{
    if (requested == 0)
        requested = std::thread::hardware_concurrency();
    return requested == 0 ? 1 : requested;
}

WorkerPool::WorkerPool(unsigned workers)
{
    workers = width(workers);
    threads_.reserve(workers);
    for (unsigned i = 0; i < workers; ++i)
        threads_.emplace_back([this] { workerLoop(); });
}

WorkerPool::~WorkerPool()
{
    shutdown();
}

void
WorkerPool::submit(std::function<void()> fn)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (stop_) {
            // A task accepted here could be silently dropped (workers
            // may already have observed the empty queue and exited) or
            // run on a pool mid-join.  Refuse loudly instead.
            sim::fatal("WorkerPool::submit after shutdown began; the "
                       "caller must stop admitting work before "
                       "draining the pool");
        }
        queue_.push_back(std::move(fn));
    }
    cv_.notify_one();
}

void
WorkerPool::shutdown()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    cv_.notify_all();
    std::lock_guard<std::mutex> join(joinMutex_);
    if (joined_)
        return;
    for (auto &t : threads_)
        t.join();
    joined_ = true;
}

bool
WorkerPool::stopping() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stop_;
}

void
WorkerPool::workerLoop()
{
    for (;;) {
        std::function<void()> task;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
            if (queue_.empty())
                return;     // stop_ set and nothing left to drain
            task = std::move(queue_.front());
            queue_.pop_front();
        }
        task();
    }
}

} // namespace cellbw::core
