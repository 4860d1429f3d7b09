/**
 * @file
 * `cellbw serve`: the experiment suite as a long-running daemon.
 *
 * A small hand-rolled HTTP/1.1 JSON API (no new dependencies) over the
 * exact backend the CLI uses — the experiment registry, the shared
 * core::WorkerPool, and the content-addressed core::ResultCache — so
 * a response body for a config is byte-identical to what
 * `cellbw run <exp> <flags> --json <file>` writes for that config, no
 * matter how many clients ask concurrently.
 *
 * Endpoints:
 *
 *   GET  /healthz            {"status":"ok","draining":bool}
 *   GET  /experiments        registered experiments (name/figure/desc)
 *   POST /run                {"experiment": "...", "args": [...],
 *                             "wait": true|false, "client": "..."}
 *                            200 report bytes (wait) | 202 {"job":id}
 *   GET  /jobs/<id>          job status document
 *   GET  /jobs/<id>/report   finished report bytes
 *   GET  /metrics            stats::MetricsRegistry snapshot
 *
 * Concurrency semantics (the real content of this subsystem):
 *
 *  - Warm requests answer straight from the ResultCache, refreshing
 *    LRU recency; X-Cellbw-Cache: hit.
 *  - Cold identical configs (same ResultCache material hash) coalesce
 *    onto ONE in-flight job whose result fans out to every waiter;
 *    the runner re-probes the cache after winning the coalescer slot,
 *    which closes the probe-then-admit race — per daemon process, a
 *    config runs the simulator exactly once no matter the interleaving.
 *  - Pending runs are scheduled with per-client FIFO fairness
 *    (round-robin across client identities; see serve::FairQueue)
 *    onto a bounded set of runner threads that share one WorkerPool
 *    for their seed sweeps.
 *  - Accepted sockets go to a set of connection workers that start
 *    only when no worker is idle and are reused, up to
 *    kMaxConnectionWorkers.  At the cap the accept loop itself answers
 *    503 with `Retry-After: 1` and closes the socket, so silent or
 *    slow clients cannot starve it.
 *  - `--cache-max-bytes` enforces the cache byte cap online: after
 *    every populating run the LRU prune() trims the cache under the
 *    cross-process advisory lock.
 *  - SIGTERM/SIGINT begin a graceful drain: new runs are rejected with
 *    503, queued and in-flight runs complete (waiting clients get
 *    their bytes), the worker pool is drained and joined, the
 *    connection workers answer every socket they hold and are joined,
 *    then the process exits 0.
 */

#ifndef CELLBW_SERVE_SERVER_HH
#define CELLBW_SERVE_SERVER_HH

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/result_cache.hh"
#include "core/worker_pool.hh"
#include "serve/coalescer.hh"
#include "serve/connection.hh"
#include "serve/job_table.hh"
#include "stats/metrics.hh"

namespace cellbw::serve
{

struct ServeSpec
{
    /** Bind address. */
    std::string host = "127.0.0.1";
    /** TCP port; 0 binds an ephemeral port (see Server::port()). */
    std::uint16_t port = 8080;
    /** When set, the bound port is written here (for scripts). */
    std::string portFile;
    /** Shared seed-sweep pool width; 0 = one per hardware thread. */
    unsigned jobs = 0;
    /** Experiment runs in flight at once (runner threads). */
    unsigned active = 2;
    /** Result-cache root. */
    std::string cacheDir = ".cellbw-cache";
    /** false disables lookup AND population. */
    bool useCache = true;
    /** Online LRU cache byte cap; 0 = unbounded. */
    std::uint64_t cacheMaxBytes = 0;
    /** Where per-job report files are written. */
    std::string spoolDir = "cellbw-serve-spool";
    /**
     * Refuse native-backend experiments (403): a shared daemon's
     * numbers should not depend on its own host load.
     */
    bool simOnly = false;
    /** Suppress per-request log lines. */
    bool terse = false;
};

class Server
{
  public:
    explicit Server(ServeSpec spec);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /** Connection workers at most; past them a socket gets 503. */
    static constexpr std::size_t kMaxConnectionWorkers = 64;

    /**
     * Bind, listen, start the runner threads.  @return false on
     * socket/filesystem errors (message on stderr).
     */
    bool start();

    /** The bound port (useful with spec.port == 0). */
    std::uint16_t port() const { return boundPort_; }

    /**
     * Accept and serve until beginShutdown(), then drain: runner
     * threads finish queued jobs, the pool joins, connection workers
     * complete.  @return the process exit code (0 on a clean drain).
     */
    int run();

    /**
     * Start a graceful drain; safe from any thread (but NOT from a
     * signal handler — handlers should write to wakeFd() instead).
     * Idempotent.
     */
    void beginShutdown();

    /**
     * A pipe write end; writing one byte wakes the accept loop and
     * triggers beginShutdown().  Async-signal-safe to write to.
     */
    int wakeFd() const { return wakePipe_[1]; }

    /** True once a drain has begun (new runs are rejected with 503). */
    bool draining() const
    {
        return draining_.load(std::memory_order_acquire);
    }

    /**
     * Route one parsed request to a response.  Public so tests can
     * exercise the API surface without sockets; connection workers
     * call it for every accepted request.  Blocks for
     * `{"wait": true}` runs.
     */
    HttpResponse route(const HttpRequest &req, const std::string &peer);

    stats::MetricsRegistry &metrics() { return metrics_; }

  private:
    HttpResponse handleRun(const HttpRequest &req,
                           const std::string &peer);
    HttpResponse handleJob(const std::string &rest) const;
    HttpResponse handleMetrics();
    HttpResponse handleExperiments() const;
    HttpResponse handleHealth() const;

    /**
     * Hand one accepted socket to an idle connection worker, starting
     * one if none is idle; at kMaxConnectionWorkers answer 503.
     */
    void dispatchConnection(int fd, std::string peer);

    /** Connection-worker body: serve handed-off sockets until drain. */
    void connectionWorkerLoop();

    /** Let the workers serve every handed-off socket, then join them. */
    void joinConnectionWorkers();

    /** Runner-thread body: pop fairly, run jobs until closed. */
    void runnerLoop();

    /** Execute one cold job end to end (cache re-probe, run, fan out). */
    void runJob(const std::shared_ptr<Job> &job);

    /** Respond with a finished job's outcome. */
    static HttpResponse jobOutcome(const std::shared_ptr<Job> &job,
                                   const char *cacheDisposition);

    void logf(const char *fmt, ...)
        __attribute__((format(printf, 2, 3)));

    ServeSpec spec_;
    core::ResultCache cache_;
    core::WorkerPool pool_;
    JobTable jobs_;
    Coalescer coalescer_;
    FairQueue queue_;
    stats::MetricsRegistry metrics_;

    int listenFd_ = -1;
    int wakePipe_[2] = {-1, -1};
    std::uint16_t boundPort_ = 0;
    std::atomic<bool> draining_{false};

    std::vector<std::thread> runners_;

    /** A socket handed to the connection workers. */
    struct Accepted
    {
        int fd = -1;
        std::string peer;
    };

    /** The connection workers and the sockets handed to them. */
    std::mutex connMutex_;
    std::condition_variable connReady_;
    std::deque<Accepted> accepted_;
    /** Workers not serving a socket, less the sockets not yet taken. */
    std::size_t idleWorkers_ = 0;
    bool connClosing_ = false;
    std::vector<std::thread> connWorkers_;
};

/**
 * The `cellbw serve` entry point: wire SIGTERM/SIGINT to a graceful
 * drain, start the server, block until it exits.
 */
int runServe(const ServeSpec &spec);

} // namespace cellbw::serve

#endif // CELLBW_SERVE_SERVER_HH
