/**
 * @file
 * cellbw_bench: the benchmark's C++ harness.
 *
 * benchmark/run.py drives the product as users do (`cellbw suite`,
 * `run`, `validate`, `serve`) and calls this binary for the parts that
 * need the library itself:
 *
 *   check <dir>     compare every report in <dir> with its committed
 *                   baseline (points at tolerance 0, metrics exactly)
 *                   and print one digest per report
 *   selftest        prove that check catches a flipped point value and
 *                   a flipped histogram bucket
 *   load            closed-loop HTTP client for `cellbw serve`
 *   replay          run a list of experiments in-process through the
 *                   suite (shared pool) or run (per-call threads) path,
 *                   with spans around each layer call
 *   probes          time single layers in-process (event queue, cell
 *                   build, runner, halo, cache, JSON, validate, HTTP
 *                   parse and route)
 *   host            print the build type and compiler of this binary
 *
 * Every other subcommand writes its result as one JSON document to
 * --out; stdout is free for the product's own progress output.
 */

#ifndef CELLBW_BENCH_HARNESS_HH
#define CELLBW_BENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace cellbw::bench
{

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** `--flag value` / bare `--flag` arguments of one subcommand. */
class Args
{
  public:
    Args(int argc, char **argv);

    bool has(const std::string &flag) const;
    std::string get(const std::string &flag,
                    const std::string &def = "") const;
    /** Throws std::invalid_argument on a malformed number. */
    std::uint64_t getUint(const std::string &flag,
                          std::uint64_t def) const;
    /** A comma-separated value as a list (empty when absent). */
    std::vector<std::string> getList(const std::string &flag) const;
    const std::vector<std::string> &positional() const
    {
        return positional_;
    }

  private:
    std::map<std::string, std::string> flags_;
    std::vector<std::string> positional_;
};

/**
 * Benchmark-side spans: name, start, end, parent.  Kept in memory and
 * written once, when the subcommand ends.
 */
class SpanLog
{
  public:
    explicit SpanLog(std::string workload);

    /** Open a span; @return its id (the parent of nested spans). */
    int begin(const std::string &name, int parent = -1);
    void end(int id);
    double seconds(int id) const;

    /** Write every span as a JSON array; false on I/O failure. */
    bool write(const std::string &path) const;

  private:
    struct Span
    {
        std::string name;
        Clock::time_point start;
        Clock::time_point end;
        int parent;
    };

    mutable std::mutex mutex_;
    std::vector<Span> spans_;
    std::string workload_;
    Clock::time_point origin_;
};

/** Named values with units, written as {"name": {"value", "unit"}}. */
class MetricSet
{
  public:
    void set(const std::string &name, double value,
             const std::string &unit);
    std::string json() const;

  private:
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        values_;
};

/** Linear-interpolated quantile of @p v (q in [0,1]); 0 when empty. */
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Process CPU time (user + sys, all threads) in seconds. */
double processCpuSeconds();

/** Write @p text to @p path; false (with a message) on failure. */
bool writeOut(const std::string &path, const std::string &text);

int cmdCheck(const Args &args);
int cmdSelftest(const Args &args);
int cmdLoad(const Args &args);
int cmdReplay(const Args &args);
int cmdProbes(const Args &args);

} // namespace cellbw::bench

#endif // CELLBW_BENCH_HARNESS_HH
