/**
 * @file
 * A machine-wide metrics registry: named utilization counters that turn
 * a bandwidth number into a diagnosis.
 *
 * The paper *explains* sustained-bandwidth results through component
 * behaviour — EIB ring conflicts, DMA queue occupancy, bank scheduling.
 * MetricsRegistry is where every component books those events under a
 * hierarchical `component.metric` name (`eib0.ring1.grants`,
 * `mem.bank0.row_conflicts`, `spe3.mfc.queue_depth`), so a run can be
 * exported as one machine-readable snapshot.
 *
 * Three metric kinds:
 *  - Counter:   a monotonically accumulated uint64 (events, bytes,
 *               ticks).  add() is atomic, so concurrent seed-sweep
 *               workers can fold their per-run totals into one shared
 *               registry; addition is commutative, so the totals are
 *               deterministic regardless of thread interleaving.
 *  - Gauge:     a last-write-wins double (a rate, a fraction).
 *  - Histogram: one integer bucket per value, grown to the largest
 *               sample, plus exact count/sum — integer arithmetic
 *               only, so merged histograms are also order-independent.
 *
 * Registration is idempotent: asking for an existing name of the same
 * kind returns the same metric (that is how N runs accumulate);
 * re-registering a name as a *different* kind is a programming error
 * and fatal()s.
 */

#ifndef CELLBW_STATS_METRICS_HH
#define CELLBW_STATS_METRICS_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cellbw::stats
{

class JsonWriter;

/** Monotonic event counter; atomic so cross-thread adds are exact. */
class Counter
{
  public:
    void add(std::uint64_t delta)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    void increment() { add(1); }

    std::uint64_t value() const
    {
        return value_.load(std::memory_order_relaxed);
    }

  private:
    std::atomic<std::uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void set(double v) { value_.store(v, std::memory_order_relaxed); }
    double value() const { return value_.load(std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/** Integer histogram with one bucket per value 0..largest sample.  The
 *  buckets grow with the samples, so the shape never depends on which
 *  of several merging runs registered the histogram first.  Samples
 *  are small counts (queue depths): each value up to the largest costs
 *  a bucket. */
class Histogram
{
  public:
    void add(std::uint64_t sample);

    /** Merge a pre-binned bucket: @p count samples of value @p bucket. */
    void addBucket(std::uint64_t bucket, std::uint64_t count);

    std::uint64_t count() const;
    std::uint64_t sum() const;
    double mean() const;

    /** Bucket 0 through the largest sample's bucket ({0} when empty). */
    std::vector<std::uint64_t> buckets() const;

  private:
    mutable std::mutex mutex_;
    std::vector<std::uint64_t> buckets_ = {0};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

class MetricsRegistry
{
  public:
    MetricsRegistry() = default;

    MetricsRegistry(const MetricsRegistry &) = delete;
    MetricsRegistry &operator=(const MetricsRegistry &) = delete;

    /** @name Register-or-find; fatal() on a cross-kind name collision.
     *        The returned reference lives as long as the registry. */
    /** @{ */
    Counter &counter(const std::string &name);
    Gauge &gauge(const std::string &name);
    Histogram &histogram(const std::string &name);
    /** @} */

    /** Lookup without creating; nullptr when absent or a different
     *  kind. */
    const Counter *findCounter(const std::string &name) const;
    const Gauge *findGauge(const std::string &name) const;
    const Histogram *findHistogram(const std::string &name) const;

    std::size_t size() const;

    /** All metric names in sorted (byte) order. */
    std::vector<std::string> names() const;

    /** Drop every metric. */
    void clear();

    /**
     * Serialize every metric, sorted by name, as one JSON object value:
     * counters as integers, gauges as numbers, histograms as
     * `{"count":..,"sum":..,"mean":..,"buckets":[..]}` (buckets
     * truncated after the highest non-empty one).  The writer must be
     * positioned where a value is expected (e.g. after key()).
     */
    void writeJson(JsonWriter &w) const;

    /** Human-readable one-metric-per-line dump (tests, debugging). */
    std::string render() const;

  private:
    enum class Kind { Counter, Gauge, Histogram };

    struct Entry
    {
        Kind kind;
        std::unique_ptr<Counter> counter;
        std::unique_ptr<Gauge> gauge;
        std::unique_ptr<Histogram> histogram;
    };

    static const char *toString(Kind k);

    mutable std::mutex mutex_;
    std::map<std::string, Entry> entries_;
};

} // namespace cellbw::stats

#endif // CELLBW_STATS_METRICS_HH
