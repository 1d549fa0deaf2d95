/**
 * @file
 * Metrics registry: counters, gauges and log-bucket histograms held in
 * shared atomic cells, read into a deterministic name-sorted snapshot.
 *
 * Design constraints (this rides inside a replay engine doing >100M
 * accesses/s, so the hot-path rules are strict):
 *
 *  - An update while metrics are runtime-disabled costs one relaxed
 *    atomic load and a branch.
 *  - An update while enabled is one or two relaxed atomic operations
 *    on the metric's own cell; handles point straight at their cell,
 *    so there is no lookup and no lock on the update path.
 *  - Updates happen at *boundaries* (per chunk, per segment, per
 *    request, per retry), never per access; see obs/obs.hh. At that
 *    rate contention on a shared cell is negligible.
 *
 * Determinism: every update is order-independent (counters and
 * histogram buckets sum, gauges take the max) and snapshots sort by
 * name, so the snapshot of a run is identical whether the work ran on
 * 1, 4 or 8 worker threads (tests/obs/test_metrics.cc pins this down).
 *
 * Concurrency contract: updates, registration, snapshot() and reset()
 * are all safe from any number of threads at once, so a live read
 * while work is in flight (the service's Stats request) is allowed.
 * A live snapshot reads each cell once: counters never go backwards
 * between successive snapshots, and a histogram's count is derived
 * from its buckets so it never runs ahead of them. Totals are exact
 * only once the writers have stopped. Cells are owned by the registry
 * and live as long as it does.
 */

#ifndef CAC_OBS_METRICS_HH
#define CAC_OBS_METRICS_HH

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace cac::obs
{

class Registry;

/** Number of log2 histogram buckets: bucket k holds values with
 *  bit_width(v) == k, i.e. bucket 0 is v==0 and bucket k>=1 covers
 *  [2^(k-1), 2^k - 1]. 65 buckets span all of uint64_t. */
constexpr std::size_t kHistBuckets = 65;

/**
 * Storage of one registered metric: a counter's total, a gauge's
 * high-water mark or a histogram's sum in @c value, plus a histogram's
 * log2 buckets. Owned by its Registry at a fixed address; handles
 * point at it directly.
 */
struct MetricCell
{
    std::atomic<std::uint64_t> value{0};
    std::array<std::atomic<std::uint64_t>, kHistBuckets> buckets{};
};

/**
 * Handle to a named monotonic counter. Cheap to copy; obtain once per
 * call site (e.g. a function-local static) via Registry::counter().
 */
class Counter
{
  public:
    Counter() = default;
    /** Add @p v to the counter (no-op while disabled). */
    void add(std::uint64_t v) const;

  private:
    friend class Registry;
    Counter(const Registry *owner, MetricCell *cell)
        : owner_(owner), cell_(cell)
    {
    }
    const Registry *owner_ = nullptr;
    MetricCell *cell_ = nullptr;
};

/**
 * Handle to a named gauge. A gauge keeps the high-water mark of every
 * value set from any thread (e.g. deepest queue, largest occupancy).
 */
class Gauge
{
  public:
    Gauge() = default;
    /** Raise the gauge to at least @p v. */
    void set(std::uint64_t v) const;

  private:
    friend class Registry;
    Gauge(const Registry *owner, MetricCell *cell)
        : owner_(owner), cell_(cell)
    {
    }
    const Registry *owner_ = nullptr;
    MetricCell *cell_ = nullptr;
};

/**
 * Handle to a named log2-bucket histogram (for durations, sizes,
 * retry counts — anything spanning orders of magnitude).
 */
class Histogram
{
  public:
    Histogram() = default;
    /** Record one observation of @p v. */
    void observe(std::uint64_t v) const;

  private:
    friend class Registry;
    Histogram(const Registry *owner, MetricCell *cell)
        : owner_(owner), cell_(cell)
    {
    }
    const Registry *owner_ = nullptr;
    MetricCell *cell_ = nullptr;
};

/** One histogram in a snapshot. */
struct HistSnapshot
{
    std::string name;
    std::uint64_t count = 0; ///< total observations (sum of buckets)
    std::uint64_t sum = 0;   ///< sum of observed values
    std::array<std::uint64_t, kHistBuckets> buckets{};

    /**
     * Value at quantile @p q in [0, 1]: the upper edge of the log2
     * bucket containing that rank (2^k - 1 for bucket k, 0 for the
     * zero bucket). An upper bound on the true quantile, exact to the
     * bucket resolution.
     */
    std::uint64_t quantile(double q) const;
};

/** Deterministic view of every metric, sorted by metric name. */
struct MetricsSnapshot
{
    std::vector<std::pair<std::string, std::uint64_t>> counters;
    std::vector<std::pair<std::string, std::uint64_t>> gauges;
    std::vector<HistSnapshot> histograms;

    /** Counter value by name; 0 when absent. */
    std::uint64_t counter(const std::string &name) const;
};

/**
 * The metric registry. One process-wide instance (global()) serves the
 * engine; tests may build private instances.
 */
class Registry
{
  public:
    Registry();
    ~Registry();
    Registry(const Registry &) = delete;
    Registry &operator=(const Registry &) = delete;

    /** The engine-wide registry the instrumentation macros use. */
    static Registry &global();

    /**
     * Register (or look up) a metric by name. Names are stable
     * identifiers ("trace.chunks_decoded"); repeated calls with the
     * same name return handles to the same metric.
     */
    Counter counter(const std::string &name);
    Gauge gauge(const std::string &name);
    Histogram histogram(const std::string &name);

    /** Runtime switch. Disabled (the default) makes updates no-ops. */
    void setEnabled(bool on);
    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Read every metric; safe while updates are in flight. */
    MetricsSnapshot snapshot() const;

    /** Zero every metric; safe while updates are in flight. */
    void reset();

  private:
    enum class Kind;
    struct Metric;

    /** The cell of metric @p name of @p kind, registered on first use. */
    MetricCell *cell(const std::string &name, Kind kind);

    std::atomic<bool> enabled_{false};
    mutable std::mutex mutex_; ///< guards metrics_ registration
    std::vector<std::unique_ptr<Metric>> metrics_;
};

/**
 * Render a snapshot as a JSON object fragment:
 * {"counters": {...}, "gauges": {...}, "histograms": [...]}.
 * @p indent is the number of leading spaces on each emitted line.
 */
std::string metricsJson(const MetricsSnapshot &snap, int indent = 2);

} // namespace cac::obs

#endif // CAC_OBS_METRICS_HH
