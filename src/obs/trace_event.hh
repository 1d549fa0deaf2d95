/**
 * @file
 * Tracing spans: one bounded buffer of begin/end intervals shared by
 * every thread, exported as Chrome trace-event JSON — the file loads
 * directly in chrome://tracing or https://ui.perfetto.dev.
 *
 * Span discipline mirrors the metrics layer (obs/metrics.hh): opening
 * a span while tracing is runtime-disabled costs one relaxed atomic
 * load; while enabled, closing a span appends one record to the
 * tracer's buffer under its mutex. Spans open at boundaries only, so
 * that lock is uncontended in practice. The buffer's capacity is a
 * total across all threads; once it is full, further spans are counted
 * as dropped rather than evicting older ones, and the drop count is
 * reported in the emitted file's otherData.
 *
 * Each span carries the recording thread's process-wide id, the same
 * id the log sink prints (common/logging.hh), so a trace lane and a
 * log line from one thread match.
 *
 * Nesting: start and end times are read from one monotonic clock and
 * truncated identically, so a span opened inside another is always
 * contained in it down to the microsecond — tools/check_obs.py
 * validates per-thread span nesting exactly, no epsilon.
 *
 * drain(), dropped() and clear() are safe while other threads record.
 */

#ifndef CAC_OBS_TRACE_EVENT_HH
#define CAC_OBS_TRACE_EVENT_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace cac::obs
{

struct RunManifest;

/** One completed span. cat/name point at string literals. */
struct TraceEvent
{
    const char *cat = "";
    const char *name = "";
    std::string detail;      ///< optional per-instance argument
    std::uint64_t startUs = 0;
    std::uint64_t endUs = 0;
    std::uint32_t tid = 0;   ///< recording thread's id (see threadId())
};

/**
 * The span collector. One process-wide instance (global()) serves the
 * engine; tests may build private instances.
 */
class Tracer
{
  public:
    /** Default capacity (spans, total across all threads). */
    static constexpr std::size_t kDefaultCapacity = 1 << 18;

    Tracer();
    Tracer(const Tracer &) = delete;
    Tracer &operator=(const Tracer &) = delete;

    /** The engine-wide tracer CAC_OBS_SPAN records into. */
    static Tracer &global();

    /**
     * Start collecting. Resets the time origin to now; spans opened
     * from here on are recorded, up to @p capacity in total. Spans
     * recorded by earlier runs are cleared.
     */
    void enable(std::size_t capacity = kDefaultCapacity);

    /** Stop collecting (already-recorded spans are kept). */
    void disable();

    bool
    enabled() const
    {
        return enabled_.load(std::memory_order_relaxed);
    }

    /** Microseconds since enable() on the tracer's monotonic clock. */
    std::uint64_t nowUs() const;

    /** Append a completed span, or count it dropped when full. */
    void record(const char *cat, const char *name, std::uint64_t start_us,
                std::uint64_t end_us, std::string detail = {});

    /**
     * Copy of every recorded span, sorted for viewer/validator
     * consumption: by start time, then longer spans first (parents
     * before children), then thread id. Spans equal on all three
     * keys keep no defined order.
     */
    std::vector<TraceEvent> drain() const;

    /** Total spans rejected because the buffer was full. */
    std::uint64_t dropped() const;

    /** Drop all recorded spans and the drop count. */
    void clear();

  private:
    std::atomic<bool> enabled_{false};
    std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mutex_; ///< guards the three members below
    std::size_t capacity_ = kDefaultCapacity;
    std::vector<TraceEvent> events_;
    std::uint64_t dropped_ = 0;
};

/**
 * RAII span: reads the clock on construction, records on destruction.
 * Does nothing (and never touches the clock) while the tracer is
 * disabled at construction time.
 */
class ScopedSpan
{
  public:
    ScopedSpan(const char *cat, const char *name)
        : ScopedSpan(cat, name, std::string())
    {
    }

    ScopedSpan(const char *cat, const char *name, std::string detail);
    ~ScopedSpan();
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    const char *cat_;
    const char *name_;
    std::string detail_;
    std::uint64_t start_us_ = 0;
    bool live_ = false;
};

/**
 * Render spans as a complete Chrome trace-event JSON document
 * ({"traceEvents": [...], "displayTimeUnit": "ms", "otherData": ...}).
 * @p manifest, when given, is embedded under otherData.manifest.
 */
std::string chromeTraceJson(const std::vector<TraceEvent> &events,
                            std::uint64_t dropped,
                            const RunManifest *manifest = nullptr);

} // namespace cac::obs

#endif // CAC_OBS_TRACE_EVENT_HH
