/**
 * @file
 * Windowed time-series sampling: per-N-accesses windows of miss
 * ratio and conflict misses over a replay.
 *
 * End-of-run aggregates hide phase behavior — a 12% overall miss
 * ratio can be 2% for half the run and 22% for the other half, which
 * is exactly the signal the ROADMAP's online adaptive re-indexing
 * item needs to detect. A WindowSampler sits next to a replay loop
 * and is poked at chunk/segment boundaries (never per access); it
 * checkpoints the target, diffs the stats against the previous poke,
 * and closes a window every time the accumulated access count crosses
 * the window size.
 *
 * Because sampling happens only at boundaries, windows are quantized:
 * each window holds *at least* window_size accesses (the boundary
 * overshoot stays in the window that crossed). Window edges are
 * stream positions (cumulative accesses), so the series is
 * deterministic for a deterministic replay — independent of wall
 * clock, thread count and host.
 */

#ifndef CAC_OBS_WINDOW_HH
#define CAC_OBS_WINDOW_HH

#include <cstdint>
#include <string>
#include <vector>

namespace cac
{
class SimTarget;
class ConflictProfiler;
} // namespace cac

namespace cac::obs
{

/** One closed window of the time series. */
struct ObsWindow
{
    std::uint64_t index = 0;       ///< 0-based window number
    std::uint64_t startAccess = 0; ///< cumulative accesses at open
    std::uint64_t endAccess = 0;   ///< cumulative accesses at close

    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t loadMisses = 0;
    std::uint64_t storeMisses = 0;

    bool hasConflict = false;        ///< target wrapped by a profiler
    std::uint64_t conflictMisses = 0;

    std::uint64_t
    accesses() const
    {
        return loads + stores;
    }

    std::uint64_t
    misses() const
    {
        return loadMisses + storeMisses;
    }

    double missRatio() const;
};

/**
 * Boundary-driven window sampler over one SimTarget. Construct before
 * the replay starts, call sample() at every chunk/segment boundary,
 * finish() after the target's own finish(). Not thread-safe — one
 * sampler per replay stream, poked from the streaming thread.
 */
class WindowSampler
{
  public:
    /**
     * @param target the target being replayed. When it is (or wraps
     *        into) a ConflictProfiler, windows carry conflict misses.
     * @param window_size minimum accesses per window (> 0).
     */
    WindowSampler(SimTarget &target, std::uint64_t window_size);

    /** Diff stats since the last poke; close windows as crossed. */
    void sample();

    /** Close the final partial window (idempotent). */
    void finish();

    const std::vector<ObsWindow> &
    windows() const
    {
        return windows_;
    }

    std::uint64_t
    windowSize() const
    {
        return window_;
    }

  private:
    struct Totals
    {
        std::uint64_t loads = 0, stores = 0;
        std::uint64_t loadMisses = 0, storeMisses = 0;
        std::uint64_t conflictMisses = 0;
    };

    Totals read() const;

    SimTarget *target_;
    const ConflictProfiler *profiler_; ///< non-null when attributable
    std::uint64_t window_;
    Totals last_;       ///< totals at the previous poke
    ObsWindow current_; ///< accumulating window
    std::vector<ObsWindow> windows_;
    bool finished_ = false;
};

/**
 * Render windows as a JSON array fragment ("[...]"), each line
 * indented by @p indent spaces.
 */
std::string windowsJson(const std::vector<ObsWindow> &windows,
                        int indent = 2);

/** Render windows as CSV (header + one row per window). */
std::string windowsCsv(const std::vector<ObsWindow> &windows);

} // namespace cac::obs

#endif // CAC_OBS_WINDOW_HH
