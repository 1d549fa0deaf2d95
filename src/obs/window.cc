#include "obs/window.hh"

#include <cinttypes>
#include <cstdio>

#include "analysis/conflict_profiler.hh"
#include "common/logging.hh"
#include "core/sim_target.hh"

namespace cac::obs
{

double
ObsWindow::missRatio() const
{
    const std::uint64_t a = accesses();
    return a ? static_cast<double>(misses()) / static_cast<double>(a)
             : 0.0;
}

WindowSampler::WindowSampler(SimTarget &target, std::uint64_t window_size)
    : target_(&target),
      profiler_(dynamic_cast<const ConflictProfiler *>(&target)),
      window_(window_size)
{
    CAC_ASSERT(window_size > 0);
    // The stream may begin mid-life (e.g. after a warm-up phase):
    // baseline against whatever the target has already counted so the
    // first window covers only sampled work.
    last_ = read();
    current_.startAccess = last_.loads + last_.stores;
    current_.hasConflict = profiler_ != nullptr;
}

WindowSampler::Totals
WindowSampler::read() const
{
    target_->checkpoint();
    const TargetStats stats = target_->stats();
    Totals t;
    t.loads = stats.l1.loads;
    t.stores = stats.l1.stores;
    t.loadMisses = stats.l1.loadMisses;
    t.storeMisses = stats.l1.storeMisses;
    if (profiler_)
        t.conflictMisses = profiler_->profile().conflictMisses();
    return t;
}

void
WindowSampler::sample()
{
    const Totals now = read();
    current_.loads += now.loads - last_.loads;
    current_.stores += now.stores - last_.stores;
    current_.loadMisses += now.loadMisses - last_.loadMisses;
    current_.storeMisses += now.storeMisses - last_.storeMisses;
    // Conflict attribution is the one non-monotonic counter: the
    // profiler charges a miss as "conflict" only relative to its
    // fully-associative shadow, and the shadow can catch up within a
    // window, shrinking the cumulative count. Clamp the delta at zero
    // rather than letting the unsigned subtraction wrap.
    if (now.conflictMisses > last_.conflictMisses)
        current_.conflictMisses += now.conflictMisses - last_.conflictMisses;
    last_ = now;

    if (current_.accesses() >= window_) {
        current_.endAccess = current_.startAccess + current_.accesses();
        windows_.push_back(current_);
        ObsWindow next;
        next.index = current_.index + 1;
        next.startAccess = current_.endAccess;
        next.hasConflict = current_.hasConflict;
        current_ = next;
    }
}

void
WindowSampler::finish()
{
    if (finished_)
        return;
    finished_ = true;
    sample();
    // sample() may just have closed a full window; whatever is left is
    // the final partial window.
    if (current_.accesses() > 0) {
        current_.endAccess = current_.startAccess + current_.accesses();
        windows_.push_back(current_);
    }
}

std::string
windowsJson(const std::vector<ObsWindow> &windows, int indent)
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    std::string out = "[";
    char buf[256];
    bool first = true;
    for (const ObsWindow &w : windows) {
        out += first ? "\n" : ",\n";
        first = false;
        std::snprintf(buf, sizeof(buf),
                      "{\"index\": %" PRIu64 ", \"start\": %" PRIu64
                      ", \"end\": %" PRIu64 ", \"loads\": %" PRIu64
                      ", \"stores\": %" PRIu64 ", \"load_misses\": %" PRIu64
                      ", \"store_misses\": %" PRIu64
                      ", \"miss_ratio\": %.6f",
                      w.index, w.startAccess, w.endAccess, w.loads,
                      w.stores, w.loadMisses, w.storeMisses,
                      w.missRatio());
        out += pad + "  " + buf;
        if (w.hasConflict) {
            std::snprintf(buf, sizeof(buf),
                          ", \"conflict_misses\": %" PRIu64,
                          w.conflictMisses);
            out += buf;
        }
        out += "}";
    }
    out += first ? "]" : "\n" + pad + "]";
    return out;
}

std::string
windowsCsv(const std::vector<ObsWindow> &windows)
{
    const bool conflict =
        !windows.empty() && windows.front().hasConflict;
    std::string out =
        "window,start,end,loads,stores,load_misses,store_misses,"
        "miss_ratio";
    if (conflict)
        out += ",conflict_misses";
    out += "\n";
    char buf[256];
    for (const ObsWindow &w : windows) {
        std::snprintf(buf, sizeof(buf),
                      "%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%" PRIu64
                      ",%" PRIu64 ",%" PRIu64 ",%" PRIu64 ",%.6f",
                      w.index, w.startAccess, w.endAccess, w.loads,
                      w.stores, w.loadMisses, w.storeMisses,
                      w.missRatio());
        out += buf;
        if (conflict) {
            std::snprintf(buf, sizeof(buf), ",%" PRIu64,
                          w.conflictMisses);
            out += buf;
        }
        out += "\n";
    }
    return out;
}

} // namespace cac::obs
