#include "obs/trace_event.hh"

#include <algorithm>
#include <cinttypes>
#include <cstdio>

#include "common/logging.hh"
#include "obs/json_util.hh"
#include "obs/manifest.hh"

namespace cac::obs
{

Tracer::Tracer() : origin_(std::chrono::steady_clock::now()) {}

Tracer &
Tracer::global()
{
    static Tracer instance;
    return instance;
}

void
Tracer::enable(std::size_t capacity)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        capacity_ = capacity;
        events_.clear();
        dropped_ = 0;
    }
    enabled_.store(true, std::memory_order_relaxed);
}

void
Tracer::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
}

std::uint64_t
Tracer::nowUs() const
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - origin_)
            .count());
}

void
Tracer::record(const char *cat, const char *name, std::uint64_t start_us,
               std::uint64_t end_us, std::string detail)
{
    if (!enabled())
        return;
    TraceEvent event;
    event.cat = cat;
    event.name = name;
    event.detail = std::move(detail);
    event.startUs = start_us;
    event.endUs = end_us;
    event.tid = threadId();
    std::lock_guard<std::mutex> lock(mutex_);
    if (events_.size() >= capacity_) {
        dropped_ += 1;
        return;
    }
    events_.push_back(std::move(event));
}

std::vector<TraceEvent>
Tracer::drain() const
{
    std::vector<TraceEvent> all;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        all = events_;
    }
    std::sort(all.begin(), all.end(),
              [](const TraceEvent &a, const TraceEvent &b) {
                  if (a.startUs != b.startUs)
                      return a.startUs < b.startUs;
                  if (a.endUs != b.endUs)
                      return a.endUs > b.endUs; // parents first
                  return a.tid < b.tid;
              });
    return all;
}

std::uint64_t
Tracer::dropped() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return dropped_;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    events_.clear();
    dropped_ = 0;
}

ScopedSpan::ScopedSpan(const char *cat, const char *name,
                       std::string detail)
    : cat_(cat), name_(name), detail_(std::move(detail))
{
    Tracer &tracer = Tracer::global();
    if (!tracer.enabled())
        return;
    live_ = true;
    start_us_ = tracer.nowUs();
}

ScopedSpan::~ScopedSpan()
{
    if (!live_)
        return;
    Tracer &tracer = Tracer::global();
    tracer.record(cat_, name_, start_us_, tracer.nowUs(),
                  std::move(detail_));
}

std::string
chromeTraceJson(const std::vector<TraceEvent> &events,
                std::uint64_t dropped, const RunManifest *manifest)
{
    std::string out = "{\n  \"traceEvents\": [";
    char buf[160];
    bool first = true;
    for (const TraceEvent &event : events) {
        out += first ? "\n" : ",\n";
        first = false;
        std::snprintf(buf, sizeof(buf),
                      "\"ph\": \"X\", \"ts\": %" PRIu64
                      ", \"dur\": %" PRIu64 ", \"pid\": 1, \"tid\": %u",
                      event.startUs, event.endUs - event.startUs,
                      event.tid);
        out += "    {\"name\": \"" + jsonEscape(event.name)
               + "\", \"cat\": \"" + jsonEscape(event.cat) + "\", " + buf;
        if (!event.detail.empty())
            out += ", \"args\": {\"detail\": \"" + jsonEscape(event.detail)
                   + "\"}";
        out += "}";
    }
    out += first ? "],\n" : "\n  ],\n";
    out += "  \"displayTimeUnit\": \"ms\",\n";
    out += "  \"otherData\": {\n";
    std::snprintf(buf, sizeof(buf),
                  "    \"dropped_events\": %" PRIu64 ",\n", dropped);
    out += buf;
    std::snprintf(buf, sizeof(buf), "    \"span_count\": %zu",
                  events.size());
    out += buf;
    if (manifest) {
        out += ",\n    \"manifest\": ";
        out += manifestJson(*manifest, 4);
    }
    out += "\n  }\n}\n";
    return out;
}

} // namespace cac::obs
