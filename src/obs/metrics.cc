#include "obs/metrics.hh"

#include <algorithm>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <limits>

#include "obs/json_util.hh"

namespace cac::obs
{

enum class Registry::Kind
{
    Counter,
    Gauge,
    Histogram
};

struct Registry::Metric
{
    std::string name;
    Kind kind = Kind::Counter;
    MetricCell cell;
};

Registry::Registry() = default;

Registry::~Registry() = default;

Registry &
Registry::global()
{
    static Registry instance;
    return instance;
}

MetricCell *
Registry::cell(const std::string &name, Kind kind)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &metric : metrics_) {
        if (metric->kind == kind && metric->name == name)
            return &metric->cell;
    }
    auto &metric = metrics_.emplace_back(std::make_unique<Metric>());
    metric->name = name;
    metric->kind = kind;
    return &metric->cell;
}

Counter
Registry::counter(const std::string &name)
{
    return Counter(this, cell(name, Kind::Counter));
}

Gauge
Registry::gauge(const std::string &name)
{
    return Gauge(this, cell(name, Kind::Gauge));
}

Histogram
Registry::histogram(const std::string &name)
{
    return Histogram(this, cell(name, Kind::Histogram));
}

void
Registry::setEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

void
Counter::add(std::uint64_t v) const
{
    if (!owner_ || !owner_->enabled())
        return;
    cell_->value.fetch_add(v, std::memory_order_relaxed);
}

void
Gauge::set(std::uint64_t v) const
{
    if (!owner_ || !owner_->enabled())
        return;
    std::uint64_t high = cell_->value.load(std::memory_order_relaxed);
    while (high < v
           && !cell_->value.compare_exchange_weak(
               high, v, std::memory_order_relaxed)) {
    }
}

void
Histogram::observe(std::uint64_t v) const
{
    if (!owner_ || !owner_->enabled())
        return;
    cell_->value.fetch_add(v, std::memory_order_relaxed);
    cell_->buckets[std::bit_width(v)].fetch_add(1,
                                                std::memory_order_relaxed);
}

MetricsSnapshot
Registry::snapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    MetricsSnapshot snap;
    for (const auto &metric : metrics_) {
        const std::uint64_t value =
            metric->cell.value.load(std::memory_order_relaxed);
        switch (metric->kind) {
          case Kind::Counter:
            snap.counters.emplace_back(metric->name, value);
            break;
          case Kind::Gauge:
            snap.gauges.emplace_back(metric->name, value);
            break;
          case Kind::Histogram: {
            HistSnapshot hist;
            hist.name = metric->name;
            hist.sum = value;
            for (std::size_t b = 0; b < kHistBuckets; ++b) {
                hist.buckets[b] =
                    metric->cell.buckets[b].load(std::memory_order_relaxed);
                hist.count += hist.buckets[b];
            }
            snap.histograms.push_back(std::move(hist));
            break;
          }
        }
    }
    auto byName = [](const auto &a, const auto &b) {
        return a.first < b.first;
    };
    std::sort(snap.counters.begin(), snap.counters.end(), byName);
    std::sort(snap.gauges.begin(), snap.gauges.end(), byName);
    std::sort(snap.histograms.begin(), snap.histograms.end(),
              [](const HistSnapshot &a, const HistSnapshot &b) {
                  return a.name < b.name;
              });
    return snap;
}

void
Registry::reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto &metric : metrics_) {
        metric->cell.value.store(0, std::memory_order_relaxed);
        for (auto &bucket : metric->cell.buckets)
            bucket.store(0, std::memory_order_relaxed);
    }
}

std::uint64_t
HistSnapshot::quantile(double q) const
{
    if (count == 0)
        return 0;
    q = std::clamp(q, 0.0, 1.0);
    auto rank = static_cast<std::uint64_t>(q * static_cast<double>(count));
    rank = std::max<std::uint64_t>(rank, 1);
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kHistBuckets; ++b) {
        seen += buckets[b];
        if (seen >= rank) {
            if (b == 0)
                return 0;
            if (b >= 64)
                return std::numeric_limits<std::uint64_t>::max();
            return (std::uint64_t{1} << b) - 1;
        }
    }
    return std::numeric_limits<std::uint64_t>::max();
}

std::uint64_t
MetricsSnapshot::counter(const std::string &name) const
{
    for (const auto &[n, v] : counters) {
        if (n == name)
            return v;
    }
    return 0;
}

std::string
metricsJson(const MetricsSnapshot &snap, int indent)
{
    const std::string pad(static_cast<std::size_t>(indent), ' ');
    std::string out;
    char buf[128];

    auto scalarMap = [&](const char *key, const auto &pairs) {
        out += pad + "\"" + key + "\": {";
        bool first = true;
        for (const auto &[name, value] : pairs) {
            out += first ? "\n" : ",\n";
            first = false;
            std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
            out += pad + "  \"" + jsonEscape(name) + "\": " + buf;
        }
        out += first ? "}" : "\n" + pad + "}";
    };

    scalarMap("counters", snap.counters);
    out += ",\n";
    scalarMap("gauges", snap.gauges);
    out += ",\n" + pad + "\"histograms\": [";
    bool first_hist = true;
    for (const HistSnapshot &hist : snap.histograms) {
        out += first_hist ? "\n" : ",\n";
        first_hist = false;
        std::snprintf(buf, sizeof(buf),
                      "\"count\": %" PRIu64 ", \"sum\": %" PRIu64
                      ", \"p50\": %" PRIu64 ", \"p90\": %" PRIu64
                      ", \"p99\": %" PRIu64,
                      hist.count, hist.sum, hist.quantile(0.50),
                      hist.quantile(0.90), hist.quantile(0.99));
        out += pad + "  {\"name\": \"" + jsonEscape(hist.name) + "\", "
               + buf + ", \"buckets\": [";
        bool first_bucket = true;
        for (std::size_t b = 0; b < kHistBuckets; ++b) {
            if (hist.buckets[b] == 0)
                continue;
            std::snprintf(buf, sizeof(buf),
                          "{\"bit\": %zu, \"count\": %" PRIu64 "}", b,
                          hist.buckets[b]);
            out += first_bucket ? "" : ", ";
            first_bucket = false;
            out += buf;
        }
        out += "]}";
    }
    out += first_hist ? "]" : "\n" + pad + "]";
    return out;
}

} // namespace cac::obs
