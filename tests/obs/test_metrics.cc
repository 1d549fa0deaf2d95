/**
 * @file
 * Tests for the metrics registry (obs/metrics.hh): the disabled
 * fast path, totals that are deterministic at 1, 4 and 8 worker
 * threads, gauge max-merge, log2-histogram bucketing and quantiles on
 * known distributions, reset(), live snapshots taken while writers
 * (and first-touch registrations) are in flight, and the JSON
 * rendering.
 */

#include <atomic>
#include <cstdint>
#include <limits>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/metrics.hh"

namespace cac::obs
{
namespace
{

TEST(Metrics, DisabledUpdatesAreDropped)
{
    Registry reg;
    const Counter c = reg.counter("c");
    c.add(5);
    EXPECT_EQ(reg.snapshot().counter("c"), 0u);

    reg.setEnabled(true);
    c.add(5);
    EXPECT_EQ(reg.snapshot().counter("c"), 5u);

    reg.setEnabled(false);
    c.add(5);
    EXPECT_EQ(reg.snapshot().counter("c"), 5u);
}

/** The same deterministic workload fanned out over @p threads. */
MetricsSnapshot
runSharded(unsigned threads)
{
    Registry reg;
    reg.setEnabled(true);
    const Counter hits = reg.counter("hits");
    const Counter misses = reg.counter("misses");
    const Gauge depth = reg.gauge("depth");
    const Histogram lat = reg.histogram("latency");

    // 64 work items, each contributing fixed amounts; the partition
    // across threads must not change the merged totals.
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < threads; ++t) {
        pool.emplace_back([&, t] {
            for (unsigned item = t; item < 64; item += threads) {
                hits.add(item);
                misses.add(1);
                depth.set(item);
                lat.observe(item * 100);
            }
        });
    }
    for (std::thread &th : pool)
        th.join();
    return reg.snapshot();
}

TEST(Metrics, TotalsAreDeterministicAcrossThreadCounts)
{
    const MetricsSnapshot one = runSharded(1);
    EXPECT_EQ(one.counter("hits"), 64u * 63u / 2u);
    EXPECT_EQ(one.counter("misses"), 64u);
    ASSERT_EQ(one.gauges.size(), 1u);
    EXPECT_EQ(one.gauges[0].second, 63u); // max-merge high-water mark
    ASSERT_EQ(one.histograms.size(), 1u);
    EXPECT_EQ(one.histograms[0].count, 64u);

    for (unsigned threads : {4u, 8u}) {
        const MetricsSnapshot many = runSharded(threads);
        EXPECT_EQ(many.counters, one.counters) << threads << " threads";
        EXPECT_EQ(many.gauges, one.gauges) << threads << " threads";
        ASSERT_EQ(many.histograms.size(), one.histograms.size());
        EXPECT_EQ(many.histograms[0].count, one.histograms[0].count);
        EXPECT_EQ(many.histograms[0].sum, one.histograms[0].sum);
        EXPECT_EQ(many.histograms[0].buckets, one.histograms[0].buckets);
        EXPECT_EQ(metricsJson(many), metricsJson(one))
            << threads << " threads";
    }
}

TEST(Metrics, SnapshotIsSortedByName)
{
    Registry reg;
    reg.setEnabled(true);
    reg.counter("zulu").add(1);
    reg.counter("alpha").add(1);
    reg.counter("mike").add(1);
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.counters.size(), 3u);
    EXPECT_EQ(snap.counters[0].first, "alpha");
    EXPECT_EQ(snap.counters[1].first, "mike");
    EXPECT_EQ(snap.counters[2].first, "zulu");
}

TEST(Metrics, HistogramQuantilesOnKnownDistribution)
{
    Registry reg;
    reg.setEnabled(true);
    const Histogram h = reg.histogram("h");

    // 90 observations of 1 (bucket 1, upper edge 1) and 10 of 1000
    // (bit_width 10, upper edge 1023): the median sits in the low
    // bucket, the p99 in the high one.
    for (int i = 0; i < 90; ++i)
        h.observe(1);
    for (int i = 0; i < 10; ++i)
        h.observe(1000);

    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    const HistSnapshot &hist = snap.histograms[0];
    EXPECT_EQ(hist.count, 100u);
    EXPECT_EQ(hist.sum, 90u + 10u * 1000u);
    EXPECT_EQ(hist.quantile(0.50), 1u);
    EXPECT_EQ(hist.quantile(0.90), 1u);
    EXPECT_EQ(hist.quantile(0.99), 1023u);
    EXPECT_EQ(hist.quantile(0.0), 1u);
    EXPECT_EQ(hist.quantile(1.0), 1023u);
}

TEST(Metrics, HistogramZeroBucket)
{
    Registry reg;
    reg.setEnabled(true);
    const Histogram h = reg.histogram("h");
    h.observe(0);
    const MetricsSnapshot snap = reg.snapshot();
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].buckets[0], 1u);
    EXPECT_EQ(snap.histograms[0].quantile(0.5), 0u);
}

TEST(Metrics, ResetZeroesEveryMetric)
{
    Registry reg;
    reg.setEnabled(true);
    reg.counter("c").add(7);
    reg.histogram("h").observe(9);
    reg.reset();
    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("c"), 0u);
    ASSERT_EQ(snap.histograms.size(), 1u);
    EXPECT_EQ(snap.histograms[0].count, 0u);
}

TEST(Metrics, LiveSnapshotsWhileWritersRun)
{
    Registry reg;
    reg.setEnabled(true);
    const Counter ops = reg.counter("ops");
    const Gauge high = reg.gauge("high");
    const Histogram lat = reg.histogram("lat");
    constexpr unsigned kWriters = 8;
    constexpr std::uint64_t kIters = 20000;

    std::atomic<unsigned> finished{0};
    std::vector<std::thread> writers;
    for (unsigned t = 0; t < kWriters; ++t) {
        writers.emplace_back([&, t] {
            for (std::uint64_t i = 0; i < kIters; ++i) {
                ops.add(1);
                high.set(i);
                lat.observe(i);
                // First touch mid-run: registration races the reader.
                if (i == kIters / 2) {
                    reg.counter("late." + std::to_string(t)).add(1);
                    reg.histogram("late.lat").observe(t);
                }
            }
            finished.fetch_add(1);
        });
    }

    // Successive live snapshots never see a counter go backwards, and
    // a histogram's count never runs ahead of its buckets.
    std::map<std::string, std::uint64_t> last;
    bool monotone = true;
    bool quantiles_bounded = true;
    unsigned reads = 0;
    do {
        const MetricsSnapshot snap = reg.snapshot();
        for (const auto &[name, value] : snap.counters) {
            monotone = monotone && value >= last[name];
            last[name] = value;
        }
        for (const HistSnapshot &hist : snap.histograms) {
            quantiles_bounded =
                quantiles_bounded
                && hist.quantile(1.0)
                       != std::numeric_limits<std::uint64_t>::max();
        }
        ++reads;
    } while (finished.load() < kWriters);
    for (std::thread &th : writers)
        th.join();
    EXPECT_TRUE(monotone);
    EXPECT_TRUE(quantiles_bounded);
    EXPECT_GT(reads, 0u);

    const MetricsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.counter("ops"), kWriters * kIters);
    for (unsigned t = 0; t < kWriters; ++t)
        EXPECT_EQ(snap.counter("late." + std::to_string(t)), 1u);
    ASSERT_EQ(snap.gauges.size(), 1u);
    EXPECT_EQ(snap.gauges[0].second, kIters - 1);
    ASSERT_EQ(snap.histograms.size(), 2u);
    EXPECT_EQ(snap.histograms[0].name, "lat");
    EXPECT_EQ(snap.histograms[0].count, kWriters * kIters);
    EXPECT_EQ(snap.histograms[0].sum, kWriters * (kIters * (kIters - 1) / 2));
    EXPECT_EQ(snap.histograms[1].name, "late.lat");
    EXPECT_EQ(snap.histograms[1].count, kWriters);
}

TEST(Metrics, SameNameReturnsSameMetric)
{
    Registry reg;
    reg.setEnabled(true);
    reg.counter("dup").add(3);
    reg.counter("dup").add(4);
    EXPECT_EQ(reg.snapshot().counter("dup"), 7u);
}

TEST(Metrics, JsonRenderingContainsAllSections)
{
    Registry reg;
    reg.setEnabled(true);
    reg.counter("trace.retries").add(2);
    reg.gauge("queue.depth").set(5);
    reg.histogram("lat").observe(100);
    const std::string json = metricsJson(reg.snapshot());
    EXPECT_NE(json.find("\"counters\""), std::string::npos);
    EXPECT_NE(json.find("\"gauges\""), std::string::npos);
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"trace.retries\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"queue.depth\": 5"), std::string::npos);
}

} // anonymous namespace
} // namespace cac::obs
