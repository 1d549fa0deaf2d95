/**
 * @file
 * Tests for the span tracer (obs/trace_event.hh): the disabled fast
 * path, nesting invariants (a child span is always contained in its
 * parent, exactly — both ends read the same truncating clock), total
 * capacity + drop accounting, multi-thread collection, drain(),
 * dropped() and enable() while threads record, and the Chrome
 * trace-event JSON document shape.
 */

#include <atomic>
#include <chrono>
#include <cstdint>
#include <set>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/manifest.hh"
#include "obs/trace_event.hh"

namespace cac::obs
{
namespace
{

TEST(Tracer, DisabledRecordsNothing)
{
    Tracer tracer;
    tracer.record("t", "span", 0, 1);
    EXPECT_TRUE(tracer.drain().empty());
    EXPECT_EQ(tracer.dropped(), 0u);
}

TEST(Tracer, EnableResetsEarlierSpans)
{
    Tracer tracer;
    tracer.enable();
    tracer.record("t", "old", 0, 1);
    tracer.enable(); // a new run: previous spans cleared
    tracer.record("t", "new", 0, 1);
    const std::vector<TraceEvent> events = tracer.drain();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "new");
}

/**
 * Spin until the tracer clock moves on. Spans opened on either side of
 * the call get distinct start times; spans with identical start and
 * end times have no defined drain() order.
 */
void
waitForClockTick(const Tracer &tracer)
{
    const std::uint64_t now = tracer.nowUs();
    while (tracer.nowUs() == now) {
    }
}

TEST(Tracer, ScopedSpansNestExactly)
{
    Tracer &tracer = Tracer::global();
    tracer.enable();
    {
        ScopedSpan outer("test", "outer");
        waitForClockTick(tracer);
        {
            ScopedSpan inner("test", "inner", "detail-1");
        }
        waitForClockTick(tracer);
        {
            ScopedSpan inner2("test", "inner2");
        }
    }
    const std::vector<TraceEvent> events = tracer.drain();
    tracer.disable();
    tracer.clear();
    ASSERT_EQ(events.size(), 3u);

    // drain() sorts parents first: outer, then the children in order.
    EXPECT_STREQ(events[0].name, "outer");
    EXPECT_STREQ(events[1].name, "inner");
    EXPECT_STREQ(events[2].name, "inner2");
    EXPECT_EQ(events[1].detail, "detail-1");

    // Exact containment, no epsilon: both ends truncate one clock.
    for (int child : {1, 2}) {
        EXPECT_GE(events[child].startUs, events[0].startUs);
        EXPECT_LE(events[child].endUs, events[0].endUs);
        EXPECT_LE(events[child].startUs, events[child].endUs);
    }
    // The siblings are disjoint in program order.
    EXPECT_LE(events[1].endUs, events[2].startUs);
}

TEST(Tracer, SpanOpenAcrossEnableEndsAfterItStarts)
{
    Tracer &tracer = Tracer::global();
    tracer.enable();
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    {
        ScopedSpan span("test", "open-across-enable");
        tracer.enable(); // a second run starts while the span is open
    }
    const std::vector<TraceEvent> events = tracer.drain();
    tracer.disable();
    tracer.clear();
    ASSERT_EQ(events.size(), 1u);
    EXPECT_GE(events[0].endUs, events[0].startUs);
}

TEST(Tracer, FullBufferCountsDrops)
{
    Tracer tracer;
    tracer.enable(/*capacity=*/4);
    for (int i = 0; i < 10; ++i)
        tracer.record("t", "s", i, i + 1);
    EXPECT_EQ(tracer.drain().size(), 4u);
    EXPECT_EQ(tracer.dropped(), 6u);
    tracer.clear();
    EXPECT_EQ(tracer.dropped(), 0u);
    EXPECT_TRUE(tracer.drain().empty());
}

TEST(Tracer, ThreadsGetDistinctIds)
{
    Tracer tracer;
    tracer.enable();
    std::vector<std::thread> pool;
    for (int t = 0; t < 4; ++t) {
        pool.emplace_back([&tracer] {
            tracer.record("t", "worker", 0, 1);
        });
    }
    for (std::thread &th : pool)
        th.join();
    const std::vector<TraceEvent> events = tracer.drain();
    ASSERT_EQ(events.size(), 4u);
    std::set<std::uint32_t> tids;
    for (const TraceEvent &e : events)
        tids.insert(e.tid);
    EXPECT_EQ(tids.size(), 4u);
}

TEST(Tracer, DrainWhileThreadsRecord)
{
    constexpr unsigned kThreads = 4;
    constexpr unsigned kSpans = 2000;
    constexpr std::size_t kCapacity = 5000; // total, not per thread
    Tracer tracer;
    tracer.enable(kCapacity);
    std::atomic<unsigned> finished{0};
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kThreads; ++t) {
        pool.emplace_back([&tracer, &finished] {
            for (unsigned i = 0; i < kSpans; ++i)
                tracer.record("t", "worker", i, i + 1);
            finished.fetch_add(1);
        });
    }
    // Each live read sees a prefix of the run: kept + dropped only
    // grows, and kept never exceeds the capacity.
    std::uint64_t seen = 0;
    bool growing = true;
    do {
        const std::uint64_t dropped = tracer.dropped();
        const std::size_t kept = tracer.drain().size();
        growing = growing && kept <= kCapacity && kept + dropped >= seen;
        seen = kept + dropped;
    } while (finished.load() < kThreads);
    for (std::thread &th : pool)
        th.join();
    EXPECT_TRUE(growing);

    const std::vector<TraceEvent> events = tracer.drain();
    EXPECT_EQ(events.size(), kCapacity);
    EXPECT_EQ(tracer.dropped(), kThreads * kSpans - kCapacity);
}

TEST(Tracer, EnableWhileThreadsRecord)
{
    Tracer tracer;
    tracer.enable();
    std::atomic<int> running{0};
    std::atomic<bool> stop{false};
    std::vector<std::thread> pool;
    for (int t = 0; t < 2; ++t) {
        pool.emplace_back([&tracer, &running, &stop] {
            running.fetch_add(1);
            while (!stop.load()) {
                const std::uint64_t start = tracer.nowUs();
                waitForClockTick(tracer);
                tracer.record("t", "worker", start, tracer.nowUs());
            }
        });
    }
    while (running.load() < 2) {
    }
    const auto until =
        std::chrono::steady_clock::now() + std::chrono::milliseconds(20);
    while (std::chrono::steady_clock::now() < until)
        tracer.enable(/*capacity=*/64);
    stop.store(true);
    for (std::thread &th : pool)
        th.join();
    for (const TraceEvent &e : tracer.drain())
        EXPECT_GE(e.endUs, e.startUs);
}

TEST(Tracer, ChromeJsonDocumentShape)
{
    std::vector<TraceEvent> events;
    events.push_back({"cat1", "parent", "", 0, 100, 0});
    events.push_back({"cat1", "child", "swim x a2", 10, 20, 0});

    RunManifest manifest = buildRunManifest("test");
    manifest.workload = "swim";
    const std::string json = chromeTraceJson(events, 3, &manifest);

    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"name\": \"parent\""), std::string::npos);
    EXPECT_NE(json.find("\"dur\": 100"), std::string::npos);
    EXPECT_NE(json.find("\"detail\": \"swim x a2\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\": \"ms\""),
              std::string::npos);
    EXPECT_NE(json.find("\"dropped_events\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"manifest\""), std::string::npos);
    EXPECT_NE(json.find("\"workload\": \"swim\""), std::string::npos);
}

TEST(Tracer, DrainSortsParentsBeforeChildren)
{
    Tracer tracer;
    tracer.enable();
    // Recorded child-first (RAII order), drained parent-first.
    tracer.record("t", "child", 10, 20);
    tracer.record("t", "parent", 10, 100);
    const std::vector<TraceEvent> events = tracer.drain();
    ASSERT_EQ(events.size(), 2u);
    EXPECT_STREQ(events[0].name, "parent");
    EXPECT_STREQ(events[1].name, "child");
}

} // anonymous namespace
} // namespace cac::obs
