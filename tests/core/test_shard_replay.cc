/**
 * @file
 * Tests for time-sharded single-trace replay (core/shard_replay.hh):
 * the reconciliation rule (loads/stores exact, misses within the
 * documented warm-up bound), shards=1 bit-identity with monolithic
 * replay, determinism at any thread count, file vs in-memory
 * equivalence, and hierarchy targets.
 */

#include <cstdio>
#include <filesystem>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "core/shard_replay.hh"
#include "core/sim_target.hh"
#include "trace/io.hh"
#include "workloads/spec_proxy.hh"

namespace cac
{
namespace
{

Trace
proxyTrace()
{
    // Large enough that 4 slices each hold many cache generations.
    static const Trace trace = buildSpecProxy("swim", 60000);
    return trace;
}

TargetFactory
cacheFactory(const std::string &label)
{
    return [label] {
        return OrgRegistry::global().buildTarget(label, TargetSpec{});
    };
}

/** Monolithic replay of @p trace through a fresh target. */
TargetStats
monolithic(const TargetFactory &factory, const Trace &trace)
{
    std::unique_ptr<SimTarget> target = factory();
    target->replay(trace.data(), trace.size());
    target->finish();
    return target->stats();
}

void
expectCacheStatsEqual(const CacheStats &a, const CacheStats &b,
                      const std::string &label)
{
    EXPECT_EQ(a.loads, b.loads) << label;
    EXPECT_EQ(a.stores, b.stores) << label;
    EXPECT_EQ(a.loadMisses, b.loadMisses) << label;
    EXPECT_EQ(a.storeMisses, b.storeMisses) << label;
    EXPECT_EQ(a.fills, b.fills) << label;
    EXPECT_EQ(a.evictions, b.evictions) << label;
    EXPECT_EQ(a.writebacks, b.writebacks) << label;
    EXPECT_EQ(a.invalidations, b.invalidations) << label;
    EXPECT_EQ(a.firstProbeHits, b.firstProbeHits) << label;
    EXPECT_EQ(a.secondProbeHits, b.secondProbeHits) << label;
}

std::uint64_t
absDiff(std::uint64_t a, std::uint64_t b)
{
    return a > b ? a - b : b - a;
}

TEST(ShardReplay, OneShardIsBitIdenticalToMonolithic)
{
    const Trace trace = proxyTrace();
    for (const char *label : {"a2-Hp-Sk", "hash-rehash", "victim"}) {
        const TargetFactory factory = cacheFactory(label);
        const TargetStats want = monolithic(factory, trace);
        ShardOptions opts;
        opts.shards = 1;
        const ShardedReplayResult got =
            shardedReplayTrace(factory, trace, opts);
        expectCacheStatsEqual(got.stats.l1, want.l1, label);
    }
}

TEST(ShardReplay, LoadsStoresExactAndMissesBounded)
{
    const Trace trace = proxyTrace();
    const TargetFactory factory = cacheFactory("a2-Hp-Sk");
    const TargetStats want = monolithic(factory, trace);

    // The documented bound: each shard's warm-up can misreconstruct at
    // most a cache's worth of lines (8KB / 32B = 256 blocks).
    const std::uint64_t blocks = 256;
    for (unsigned shards : {2u, 4u, 7u}) {
        ShardOptions opts;
        opts.shards = shards;
        const ShardedReplayResult got =
            shardedReplayTrace(factory, trace, opts);

        EXPECT_EQ(got.stats.l1.loads, want.l1.loads) << shards;
        EXPECT_EQ(got.stats.l1.stores, want.l1.stores) << shards;
        const std::uint64_t bound = shards * blocks;
        EXPECT_LE(absDiff(got.stats.l1.loadMisses, want.l1.loadMisses),
                  bound)
            << shards;
        EXPECT_LE(
            absDiff(got.stats.l1.storeMisses, want.l1.storeMisses),
            bound)
            << shards;

        // The slices partition the trace contiguously.
        ASSERT_EQ(got.slices.size(), shards);
        EXPECT_EQ(got.slices.front().begin, 0u);
        EXPECT_EQ(got.slices.back().end, trace.size());
        for (unsigned i = 1; i < shards; ++i) {
            EXPECT_EQ(got.slices[i].begin, got.slices[i - 1].end) << i;
            EXPECT_LE(got.slices[i].warmupBegin, got.slices[i].begin)
                << i;
        }
    }

    // Even with no warm-up at all, loads/stores stay exact (only the
    // miss error grows).
    ShardOptions cold;
    cold.shards = 4;
    cold.warmupRecords = 0;
    const ShardedReplayResult got =
        shardedReplayTrace(factory, trace, cold);
    EXPECT_EQ(got.stats.l1.loads, want.l1.loads);
    EXPECT_EQ(got.stats.l1.stores, want.l1.stores);
    EXPECT_LE(absDiff(got.stats.l1.loadMisses, want.l1.loadMisses),
              4 * blocks);
}

TEST(ShardReplay, DeterministicAtAnyThreadCount)
{
    const Trace trace = proxyTrace();
    const TargetFactory factory = cacheFactory("a2-Hp-Sk");
    ShardOptions opts;
    opts.shards = 4;

    opts.threads = 1;
    const ShardedReplayResult serial =
        shardedReplayTrace(factory, trace, opts);
    for (unsigned threads : {2u, 4u, 8u}) {
        opts.threads = threads;
        const ShardedReplayResult parallel =
            shardedReplayTrace(factory, trace, opts);
        expectCacheStatsEqual(parallel.stats.l1, serial.stats.l1,
                              "threads=" + std::to_string(threads));
    }
}

TEST(ShardReplay, FileReplayMatchesInMemory)
{
    const Trace trace = proxyTrace();
    const std::string path =
        (std::filesystem::temp_directory_path() / "cac_shard_file.trc")
            .string();
    writeTrace(trace, path);

    const TargetFactory factory = cacheFactory("a2-Hp-Sk");
    ShardOptions opts;
    opts.shards = 4;
    const ShardedReplayResult mem =
        shardedReplayTrace(factory, trace, opts);
    const ShardedReplayResult file =
        shardedReplayFile(factory, path, opts);
    expectCacheStatsEqual(file.stats.l1, mem.stats.l1, "file-vs-mem");
    std::remove(path.c_str());
}

TEST(ShardReplay, HierarchyTargetsShard)
{
    const Trace trace = proxyTrace();
    const TargetFactory factory = cacheFactory("2lvl:a2-Hp-Sk/a4");
    const TargetStats want = monolithic(factory, trace);

    ShardOptions opts;
    opts.shards = 4;
    const ShardedReplayResult got =
        shardedReplayTrace(factory, trace, opts);
    ASSERT_TRUE(got.stats.hasHierarchy);
    EXPECT_EQ(got.stats.l1.loads, want.l1.loads);
    EXPECT_EQ(got.stats.l1.stores, want.l1.stores);
    // L2 is 256KB / 32B = 8192 blocks; L1 adds 256.
    const std::uint64_t bound = 4 * (8192 + 256);
    EXPECT_LE(absDiff(got.stats.l1.misses(), want.l1.misses()), bound);
    EXPECT_LE(absDiff(got.stats.l2.misses(), want.l2.misses()), bound);
}

TEST(ShardReplay, MultiCoreTargetsFallBackToMonolithic)
{
    // The shared L2's eviction history spans the whole stream: a
    // cold-started slice would misattribute inter-core conflict misses
    // caused by evictions in earlier slices, so multi-core targets
    // must reject sharding explicitly (monolithic fallback with a
    // note, like Cpu) instead of summing silently wrong per-slice
    // deltas.
    const Trace trace = proxyTrace();
    const TargetFactory factory = cacheFactory("mc:2xa2/a4");
    const TargetStats want = monolithic(factory, trace);

    ShardOptions opts;
    opts.shards = 4;
    const ShardedReplayResult got =
        shardedReplayTrace(factory, trace, opts);
    EXPECT_TRUE(got.fellBack);
    EXPECT_NE(got.note.find("multi-core"), std::string::npos)
        << got.note;
    EXPECT_TRUE(got.error.ok()) << got.error.message();
    ASSERT_TRUE(got.stats.hasMultiCore);
    expectCacheStatsEqual(got.stats.l1, want.l1, "mc-fallback");
    EXPECT_EQ(got.stats.l2.misses(), want.l2.misses());

    // shards=1 never enters the parallel path, so it succeeds and is
    // bit-identical to monolithic replay.
    opts.shards = 1;
    const ShardedReplayResult one =
        shardedReplayTrace(factory, trace, opts);
    EXPECT_FALSE(one.fellBack);
    ASSERT_TRUE(one.stats.hasMultiCore);
    expectCacheStatsEqual(one.stats.l1, want.l1, "mc-one-shard");
    EXPECT_EQ(one.stats.mc.totalL2EvictionsByOthers(),
              want.mc.totalL2EvictionsByOthers());
    EXPECT_EQ(one.stats.mc.totalInterCoreConflictMisses(),
              want.mc.totalInterCoreConflictMisses());
}

} // anonymous namespace
} // namespace cac
