/**
 * @file
 * Tests for the conflict profiler, including the analyzer/profiler
 * equivalence the subsystem is built around: the per-set occupancy a
 * stride workload *measures* must equal the conflict classes the GF(2)
 * analyzer *predicts*.
 */

#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/conflict_analyzer.hh"
#include "analysis/conflict_profiler.hh"
#include "cache/fully_assoc.hh"
#include "cache/set_assoc.hh"
#include "core/sim_target.hh"
#include "index/factory.hh"
#include "index/matrix_index.hh"
#include "trace/builder.hh"
#include "workloads/stride.hh"

namespace cac
{
namespace
{

constexpr unsigned kSetBits = 7; // paper L1: 128 sets
constexpr unsigned kInputBits = 14;

/** A profiled paper-L1 cache running scheme @p kind. */
std::unique_ptr<ConflictProfiler>
makeProfiled(IndexKind kind, ProfilerOptions opt = {})
{
    const CacheGeometry geom = CacheGeometry::paperL1_8k();
    auto target = std::make_unique<CacheTarget>(
        std::make_unique<SetAssocCache>(
            geom, makeIndexFn(kind, kSetBits, geom.ways(), kInputBits)));
    auto profiled = std::make_unique<ConflictProfiler>(std::move(target),
                                                       geom, opt);
    profiled->attachIndex(
        makeIndexFn(kind, kSetBits, geom.ways(), kInputBits));
    return profiled;
}

/**
 * One aligned window of the power-of-two stride 2^k: 128 elements one
 * block apart times the stride, repeated over several sweeps (sweeps
 * revisit the same sets, so the occupied-set count stays the window
 * image).
 */
std::vector<std::uint64_t>
strideWindow(unsigned k)
{
    StrideWorkloadConfig wc;
    wc.numElements = std::size_t{1} << kSetBits;
    wc.elementBytes = 32; // one cache block per element
    wc.stride = std::uint64_t{1} << k;
    wc.sweeps = 4;
    wc.base = 1 << 20; // block base 2^15: clear in stride bit range
    return makeStrideAddressTrace(wc);
}

TEST(ConflictProfiler, MeasuredOccupancyMatchesAnalyzerPrediction)
{
    // The acceptance equivalence: for every scheme and every stride
    // 2^k whose window fits the hash input bits, the number of sets the
    // profiler sees occupied equals the 2^rank the analyzer predicts.
    for (IndexKind kind : {IndexKind::Modulo, IndexKind::Xor,
                           IndexKind::XorSkew, IndexKind::IPoly,
                           IndexKind::IPolySkew}) {
        auto fn = makeIndexFn(kind, kSetBits, 2, kInputBits);
        const ConflictAnalysis analysis = analyzeIndex(*fn, kInputBits);
        ASSERT_TRUE(analysis.linear());

        for (unsigned k = 0; k + kSetBits <= kInputBits; ++k) {
            auto profiled = makeProfiled(kind);
            const auto addrs = strideWindow(k);
            profiled->accessBatch(addrs.data(), addrs.size(), false);
            profiled->finish();
            const ConflictProfile &profile = profiled->profile();

            for (unsigned w = 0; w < 2; ++w) {
                EXPECT_EQ(profile.perWay[w].occupiedSets(),
                          analysis.ways[w].strides[k].distinctSets)
                    << indexKindName(kind) << " way " << w << " k=" << k;
            }
        }
    }
}

TEST(ConflictProfiler, ConflictMissAttributionSeparatesTheSchemes)
{
    // Stride 2^7 blocks: conventional indexing folds all 128 elements
    // onto one set (pure conflict misses); the working set is 128
    // blocks = 4KB, so the fully-associative shadow sees only the
    // compulsory pass. I-Poly should be near the shadow.
    const auto addrs = strideWindow(7);

    auto conventional = makeProfiled(IndexKind::Modulo);
    conventional->accessBatch(addrs.data(), addrs.size(), false);
    conventional->finish();
    const ConflictProfile &conv = conventional->profile();

    auto ipoly = makeProfiled(IndexKind::IPolySkew);
    ipoly->accessBatch(addrs.data(), addrs.size(), false);
    ipoly->finish();
    const ConflictProfile &poly = ipoly->profile();

    // Both replayed the same stream against the same-capacity shadow.
    EXPECT_EQ(conv.shadow.misses(), poly.shadow.misses());
    // Conventional: every post-warmup access conflicts. I-Poly: none.
    EXPECT_GT(conv.conflictMisses(), addrs.size() / 2);
    EXPECT_EQ(poly.conflictMisses(), 0u);
    EXPECT_GT(conv.conflictMissRatio(), 0.5);
}

TEST(ConflictProfiler, TopPairsExposeTheThrashingBlocks)
{
    const auto addrs = strideWindow(7);
    auto profiled = makeProfiled(IndexKind::Modulo);
    profiled->accessBatch(addrs.data(), addrs.size(), false);
    profiled->finish();

    const auto pairs = profiled->profile().topPairs(4);
    ASSERT_FALSE(pairs.empty());
    // The stride maps every element to one set: consecutive blocks of
    // the sweep are exactly 2^7 blocks apart and recur every sweep.
    EXPECT_EQ(pairs[0].blockB - pairs[0].blockA, std::uint64_t{1} << 7);
    EXPECT_GE(pairs[0].count, 3u);
}

TEST(ConflictProfiler, PairsRequireAnAllWayCollision)
{
    // Two blocks that share a way-0 set but are separated by way 1 can
    // coexist in a skewed cache — they must not be reported as a
    // conflicting pair. Way 0 selects the low 3 bits; way 1 the next 3.
    const CacheGeometry geom(512, 32, 2); // 8 sets, 2 ways
    std::vector<std::uint64_t> rows = {
        0b000001, 0b000010, 0b000100, // way 0: block bits [0, 3)
        0b001000, 0b010000, 0b100000, // way 1: block bits [3, 6)
    };
    auto make = [&] {
        return std::make_unique<MatrixIndex>(3, 2, 6, rows);
    };

    ProfilerOptions opt;
    opt.shadow = false;
    ConflictProfiler profiled(
        std::make_unique<CacheTarget>(
            std::make_unique<SetAssocCache>(geom, make())),
        geom, opt);
    profiled.attachIndex(make());

    // Blocks 0 and 8: way-0 sets equal (0), way-1 sets differ (0 vs 1).
    // Blocks 0 and 16: way-0 equal, way-1 differ (0 vs 2).
    std::vector<std::uint64_t> alternating;
    for (int i = 0; i < 16; ++i) {
        alternating.push_back(0);
        alternating.push_back(geom.byteAddr(8));
        alternating.push_back(geom.byteAddr(16));
    }
    profiled.accessBatch(alternating.data(), alternating.size(), false);
    profiled.finish();
    EXPECT_TRUE(profiled.profile().pairCounts.empty());

    // The same stream under a uniform (modulo) placement on the same
    // geometry collides in both ways and must be counted.
    ConflictProfiler uniform(
        std::make_unique<CacheTarget>(std::make_unique<SetAssocCache>(
            geom, std::make_unique<ModuloIndex>(3, 2))),
        geom, opt);
    uniform.attachIndex(std::make_unique<ModuloIndex>(3, 2));
    uniform.accessBatch(alternating.data(), alternating.size(), false);
    uniform.finish();
    EXPECT_FALSE(uniform.profile().pairCounts.empty());
}

TEST(ConflictProfiler, ChunkedReplayEqualsOneBatch)
{
    // The profiler must be insensitive to how the stream is delivered:
    // same profile for one big batch, many small batches, and a trace
    // replayed in ragged chunks.
    const auto addrs = strideWindow(3);

    auto whole = makeProfiled(IndexKind::XorSkew);
    whole->accessBatch(addrs.data(), addrs.size(), false);
    whole->finish();

    auto chunked = makeProfiled(IndexKind::XorSkew);
    for (std::size_t i = 0; i < addrs.size(); i += 17) {
        const std::size_t n = std::min<std::size_t>(17, addrs.size() - i);
        chunked->accessBatch(addrs.data() + i, n, false);
    }
    chunked->finish();

    Trace trace;
    TraceBuilder builder(trace);
    for (std::uint64_t addr : addrs)
        builder.load(addr, reg::r(1), reg::r(30));
    auto replayed = makeProfiled(IndexKind::XorSkew);
    for (std::size_t i = 0; i < trace.size(); i += 23) {
        const std::size_t n = std::min<std::size_t>(23, trace.size() - i);
        replayed->replay(trace.data() + i, n);
    }
    replayed->finish();

    const ConflictProfile &a = whole->profile();
    const ConflictProfile &b = chunked->profile();
    const ConflictProfile &c = replayed->profile();
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.accesses, c.accesses);
    EXPECT_EQ(a.target.misses(), b.target.misses());
    EXPECT_EQ(a.target.misses(), c.target.misses());
    EXPECT_EQ(a.shadow.misses(), b.shadow.misses());
    EXPECT_EQ(a.shadow.misses(), c.shadow.misses());
    for (unsigned w = 0; w < 2; ++w) {
        EXPECT_EQ(a.perWay[w].accesses, b.perWay[w].accesses);
        EXPECT_EQ(a.perWay[w].accesses, c.perWay[w].accesses);
    }
}

TEST(ConflictProfiler, DirectBatchAfterReplayKeepsShadowInStreamOrder)
{
    // replay() leaves its gathered run pending; a direct accessBatch()
    // that follows must not overtake it in the shadow. With a 2-block
    // shadow, X Y Z X misses 4 times in stream order but only 3 times
    // if the pending X lands after the batch.
    const CacheGeometry geom(64, 32, 2);
    const std::uint64_t x = 0, y = 32, z = 64;
    ProfilerOptions opt;
    opt.pairs = false;
    ConflictProfiler profiled(
        std::make_unique<CacheTarget>(
            std::make_unique<FullyAssocCache>(64, 32)),
        geom, opt);

    Trace trace;
    TraceBuilder builder(trace);
    builder.load(x, reg::r(1), reg::r(30));
    profiled.replay(trace.data(), trace.size());
    const std::vector<std::uint64_t> batch = {y, z, x};
    profiled.accessBatch(batch.data(), batch.size(), false);
    profiled.finish();

    FullyAssocCache in_order(64, 32);
    for (std::uint64_t addr : {x, y, z, x})
        in_order.access(addr, false);
    ASSERT_EQ(in_order.stats().misses(), 4u);
    const ConflictProfile &profile = profiled.profile();
    EXPECT_EQ(profile.shadow.misses(), in_order.stats().misses());
    EXPECT_EQ(profile.shadow.accesses(), 4u);
    EXPECT_EQ(profile.target.misses(), in_order.stats().misses());
    EXPECT_EQ(profile.conflictMisses(), 0u);
}

TEST(ConflictProfiler, OptionalPiecesCanBeDisabled)
{
    ProfilerOptions opt;
    opt.shadow = false;
    opt.pairs = false;
    const CacheGeometry geom = CacheGeometry::paperL1_8k();
    auto profiled = std::make_unique<ConflictProfiler>(
        std::make_unique<CacheTarget>(std::make_unique<SetAssocCache>(
            geom,
            makeIndexFn(IndexKind::IPoly, kSetBits, 2, kInputBits))),
        geom, opt);
    // No index attached either: the profiler still counts accesses and
    // forwards everything to the wrapped target.
    const auto addrs = strideWindow(2);
    profiled->accessBatch(addrs.data(), addrs.size(), false);
    profiled->finish();
    const ConflictProfile &profile = profiled->profile();
    EXPECT_EQ(profile.accesses, addrs.size());
    EXPECT_FALSE(profile.hasShadow);
    EXPECT_TRUE(profile.perWay.empty());
    EXPECT_TRUE(profile.pairCounts.empty());
    EXPECT_EQ(profile.conflictMisses(), 0u);
    EXPECT_EQ(profiled->stats().l1.accesses(), addrs.size());
}

} // anonymous namespace
} // namespace cac
