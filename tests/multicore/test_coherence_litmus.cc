/**
 * @file
 * Shared-L2 litmus tests: small hand-written 2–4 core scripts driven
 * through CoherentSystem::access(), each core addressing its own ASID
 * window (access() routes by window, as scenario mixes do). Each
 * script asserts the exact Inclusion, hole and inter-core attribution
 * counts, and re-checks the global invariants (reverse-map
 * consistency with one core per physical block, Inclusion) after
 * every step.
 *
 * Geometry notes: the page map is given a 64KB page, so a direct-mapped
 * 4KB L2 (128 sets x 32B) takes its set index from inside the page
 * offset. L2 conflicts are then scriptable across cores: addresses
 * whose offsets are 0x1000 apart collide in L2 wherever their pages
 * landed physically.
 */

#include <gtest/gtest.h>

#include "cache/set_assoc.hh"
#include "index/factory.hh"
#include "multicore/coherent_system.hh"

namespace cac
{
namespace
{

/** The ASID window stride: core c owns [c * kWindow, (c+1) * kWindow). */
constexpr std::uint64_t kWindow = std::uint64_t{1} << 21;

std::unique_ptr<CacheModel>
makeCache(std::uint64_t size, unsigned ways)
{
    const CacheGeometry geom(size, 32, ways);
    return std::make_unique<SetAssocCache>(
        geom,
        makeIndexFn(IndexKind::Modulo, geom.setBits(), ways, 14));
}

/** @p cores identical 1KB L1s over one @p l2_size L2. */
CoherentSystem
makeSystem(unsigned cores, std::uint64_t l2_size = 64 * 1024,
           unsigned l1_ways = 2, unsigned l2_ways = 2)
{
    std::vector<std::unique_ptr<CacheModel>> l1s;
    for (unsigned c = 0; c < cores; ++c)
        l1s.push_back(makeCache(1024, l1_ways));
    return CoherentSystem(std::move(l1s), makeCache(l2_size, l2_ways),
                          PageMap(64 * 1024), kWindow);
}

/** All invariants that must hold after *every* step. */
void
expectInvariants(const CoherentSystem &sys, const char *where)
{
    EXPECT_TRUE(sys.checkCoherence()) << where;
    EXPECT_TRUE(sys.checkInclusion()) << where;
}

TEST(CoherenceLitmus, SharedL2EvictionAttributesInterCoreConflicts)
{
    // Direct-mapped 4KB L2: offsets 0x1000 apart collide in L2 but
    // coexist in the 4-way L1s (same L1 set, enough ways).
    auto sys = makeSystem(2, 4096, 4, 1);
    const std::uint64_t A = 0x0;               // core 0
    const std::uint64_t A2 = 0x1000;           // core 0, collides with A
    const std::uint64_t B = kWindow + 0x1000;  // core 1, collides with A
    ASSERT_EQ(sys.coreFor(A), 0u);
    ASSERT_EQ(sys.coreFor(B), 1u);

    sys.access(A, false); // core 0 fills A into the L2
    expectInvariants(sys, "after A");

    // Core 1's fill of B evicts A from the L2; Inclusion then rips A
    // out of core 0's L1, leaving a hole, and the eviction is charged
    // to the line's filler as "lost to a peer".
    sys.access(B, false);
    EXPECT_FALSE(sys.l1(0).probe(A));
    expectInvariants(sys, "after B evicts A");
    {
        const MultiCoreStats mc = sys.stats();
        EXPECT_EQ(mc.cores[0].l2EvictionsByOthers, 1u);
        EXPECT_EQ(mc.cores[0].holes.inclusionInvalidates, 1u);
        EXPECT_EQ(mc.cores[0].holes.holesCreated, 1u);
        EXPECT_EQ(mc.cores[0].interCoreConflictMisses, 0u); // not yet
    }

    // Core 0 re-misses on the line core 1 pushed out: that is an
    // inter-core conflict miss (and a hole refill in the L1).
    sys.access(A, false);
    expectInvariants(sys, "after A returns");
    {
        const MultiCoreStats mc = sys.stats();
        EXPECT_EQ(mc.cores[0].interCoreConflictMisses, 1u);
        EXPECT_EQ(mc.cores[0].holes.holeRefills, 1u);
        // ...and A's fill evicted B right back: charged to core 1.
        EXPECT_EQ(mc.cores[1].l2EvictionsByOthers, 1u);
    }

    // A core re-evicting *its own* line is not an inter-core conflict:
    // core 0 brings A2 in (evicts its own A), then re-misses on A.
    sys.access(A2, false);
    sys.access(A, false);
    EXPECT_EQ(sys.stats().cores[0].interCoreConflictMisses, 1u);
    expectInvariants(sys, "after self-conflict");
}

TEST(CoherenceLitmus, AccessRoutesByAsidWindow)
{
    auto sys = makeSystem(4);
    for (unsigned c = 0; c < 4; ++c) {
        const std::uint64_t v = c * kWindow + 0x100;
        EXPECT_FALSE(sys.access(v, c % 2 == 1));
        for (unsigned other = 0; other < 4; ++other)
            EXPECT_EQ(sys.l1(other).probe(v), other == c) << c;
        EXPECT_TRUE(sys.access(v, false)) << c;
        expectInvariants(sys, "after routed access");
    }
    // Window 4 wraps to core 0.
    EXPECT_EQ(sys.coreFor(4 * kWindow), 0u);
}

TEST(CoherenceLitmus, RejectsAPageThatSpansTwoWindows)
{
    // A 64KB page over 32KB windows would put one frame in two cores.
    const auto build = [] {
        std::vector<std::unique_ptr<CacheModel>> l1s;
        for (unsigned c = 0; c < 2; ++c)
            l1s.push_back(makeCache(1024, 2));
        CoherentSystem(std::move(l1s), makeCache(4096, 1),
                       PageMap(64 * 1024), 32 * 1024);
    };
    EXPECT_EXIT(build(), ::testing::ExitedWithCode(1), "page size");
}

TEST(CoherenceLitmus, CheckCoherenceReportsAFrameSharedAcrossCores)
{
    // aliasTo() across windows is outside the model: it lets two cores
    // cache one physical block, which checkCoherence() must flag.
    auto sys = makeSystem(2);
    const std::uint64_t A = 0x100, B = kWindow + 0x100;
    sys.pageMap().aliasTo(B, A);
    sys.access(A, false);
    EXPECT_TRUE(sys.checkCoherence());
    sys.access(B, false);
    EXPECT_FALSE(sys.checkCoherence());
}

TEST(CoherenceLitmus, FlushL1sEmptiesEveryL1AndKeepsTheL2)
{
    auto sys = makeSystem(2);
    const std::uint64_t A = 0x100, B = kWindow + 0x200;
    sys.access(A, true);
    sys.access(B, false);
    sys.flushL1s();
    EXPECT_FALSE(sys.l1(0).probe(A));
    EXPECT_FALSE(sys.l1(1).probe(B));
    expectInvariants(sys, "after flush");

    // Post-flush misses go to the (still warm) L2.
    const std::uint64_t l2_hits_before = sys.l2().stats().hits();
    EXPECT_FALSE(sys.access(A, false));
    EXPECT_FALSE(sys.access(B, false));
    EXPECT_EQ(sys.l2().stats().hits(), l2_hits_before + 2);
    expectInvariants(sys, "after refill");
}

TEST(CoherenceLitmus, ExternalInvalidateRemovesCleanAndDirtyLines)
{
    auto sys = makeSystem(2);
    const std::uint64_t A = 0x100, B = kWindow + 0x200;
    sys.access(A, false); // A clean in core 0
    sys.access(B, true);  // B dirty in core 1
    ASSERT_TRUE(sys.l1(0).probe(A));
    ASSERT_TRUE(sys.l1(1).probe(B));

    // A snooped physical invalidation takes the line out of the L2 and
    // out of the L1 holding it.
    for (const std::uint64_t v : {A, B}) {
        const std::uint64_t paddr = sys.pageMap().translate(v);
        sys.externalInvalidate(paddr);
        EXPECT_FALSE(sys.l2().probe(paddr)) << v;
        for (unsigned c = 0; c < 2; ++c)
            EXPECT_FALSE(sys.l1(c).probe(v)) << v << " core " << c;
        expectInvariants(sys, "after external invalidate");
    }
    // The snoop reaches every core, holder or not.
    EXPECT_EQ(sys.stats().cores[0].holes.externalInvalidates, 2u);
    EXPECT_EQ(sys.stats().cores[1].holes.externalInvalidates, 2u);

    // The next accesses miss in L1 and in L2.
    const std::uint64_t l2_misses = sys.l2().stats().misses();
    EXPECT_FALSE(sys.access(A, false));
    EXPECT_FALSE(sys.access(B, false));
    EXPECT_EQ(sys.l2().stats().misses(), l2_misses + 2);
    expectInvariants(sys, "after refill");
}

TEST(CoherenceLitmus, InvariantsHoldUnderRandomizedRoutedStress)
{
    // 4 cores hammer 48 lines each, at the same page offsets in their
    // own windows, with a deterministic LCG mix of loads and stores;
    // every step re-checks the invariants. A small direct-mapped L2
    // (4KB) makes the cores evict each other's lines and keeps
    // Inclusion invalidations hot.
    auto sys = makeSystem(4, 4096, 2, 1);
    std::uint64_t lcg = 0x2545F4914F6CDD1Dull;
    std::uint64_t issued_loads = 0, issued_stores = 0;
    for (int step = 0; step < 4000; ++step) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const unsigned core = (lcg >> 33) % 4;
        const std::uint64_t addr =
            core * kWindow + ((lcg >> 40) % 48) * 32;
        const bool is_write = ((lcg >> 62) & 1) != 0;
        sys.access(addr, is_write);
        is_write ? ++issued_stores : ++issued_loads;
        ASSERT_TRUE(sys.checkCoherence()) << "step " << step;
        ASSERT_TRUE(sys.checkInclusion()) << "step " << step;
    }
    // Per-core rows partition the issued stream exactly.
    const CacheStats total = sys.aggregateL1();
    EXPECT_EQ(total.loads, issued_loads);
    EXPECT_EQ(total.stores, issued_stores);
    // The stress mix must actually have exercised the shared L2.
    EXPECT_GT(sys.aggregateHoles().inclusionInvalidates, 0u);
    EXPECT_GT(sys.stats().totalL2EvictionsByOthers(), 0u);
}

} // anonymous namespace
} // namespace cac
