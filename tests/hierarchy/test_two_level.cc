/**
 * @file
 * Tests for the two-level virtual-real hierarchy (a one-core
 * CoherentSystem): Inclusion enforcement, hole creation and the
 * section 3.3 statistics.
 */

#include <gtest/gtest.h>

#include "cache/set_assoc.hh"
#include "common/rng.hh"
#include "hierarchy/hole_model.hh"
#include "hierarchy/two_level.hh"
#include "index/factory.hh"
#include "multicore/coherent_system.hh"

namespace cac
{
namespace
{

std::unique_ptr<CacheModel>
makeL1(IndexKind kind = IndexKind::IPolySkew)
{
    const CacheGeometry geom = CacheGeometry::paperL1_8k();
    return std::make_unique<SetAssocCache>(
        geom, makeIndexFn(kind, geom.setBits(), geom.ways(), 14));
}

std::unique_ptr<CacheModel>
makeL2(std::uint64_t size = 256 * 1024, IndexKind kind = IndexKind::IPoly)
{
    const CacheGeometry geom(size, 32, 1);
    return std::make_unique<SetAssocCache>(
        geom, makeIndexFn(kind, geom.setBits(), 1,
                          std::min(20u, geom.setBits() + 6)));
}

CoherentSystem
makeHierarchy(std::uint64_t l2_size = 256 * 1024)
{
    return CoherentSystem(makeL1(), makeL2(l2_size), PageMap());
}

TEST(TwoLevel, MissFillsBothLevels)
{
    auto h = makeHierarchy();
    EXPECT_FALSE(h.access(0x10000, false));
    EXPECT_TRUE(h.access(0x10000, false));
    EXPECT_EQ(h.aggregateHoles().l1Misses, 1u);
    EXPECT_EQ(h.aggregateHoles().l2Misses, 1u);
}

TEST(TwoLevel, L2HitAfterL1Eviction)
{
    auto h = makeHierarchy();
    // Touch far more than L1 holds but well within L2.
    for (std::uint64_t a = 0; a < 64 * 1024; a += 32)
        h.access(a, false);
    const auto misses_before = h.aggregateHoles().l2Misses;
    // Re-walk: L1 misses hit in L2. Pseudo-random L2 placement has a
    // few balls-in-bins collisions for a footprint of 1/4 capacity, so
    // allow a small residue rather than zero.
    for (std::uint64_t a = 0; a < 64 * 1024; a += 32)
        h.access(a, false);
    const auto new_misses = h.aggregateHoles().l2Misses - misses_before;
    EXPECT_LT(new_misses, misses_before / 3);
}

TEST(TwoLevel, InclusionHoldsUnderRandomTraffic)
{
    auto h = makeHierarchy();
    Rng rng(3);
    for (int i = 0; i < 50000; ++i) {
        const std::uint64_t addr = rng.nextBelow(2ull << 20) & ~7ull;
        h.access(addr, rng.chance(0.3));
        if (i % 5000 == 0) {
            EXPECT_TRUE(h.checkInclusion()) << "at access " << i;
        }
    }
    EXPECT_TRUE(h.checkInclusion());
}

TEST(TwoLevel, HolesAppearWhenL2Thrashes)
{
    // Footprint exceeding L2 forces replacements whose victims are
    // sometimes in L1 -> inclusion invalidations -> holes.
    auto h = makeHierarchy(64 * 1024);
    Rng rng(5);
    for (int i = 0; i < 80000; ++i)
        h.access(rng.nextBelow(1ull << 20) & ~7ull, false);
    const HoleStats s = h.aggregateHoles();
    EXPECT_GT(s.l2Replacements, 0u);
    EXPECT_GT(s.holesCreated, 0u);
    EXPECT_LE(s.holesCreated, s.inclusionInvalidates);
}

TEST(TwoLevel, HoleRateTracksAnalyticModel)
{
    // Section 3.3: for uncorrelated pseudo-random indices the measured
    // holes-per-L2-miss should sit near P_H = (2^m1 - 1)/2^m2.
    auto h = makeHierarchy(256 * 1024);
    Rng rng(7);
    // Working set bigger than L2 so L2 replaces continuously.
    for (int i = 0; i < 400000; ++i)
        h.access(rng.nextBelow(1ull << 21) & ~7ull, false);

    HoleModel model = HoleModel::fromBlockCounts(256, 8192);
    const double measured = h.aggregateHoles().holesPerL2Miss();
    // The model assumes steady state and direct-mapped L1; our L1 is
    // 2-way so allow a factor-of-2 band around P_H = 0.031.
    EXPECT_GT(measured, model.holePerL2Miss() * 0.5);
    EXPECT_LT(measured, model.holePerL2Miss() * 2.0);
}

TEST(TwoLevel, HoleRefillsAreCounted)
{
    auto h = makeHierarchy(64 * 1024);
    Rng rng(9);
    for (int i = 0; i < 100000; ++i)
        h.access(rng.nextBelow(512ull << 10) & ~7ull, false);
    // Some holed blocks get re-referenced eventually.
    EXPECT_GT(h.aggregateHoles().holeRefills, 0u);
}

TEST(TwoLevel, ExternalInvalidateRemovesFromBothLevels)
{
    auto h = makeHierarchy();
    h.access(0x30000, false);
    const std::uint64_t paddr = h.pageMap().translate(0x30000);
    h.externalInvalidate(paddr);
    EXPECT_EQ(h.aggregateHoles().externalInvalidates, 1u);
    EXPECT_FALSE(h.l2().probe(paddr));
    // The next access misses at L1 again (it was shot down).
    EXPECT_FALSE(h.access(0x30000, false));
}

TEST(TwoLevel, RejectsMismatchedBlockSizes)
{
    const CacheGeometry l1_geom(8 * 1024, 32, 2);
    const CacheGeometry l2_geom(256 * 1024, 64, 1);
    auto l1 = std::make_unique<SetAssocCache>(
        l1_geom, makeIndexFn(IndexKind::Modulo, 7, 2, 14));
    auto l2 = std::make_unique<SetAssocCache>(
        l2_geom, makeIndexFn(IndexKind::Modulo, 12, 1, 18));
    EXPECT_EXIT(CoherentSystem(std::move(l1), std::move(l2),
                                  PageMap()),
                ::testing::ExitedWithCode(1), "block size");
}

TEST(TwoLevel, WritebackL1UpdatesL2)
{
    const CacheGeometry geom = CacheGeometry::paperL1_8k();
    auto l1 = std::make_unique<SetAssocCache>(
        geom, makeIndexFn(IndexKind::IPolySkew, 7, 2, 14), nullptr,
        WriteAllocate::Yes, /*write_back=*/true);
    CoherentSystem h(std::move(l1), makeL2(), PageMap());
    Rng rng(11);
    for (int i = 0; i < 30000; ++i)
        h.access(rng.nextBelow(256ull << 10) & ~7ull, rng.chance(0.5));
    EXPECT_TRUE(h.checkInclusion());
}

} // anonymous namespace
} // namespace cac
