/**
 * @file
 * Tests for virtual aliasing in the two-level virtual-real hierarchy
 * (a one-core CoherentSystem):
 * the paper's rule that "at most one such alias may be present in L1
 * at any instant" (section 3.3, cause 2 of holes), while "the physical
 * copy [resides] undisturbed at L2".
 */

#include <gtest/gtest.h>

#include "cache/set_assoc.hh"
#include "hierarchy/two_level.hh"
#include "index/factory.hh"
#include "multicore/coherent_system.hh"

namespace cac
{
namespace
{

CoherentSystem
makeHierarchy()
{
    const CacheGeometry l1_geom = CacheGeometry::paperL1_8k();
    auto l1 = std::make_unique<SetAssocCache>(
        l1_geom, makeIndexFn(IndexKind::IPolySkew, 7, 2, 14));
    const CacheGeometry l2_geom(256 * 1024, 32, 2);
    auto l2 = std::make_unique<SetAssocCache>(
        l2_geom, makeIndexFn(IndexKind::Modulo, l2_geom.setBits(), 2));
    return CoherentSystem(std::move(l1), std::move(l2), PageMap());
}

TEST(Aliases, AtMostOneAliasResidesInL1)
{
    auto h = makeHierarchy();
    const std::uint64_t va = 0x100000;
    const std::uint64_t vb = 0x900000;
    h.pageMap().aliasTo(vb, va);

    h.access(va, false); // fill via alias A
    EXPECT_TRUE(h.l1(0).probe(va));

    h.access(vb, false); // alias B removes A from L1
    EXPECT_TRUE(h.l1(0).probe(vb));
    EXPECT_FALSE(h.l1(0).probe(va));
    EXPECT_EQ(h.aggregateHoles().aliasRemovals, 1u);
    EXPECT_TRUE(h.checkInclusion());
}

TEST(Aliases, PhysicalCopyStaysAtL2)
{
    auto h = makeHierarchy();
    const std::uint64_t va = 0x100000;
    const std::uint64_t vb = 0x900000;
    h.pageMap().aliasTo(vb, va);

    h.access(va, false);
    const std::uint64_t l2_misses = h.aggregateHoles().l2Misses;
    // The alias access misses L1 but hits L2 (same physical block).
    h.access(vb, false);
    EXPECT_EQ(h.aggregateHoles().l2Misses, l2_misses);
    EXPECT_TRUE(h.l2().probe(h.pageMap().translate(va)));
}

TEST(Aliases, InterleavedAliasesPingPongWithoutL2Traffic)
{
    // "It simply increases the traffic between L1 and L2 when accesses
    // to virtual aliases are interleaved."
    auto h = makeHierarchy();
    const std::uint64_t va = 0x200000;
    const std::uint64_t vb = 0xA00000;
    h.pageMap().aliasTo(vb, va);

    h.access(va, false); // one L2 miss for the physical block
    const std::uint64_t l2_before = h.aggregateHoles().l2Misses;
    for (int i = 0; i < 20; ++i) {
        h.access(va, false);
        h.access(vb, false);
    }
    EXPECT_EQ(h.aggregateHoles().l2Misses, l2_before); // all L2 hits
    EXPECT_GE(h.aggregateHoles().aliasRemovals, 20u);  // L1 ping-pong
    EXPECT_TRUE(h.checkInclusion());
}

TEST(Aliases, SameVirtualBlockIsNotAnAlias)
{
    auto h = makeHierarchy();
    h.access(0x300000, false);
    for (int i = 0; i < 10; ++i)
        h.access(0x300000 + 8 * i, false); // same block, hits
    EXPECT_EQ(h.aggregateHoles().aliasRemovals, 0u);
}

TEST(Aliases, NonAliasedPagesUnaffected)
{
    auto h = makeHierarchy();
    for (std::uint64_t a = 0; a < 128 * 1024; a += 32)
        h.access(a, false);
    EXPECT_EQ(h.aggregateHoles().aliasRemovals, 0u);
    EXPECT_TRUE(h.checkInclusion());
}

} // anonymous namespace
} // namespace cac
