/**
 * @file
 * Differential tests pinning the multicore system to its references:
 *
 *  - a 1-core "mc:" target and the "2lvl:" hierarchy are one
 *    CoherentSystem built by one registry path; they must report the
 *    same L1/L2 functional stats and hole bookkeeping on every registry
 *    organization. This checks that the two labels build the same
 *    system (same L1, same L2 index width, same page map), so every
 *    multicore miss-ratio delta is attributable to sharing the L2;
 *  - randomized seeded interleavings of per-core streams conserve the
 *    issued work: global load/store totals equal the per-core sums,
 *    per-core rows depend only on the core's own stream content (not
 *    on the interleaving order), and the invariants (one core per
 *    physical block, Inclusion) hold at the end;
 *  - the shared L2 holds only lines the cores ever fetched: probing
 *    the translations of never-accessed pages misses;
 *  - the batch path of the `2lvl:` hierarchy and of 1-, 2- and 4-core
 *    `mc:` systems, fed mixed-kind batches (loads and stores in stream
 *    order) of lengths 1 to 5000, matches their scalar access() loop
 *    on every CacheStats, HoleStats and per-core multicore counter.
 */

#include <algorithm>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "core/registry.hh"
#include "core/sim_target.hh"
#include "multicore/mc_target.hh"
#include "workloads/spec_proxy.hh"

namespace cac
{
namespace
{

Trace
proxyTrace()
{
    static const Trace trace = buildSpecProxy("swim", 40000);
    return trace;
}

TargetStats
replayThrough(const std::string &label, const Trace &trace)
{
    auto target = OrgRegistry::global().buildTarget(label, TargetSpec{});
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

void
expectHoleStatsEqual(const HoleStats &a, const HoleStats &b,
                     const std::string &label)
{
    EXPECT_EQ(a.l1Misses, b.l1Misses) << label;
    EXPECT_EQ(a.l2Misses, b.l2Misses) << label;
    EXPECT_EQ(a.l2Replacements, b.l2Replacements) << label;
    EXPECT_EQ(a.inclusionInvalidates, b.inclusionInvalidates) << label;
    EXPECT_EQ(a.holesCreated, b.holesCreated) << label;
    EXPECT_EQ(a.holeRefills, b.holeRefills) << label;
    EXPECT_EQ(a.externalInvalidates, b.externalInvalidates) << label;
    EXPECT_EQ(a.aliasRemovals, b.aliasRemovals) << label;
}

TEST(McDifferential, OneCoreIsBitIdenticalToTwoLevelOnEveryOrg)
{
    const Trace trace = proxyTrace();
    for (const std::string &org :
         OrgRegistry::global().exampleLabels()) {
        const TargetStats two =
            replayThrough("2lvl:" + org + "/a4", trace);
        const TargetStats one =
            replayThrough("mc:1x" + org + "/a4", trace);
        ASSERT_TRUE(one.hasMultiCore) << org;
        ASSERT_TRUE(one.hasHierarchy) << org;
        expectCacheStatsEqual(one.l1, two.l1, org + " L1");
        expectCacheStatsEqual(one.l2, two.l2, org + " L2");
        expectHoleStatsEqual(one.holes, two.holes, org + " holes");
        // One core has no peer to conflict with.
        EXPECT_EQ(one.mc.totalInterCoreConflictMisses(), 0u) << org;
        // The single per-core row *is* the aggregate.
        ASSERT_EQ(one.mc.cores.size(), 1u) << org;
        expectCacheStatsEqual(one.mc.cores[0].l1, two.l1,
                              org + " core row");
    }
}

/** Deterministic per-core stream inside core @p c's ASID window. */
std::vector<std::uint64_t>
coreStream(unsigned c, std::size_t n, std::uint64_t window)
{
    std::vector<std::uint64_t> addrs;
    addrs.reserve(n);
    std::uint64_t lcg = 0x9E3779B97F4A7C15ull * (c + 1);
    for (std::size_t i = 0; i < n; ++i) {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        // A 64KB footprint per core: small enough to rereference,
        // large enough to stress the shared L2.
        addrs.push_back(c * window + ((lcg >> 24) & 0xFFFFull));
    }
    return addrs;
}

/**
 * Interleave the per-core streams in a seed-dependent order and drive
 * the mc target one address at a time through accessBatch (runs of 1
 * exercise the demultiplexer's worst case).
 */
TargetStats
replayInterleaved(const std::vector<std::vector<std::uint64_t>> &streams,
                  std::uint64_t seed, SimTarget &target)
{
    std::vector<std::size_t> pos(streams.size(), 0);
    std::uint64_t lcg = seed;
    for (;;) {
        // Pick a random core that still has addresses to issue.
        std::vector<unsigned> live;
        for (unsigned c = 0; c < streams.size(); ++c) {
            if (pos[c] < streams[c].size())
                live.push_back(c);
        }
        if (live.empty())
            break;
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        const unsigned c = live[(lcg >> 33) % live.size()];
        // A short burst, as a scheduler quantum would produce.
        const std::size_t burst =
            std::min<std::size_t>(1 + ((lcg >> 20) & 7),
                                  streams[c].size() - pos[c]);
        target.accessBatch(streams[c].data() + pos[c], burst, false);
        pos[c] += burst;
    }
    target.finish();
    return target.stats();
}

TEST(McDifferential, InterleavingsConserveWorkAndKeepInvariants)
{
    TargetSpec spec;
    const std::uint64_t window = spec.mcWindowBytes;
    std::vector<std::vector<std::uint64_t>> streams;
    std::size_t issued = 0;
    for (unsigned c = 0; c < 4; ++c) {
        streams.push_back(coreStream(c, 12000, window));
        issued += streams.back().size();
    }

    std::vector<McCoreStats> reference;
    for (std::uint64_t seed : {1ull, 42ull, 0xFEEDull}) {
        auto built =
            OrgRegistry::global().buildTarget("mc:4xa2-Hp-Sk/a4", spec);
        auto *mc = dynamic_cast<MultiCoreTarget *>(built.get());
        ASSERT_NE(mc, nullptr);
        const TargetStats stats =
            replayInterleaved(streams, seed, *built);

        // Global totals equal the per-core sums equal the issued work.
        ASSERT_TRUE(stats.hasMultiCore);
        std::uint64_t core_accesses = 0;
        for (const McCoreStats &core : stats.mc.cores)
            core_accesses += core.l1.accesses();
        EXPECT_EQ(core_accesses, issued) << seed;
        EXPECT_EQ(stats.l1.accesses(), issued) << seed;
        EXPECT_EQ(stats.l1.stores, 0u) << seed;

        // Each core's row depends only on its own stream, so every
        // interleaving must produce the same per-core loads (misses
        // vary: the shared L2's contents depend on the order).
        if (reference.empty()) {
            reference = stats.mc.cores;
        } else {
            for (unsigned c = 0; c < 4; ++c) {
                EXPECT_EQ(stats.mc.cores[c].l1.loads,
                          reference[c].l1.loads)
                    << "seed " << seed << " core " << c;
            }
        }

        // Invariants hold at the end of any interleaving.
        EXPECT_TRUE(mc->system().checkCoherence()) << seed;
        EXPECT_TRUE(mc->system().checkInclusion()) << seed;
    }
}

TEST(McDifferential, SharedL2HoldsOnlyFetchedLines)
{
    TargetSpec spec;
    auto built =
        OrgRegistry::global().buildTarget("mc:2xa2/a4", spec);
    auto *mc = dynamic_cast<MultiCoreTarget *>(built.get());
    ASSERT_NE(mc, nullptr);

    std::vector<std::vector<std::uint64_t>> streams;
    for (unsigned c = 0; c < 2; ++c)
        streams.push_back(coreStream(c, 8000, spec.mcWindowBytes));
    replayInterleaved(streams, 7, *built);

    // The cores touched only the first 64KB of their windows. Pages
    // far above that were never fetched, so their translations must
    // miss in the shared L2 (and in both L1s).
    CoherentSystem &sys = mc->system();
    for (unsigned c = 0; c < 2; ++c) {
        for (unsigned p = 0; p < 32; ++p) {
            const std::uint64_t never =
                c * spec.mcWindowBytes + 0x100000ull + p * 4096;
            const std::uint64_t paddr = sys.pageMap().translate(never);
            EXPECT_FALSE(sys.l2().probe(paddr)) << never;
            EXPECT_FALSE(sys.l1(c).probe(never)) << never;
        }
    }
}

void
expectMultiCoreStatsEqual(const MultiCoreStats &a, const MultiCoreStats &b,
                          const std::string &label)
{
    ASSERT_EQ(a.cores.size(), b.cores.size()) << label;
    for (std::size_t c = 0; c < a.cores.size(); ++c) {
        const McCoreStats &x = a.cores[c];
        const McCoreStats &y = b.cores[c];
        const std::string core = label + " core " + std::to_string(c);
        expectCacheStatsEqual(x.l1, y.l1, core);
        expectHoleStatsEqual(x.holes, y.holes, core);
        EXPECT_EQ(x.l2EvictionsByOthers, y.l2EvictionsByOthers) << core;
        EXPECT_EQ(x.interCoreConflictMisses, y.interCoreConflictMisses)
            << core;
    }
}

/**
 * Batch lengths: every length past one 256-address index tile (so
 * batches end at each tile offset), then the gathered-run size and its
 * neighbours, and one longer batch.
 */
std::vector<std::size_t>
batchLengths()
{
    std::vector<std::size_t> lengths;
    for (std::size_t n = 1; n <= 300; ++n)
        lengths.push_back(n);
    for (std::size_t n : {4095, 4096, 4097, 5000})
        lengths.push_back(n);
    return lengths;
}

/**
 * Bursts over four ASID windows (64KB footprint each, a quarter of
 * the accesses stores): every core of a 2- or 4-core system sees mixed
 * kinds, and the windows together overflow the shared L2.
 */
void
windowedStream(std::size_t total, std::uint64_t window,
               std::vector<std::uint64_t> &addrs,
               std::vector<std::uint8_t> &writes)
{
    std::uint64_t lcg = 0x5EEDull;
    const auto next = [&lcg] {
        lcg = lcg * 6364136223846793005ull + 1442695040888963407ull;
        return lcg >> 24;
    };
    while (addrs.size() < total) {
        const std::uint64_t w = next() & 3;
        const std::size_t burst = 1 + (next() & 31);
        for (std::size_t i = 0; i < burst && addrs.size() < total; ++i) {
            addrs.push_back(w * window + (next() & 0xFFFFull));
            writes.push_back((next() & 3) == 0 ? 1 : 0);
        }
    }
}

TEST(McDifferential, MixedKindBatchesMatchScalarOnHierarchyAndMulticore)
{
    const TargetSpec spec;
    const std::vector<std::size_t> lengths = batchLengths();
    std::size_t total = 0;
    for (std::size_t n : lengths)
        total += n;
    std::vector<std::uint64_t> addrs;
    std::vector<std::uint8_t> writes;
    windowedStream(total, spec.mcWindowBytes, addrs, writes);

    const OrgRegistry &registry = OrgRegistry::global();
    for (const std::string &org : standardComparisonLabels()) {
        // The two-level hierarchy and multicore systems. The
        // stream crosses four ASID windows, so the 1-core systems see
        // the same demultiplexed input as the larger ones.
        for (const char *prefix : {"2lvl:", "mc:1x", "mc:2x", "mc:4x"}) {
            const std::string label = prefix + org + "/a4";
            auto scalar_target = registry.buildTarget(label, spec);
            auto batch_target = registry.buildTarget(label, spec);
            CoherentSystem &scalar =
                dynamic_cast<MultiCoreTarget &>(*scalar_target).system();
            CoherentSystem &batched =
                dynamic_cast<MultiCoreTarget &>(*batch_target).system();
            for (std::size_t i = 0; i < total; ++i)
                scalar.access(addrs[i], writes[i] != 0);
            std::size_t pos = 0;
            for (std::size_t n : lengths) {
                batched.accessRun(addrs.data() + pos, writes.data() + pos,
                                  n);
                pos += n;
            }
            expectCacheStatsEqual(scalar.aggregateL1(),
                                  batched.aggregateL1(), label + " L1");
            expectCacheStatsEqual(scalar.l2().stats(), batched.l2().stats(),
                                  label + " L2");
            EXPECT_GT(scalar.aggregateL1().stores, 0u) << label;
            expectHoleStatsEqual(scalar.aggregateHoles(),
                                 batched.aggregateHoles(),
                                 label + " holes");
            expectMultiCoreStatsEqual(scalar.stats(), batched.stats(),
                                      label);
            // The invariant checks agree too. (They are not asserted
            // true: victim and column-poly L1s drop blocks without
            // reporting an eviction, which leaves stale reverse-map
            // entries on the scalar path as well.)
            EXPECT_EQ(scalar.checkCoherence(), batched.checkCoherence())
                << label;
            EXPECT_EQ(scalar.checkInclusion(), batched.checkInclusion())
                << label;
        }
    }
}

} // anonymous namespace
} // namespace cac
