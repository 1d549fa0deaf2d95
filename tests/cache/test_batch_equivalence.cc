/**
 * @file
 * Equivalence of the batched access fast path with the scalar path:
 * for every registered organization, accessRun() over mixed-kind
 * batches (loads and stores interleaved in stream order) must leave the
 * cache with CacheStats bit-identical to an access()-per-address loop
 * over the same stream, and with the same resident blocks. Batch
 * lengths run from 1 to 5000, so batches end at every offset of the
 * 256-address index tile and span more than one gathered run.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/rng.hh"
#include "core/registry.hh"

namespace cac
{
namespace
{

/** Byte range of the random traffic (and of the residency probe). */
constexpr std::uint64_t kRandomBytes = 1 << 18;

/**
 * Batch lengths: every length up to two tiles (so a batch ends at each
 * tile offset, once without and once after a tile crossing), then the
 * gathered-run size and its neighbours, and one longer batch.
 */
std::vector<std::size_t>
batchLengths()
{
    std::vector<std::size_t> lengths;
    for (std::size_t n = 1; n <= 512; ++n)
        lengths.push_back(n);
    for (std::size_t n : {4095, 4096, 4097, 5000})
        lengths.push_back(n);
    return lengths;
}

/**
 * Deterministic mixed stream: strided sweeps + random traffic. Store
 * flags take every nonzero byte value in turn (any nonzero is a store).
 */
void
mixedStream(std::size_t total, std::vector<std::uint64_t> &addrs,
            std::vector<std::uint8_t> &writes)
{
    Rng rng(1997);
    const auto push = [&](std::uint64_t addr, bool is_write) {
        addrs.push_back(addr);
        writes.push_back(
            is_write ? static_cast<std::uint8_t>(1 + addrs.size() % 255)
                     : 0);
    };
    // Pathological power-of-two strides exercise conflict handling...
    for (int sweep = 0; sweep < 4; ++sweep) {
        for (std::uint64_t i = 0; i < 256; ++i) {
            push((1 << 20) + i * 4096, false);
            push((1 << 21) + i * 64, (i & 3) == 0);
        }
    }
    // ...and random traffic exercises eviction/writeback paths.
    while (addrs.size() < total)
        push(rng.nextBelow(kRandomBytes), rng.nextBelow(4) == 0);
}

void
expectStatsEqual(const CacheStats &a, const CacheStats &b,
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

class BatchEquivalence : public ::testing::TestWithParam<std::string>
{
};

TEST_P(BatchEquivalence, MixedKindBatchesMatchScalarAtEveryTileOffset)
{
    const std::vector<std::size_t> lengths = batchLengths();
    std::size_t total = 0;
    for (std::size_t n : lengths)
        total += n;
    std::vector<std::uint64_t> addrs;
    std::vector<std::uint8_t> writes;
    mixedStream(total, addrs, writes);
    ASSERT_EQ(addrs.size(), total);

    for (bool write_allocate : {true, false}) {
        const std::string label =
            GetParam() + (write_allocate ? "/wa" : "/nwa");
        OrgSpec spec;
        spec.writeAllocate = write_allocate;
        auto scalar = makeOrganization(GetParam(), spec);
        auto batched = makeOrganization(GetParam(), spec);

        // Scalar reference: one virtual access() per operation.
        for (std::size_t i = 0; i < total; ++i)
            scalar->access(addrs[i], writes[i] != 0);

        // Batch path: consecutive mixed-kind batches of every length.
        std::size_t pos = 0;
        for (std::size_t n : lengths) {
            batched->accessRun(addrs.data() + pos, writes.data() + pos, n);
            pos += n;
        }

        expectStatsEqual(scalar->stats(), batched->stats(), label);
        // Contents must match too: the scalar cache's residency decides.
        for (std::uint64_t addr = 1 << 20; addr < (1 << 20) + 64 * 4096;
             addr += 4096) {
            EXPECT_EQ(scalar->probe(addr), batched->probe(addr))
                << label << " addr " << addr;
        }
        const std::uint64_t block = scalar->geometry().blockBytes();
        for (std::uint64_t addr = 0; addr < kRandomBytes; addr += block) {
            EXPECT_EQ(scalar->probe(addr), batched->probe(addr))
                << label << " addr " << addr;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOrganizations, BatchEquivalence,
    ::testing::ValuesIn(standardComparisonLabels()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        std::string name = info.param;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

} // anonymous namespace
} // namespace cac
