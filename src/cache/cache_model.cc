#include "cache/cache_model.hh"

#include <array>

namespace cac
{

CacheModel::CacheModel(const CacheGeometry &geometry) : geometry_(geometry)
{
}

const std::uint8_t *
sameKindFlags(bool is_write)
{
    static const std::array<std::uint8_t, kMaxRun> kLoads{};
    static const std::array<std::uint8_t, kMaxRun> kStores = [] {
        std::array<std::uint8_t, kMaxRun> flags;
        flags.fill(1);
        return flags;
    }();
    return is_write ? kStores.data() : kLoads.data();
}

void
CacheModel::accessRun(const std::uint64_t *addrs,
                      const std::uint8_t *writes, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        access(addrs[i], writes[i] != 0);
}

void
CacheModel::accessBatch(const std::uint64_t *addrs, std::size_t n,
                        bool is_write)
{
    accessSameKind(*this, addrs, n, is_write);
}

namespace
{

/**
 * The one list of CacheStats counters, so the delta and accumulate
 * sides of slice attribution cannot drift apart when a field is added.
 */
constexpr std::uint64_t CacheStats::*kStatFields[] = {
    &CacheStats::loads,          &CacheStats::stores,
    &CacheStats::loadMisses,     &CacheStats::storeMisses,
    &CacheStats::fills,          &CacheStats::evictions,
    &CacheStats::writebacks,     &CacheStats::invalidations,
    &CacheStats::firstProbeHits, &CacheStats::secondProbeHits};

} // anonymous namespace

CacheStats
cacheStatsDelta(const CacheStats &now, const CacheStats &then)
{
    CacheStats d;
    for (auto field : kStatFields)
        d.*field = now.*field - then.*field;
    return d;
}

void
cacheStatsAccumulate(CacheStats &into, const CacheStats &delta)
{
    for (auto field : kStatFields)
        into.*field += delta.*field;
}

} // namespace cac
