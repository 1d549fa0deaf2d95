#include "hierarchy/two_level.hh"

namespace cac
{

namespace
{

/** The HoleStats counter list (delta/accumulate cannot drift apart). */
constexpr std::uint64_t HoleStats::*kHoleFields[] = {
    &HoleStats::l1Misses,
    &HoleStats::l2Misses,
    &HoleStats::l2Replacements,
    &HoleStats::inclusionInvalidates,
    &HoleStats::holesCreated,
    &HoleStats::holeRefills,
    &HoleStats::externalInvalidates,
    &HoleStats::aliasRemovals};

} // anonymous namespace

HoleStats
holeStatsDelta(const HoleStats &now, const HoleStats &then)
{
    HoleStats d;
    for (auto field : kHoleFields)
        d.*field = now.*field - then.*field;
    return d;
}

void
holeStatsAccumulate(HoleStats &into, const HoleStats &delta)
{
    for (auto field : kHoleFields)
        into.*field += delta.*field;
}

} // namespace cac
