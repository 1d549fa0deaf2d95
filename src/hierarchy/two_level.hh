/**
 * @file
 * Hole statistics of the two-level virtual-real cache hierarchy (Wang,
 * Baer & Levy [25], as adopted by the paper's sections 3.1-3.3).
 *
 * L1 is virtually indexed (exposing address bits beyond the page offset
 * to the I-Poly hash without translation delay); L2 is physically
 * indexed. Inclusion is enforced explicitly: when an L2 fill replaces a
 * valid line, the corresponding virtual line is invalidated at L1 —
 * possibly creating a *hole*. The hierarchy counts L2 misses, forced
 * invalidations, coincidences (invalidation target == incoming fill
 * slot) and holes, which the holes_model bench compares against the
 * analytic P_H.
 *
 * The hierarchy itself is multicore/coherent_system.hh's
 * CoherentSystem: a `2lvl:L1/L2` target is that system with one core.
 */

#ifndef CAC_HIERARCHY_TWO_LEVEL_HH
#define CAC_HIERARCHY_TWO_LEVEL_HH

#include <cstdint>

namespace cac
{

/** Hole bookkeeping for the section 3.3 experiment. */
struct HoleStats
{
    std::uint64_t l1Misses = 0;
    std::uint64_t l2Misses = 0;
    std::uint64_t l2Replacements = 0;    ///< L2 fills that evicted data
    std::uint64_t inclusionInvalidates = 0; ///< victim found in L1 (P_r)
    std::uint64_t holesCreated = 0;      ///< invalidation left a hole
    std::uint64_t holeRefills = 0;       ///< L1 misses on holed blocks
    std::uint64_t externalInvalidates = 0;
    /**
     * Virtual-alias removals: a fill found another virtual block for
     * the same physical block resident at L1, and shot it down (the
     * "at most one alias in L1 at any instant" rule, section 3.3
     * cause 2).
     */
    std::uint64_t aliasRemovals = 0;

    /** Measured fraction of L2 misses creating a hole (vs model P_H). */
    double holesPerL2Miss() const
    {
        return l2Misses
            ? static_cast<double>(holesCreated)
              / static_cast<double>(l2Misses)
            : 0.0;
    }

    /** Measured P_r: L2 victims found resident in L1. */
    double replacedInL1PerL2Replacement() const
    {
        return l2Replacements
            ? static_cast<double>(inclusionInvalidates)
              / static_cast<double>(l2Replacements)
            : 0.0;
    }
};

/** now - then, counter by counter (sharded-replay reconciliation). */
HoleStats holeStatsDelta(const HoleStats &now, const HoleStats &then);

/** into += delta, counter by counter. */
void holeStatsAccumulate(HoleStats &into, const HoleStats &delta);

} // namespace cac

#endif // CAC_HIERARCHY_TWO_LEVEL_HH
