/**
 * @file
 * The two-level virtual-real hierarchy of the paper's sections 3.1-3.3
 * (Wang, Baer & Levy [25]), for one core or N: per-core private
 * virtually indexed L1s (any registry organization, so skewed/I-Poly
 * L1s work unchanged) over one shared physically indexed L2, joined by
 * a shared-L2 attribution layer.
 *
 * Each core's data path is the virtual-real protocol: Inclusion with
 * back-invalidation holes, the one-alias rule, write-back of dirty L1
 * victims. With one core the system *is* the plain two-level
 * hierarchy: the registry builds `2lvl:L1/L2` as a one-core system.
 *
 * With more cores, each physical block lives in at most one core's L1
 * by construction: access() routes an address to the core owning its
 * ASID window, no page spans two windows, and PageMap gives each page
 * its own frame (an aliasTo() across windows is outside the model;
 * checkCoherence() flags it). A store hit therefore needs no work past
 * its L1. The cores share the L2, and the layer attributes that
 * interference: the L2 remembers which core filled each line; when one
 * core's fill evicts another core's line, and anyone but the evictor
 * next misses on it, that miss is charged as an inter-core conflict
 * miss — the multicore analogue of the paper's conflict-miss question:
 * does skewed/polynomial placement keep its edge when the interleaving
 * pressure comes from other cores?
 *
 * Streams demultiplex onto cores by ASID window: core = (vaddr /
 * windowBytes) % cores, with windowBytes matching the Scenario
 * engine's asidStrideBytes so program k of a mix runs on core
 * k % cores. The interleaving order is whatever the (deterministic,
 * quantum round-robin) Scenario composition produced, so results are
 * bit-stable at any host thread count.
 */

#ifndef CAC_MULTICORE_COHERENT_SYSTEM_HH
#define CAC_MULTICORE_COHERENT_SYSTEM_HH

#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache_model.hh"
#include "hierarchy/page_map.hh"
#include "hierarchy/two_level.hh"

namespace cac
{

class SetAssocCache;

/**
 * Per-core statistics row: the core's private-L1 functional stats, its
 * Inclusion/hole bookkeeping, and the shared-L2 interference it saw.
 */
struct McCoreStats
{
    CacheStats l1; ///< private L1 functional stats (filled at harvest)
    HoleStats holes; ///< per-core Inclusion invalidations and holes

    /** This core's L2 lines evicted by other cores' fills. */
    std::uint64_t l2EvictionsByOthers = 0;
    /**
     * L2 misses on lines a *different* core previously evicted — the
     * inter-core conflict-miss attribution the sweep reports per core.
     */
    std::uint64_t interCoreConflictMisses = 0;
};

/** now - then, counter by counter (sharded-replay reconciliation). */
McCoreStats mcCoreStatsDelta(const McCoreStats &now,
                             const McCoreStats &then);

/** into += delta, counter by counter. */
void mcCoreStatsAccumulate(McCoreStats &into, const McCoreStats &delta);

/** Whole-system multicore statistics: per-core rows + totals. */
struct MultiCoreStats
{
    std::vector<McCoreStats> cores;

    /**
     * Always 0: no L1 ever holds another core's block, so there is no
     * L1-to-L1 transfer or invalidation to count. Kept only because
     * the benchmark (perfbench) still reads both fields.
     */
    std::uint64_t interventions = 0;
    std::uint64_t invalidationMessages = 0;

    /** Sum of per-core inter-core conflict misses. */
    std::uint64_t totalInterCoreConflictMisses() const;

    /** Sum of per-core L2 evictions caused by other cores. */
    std::uint64_t totalL2EvictionsByOthers() const;
};

/** now - then over every core row. */
MultiCoreStats multiCoreStatsDelta(const MultiCoreStats &now,
                                   const MultiCoreStats &then);

/** into += delta over every core row. */
void multiCoreStatsAccumulate(MultiCoreStats &into,
                              const MultiCoreStats &delta);

/**
 * The N-core two-level system. Construct with one L1 per core
 * (identical geometry) and the shared L2; drive it with
 * access()/accessRun(); read per-core and aggregate stats back. Each
 * physical block is cached by at most one core; a PageMap::aliasTo()
 * across ASID windows is outside the model.
 */
class CoherentSystem
{
  public:
    /**
     * @param l1s one private cache per core; identical geometries.
     * @param l2 the shared cache; accessed with physical addresses.
     * @param page_map translation model (shared by all cores).
     * @param window_bytes ASID-window stride demultiplexing streams
     *        onto cores; match ScenarioConfig::asidStrideBytes. With
     *        more than one core it must be a multiple of the page
     *        size, so that no page spans two cores.
     */
    CoherentSystem(std::vector<std::unique_ptr<CacheModel>> l1s,
                   std::unique_ptr<CacheModel> l2, PageMap page_map,
                   std::uint64_t window_bytes);

    /** One core: the plain two-level hierarchy. */
    CoherentSystem(std::unique_ptr<CacheModel> l1,
                   std::unique_ptr<CacheModel> l2, PageMap page_map);

    unsigned numCores() const
    {
        return static_cast<unsigned>(l1s_.size());
    }

    std::uint64_t windowBytes() const { return window_bytes_; }

    /** Which core a virtual address' ASID window routes to. */
    unsigned coreFor(std::uint64_t vaddr) const
    {
        return static_cast<unsigned>((vaddr / window_bytes_)
                                     % l1s_.size());
    }

    /**
     * One reference, routed to coreFor(@p vaddr).
     *
     * @return true when that core's private L1 hit.
     */
    bool access(std::uint64_t vaddr, bool is_write);

    /**
     * @p n references in stream order, loads and stores mixed
     * (@p writes: one flag per reference, nonzero = store, 0 = load),
     * demultiplexed onto cores by ASID window. Identical in outcome to
     * n access() calls.
     */
    void accessRun(const std::uint64_t *vaddrs, const std::uint8_t *writes,
                   std::size_t n);

    const CacheModel &l1(unsigned core) const { return *l1s_[core]; }
    const CacheModel &l2() const { return *l2_; }
    PageMap &pageMap() { return page_map_; }

    /** Full multicore stats with per-core L1 rows filled in. */
    MultiCoreStats stats() const;

    /** All cores' L1 stats summed into one row (sweep aggregate). */
    CacheStats aggregateL1() const;

    /** All cores' hole bookkeeping summed into one row. */
    HoleStats aggregateHoles() const;

    /**
     * Verify the reverse maps: every entry matches a resident L1 line,
     * and no physical block is in two cores' maps (the one-core-per-
     * block condition). O(tracked blocks); test hook.
     */
    bool checkCoherence() const;

    /**
     * Verify Inclusion at every core: a virtual block resident in a
     * private L1 has its physical block resident in the shared L2.
     */
    bool checkInclusion() const;

    /**
     * External coherence invalidation, physically addressed: the line
     * leaves the L2 and every core's L1 copy (found through the
     * reverse maps, section 3.2's Inclusion argument). Every core's
     * row counts one externalInvalidates, whether or not its L1 held
     * the line: the snoop reaches each core.
     */
    void externalInvalidate(std::uint64_t paddr);

    /**
     * Flush every private L1 (and the reverse maps and pending holes
     * that describe their contents) — the context-switch cold start
     * of virtual caches without ASIDs. The physically
     * indexed L2 and its fill attribution survive; Inclusion trivially
     * holds on empty L1s.
     */
    void flushL1s();

  private:
    /** Everything access() does after a private-L1 miss. */
    void missPath(unsigned core, std::uint64_t vaddr, bool is_write,
                  const AccessResult &l1_result);

    /** Per-core batch with the packed-index fast path when possible. */
    void coreBatch(unsigned core, const std::uint64_t *vaddrs,
                   const std::uint8_t *writes, std::size_t n);

    std::vector<std::unique_ptr<CacheModel>> l1s_;
    /** l1s_[i] downcast when it is a SetAssocCache (batch fast path). */
    std::vector<SetAssocCache *> l1_sa_;
    std::unique_ptr<CacheModel> l2_;
    PageMap page_map_;
    std::uint64_t window_bytes_;

    /** Hole + attribution counters (per-core l1 filled lazily). */
    MultiCoreStats mc_;

    /** Per-core reverse maps: physical block -> resident vblock. */
    std::vector<std::unordered_map<std::uint64_t, std::uint64_t>>
        l1_contents_;
    /** Per-core blocks invalidated by Inclusion, pending re-reference. */
    std::vector<std::unordered_map<std::uint64_t, bool>> holes_;
    /** Physical block -> core whose miss last filled it into L2. */
    std::unordered_map<std::uint64_t, unsigned> l2_filler_;
    /** Physical block -> core whose fill last evicted it from L2. */
    std::unordered_map<std::uint64_t, unsigned> evicted_by_;
};

} // namespace cac

#endif // CAC_MULTICORE_COHERENT_SYSTEM_HH
