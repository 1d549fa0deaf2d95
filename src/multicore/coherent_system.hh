/**
 * @file
 * The two-level virtual-real hierarchy of the paper's sections 3.1-3.3
 * (Wang, Baer & Levy [25]), for one core or N: per-core private
 * virtually indexed L1s (any registry organization, so skewed/I-Poly
 * L1s work unchanged) over one shared physically indexed L2, joined by
 * a MESI-lite coherence layer.
 *
 * Each core's data path is the virtual-real protocol: Inclusion with
 * back-invalidation holes, the one-alias rule, write-back of dirty L1
 * victims. With one core every coherence step is skipped, and the
 * system *is* the plain two-level hierarchy: the registry builds
 * `2lvl:L1/L2` as a one-core system. With more cores the layer adds:
 *
 *  - M/S/I line states. A store installs the line Modified in the
 *    writer's L1 after invalidating every other copy
 *    (invalidate-on-write); a load leaves it Shared. At most one core
 *    may hold a line Modified (SWMR — the litmus suite asserts this
 *    after every step).
 *  - L1-to-L1 intervention: a miss on a line another core holds
 *    Modified is served by that cache, not the L2 — counted separately
 *    from L2 hits (interventions never touch L2 state). A read
 *    intervention downgrades the owner to Shared; a write intervention
 *    invalidates it.
 *  - Inter-core conflict attribution: the L2 remembers which core
 *    filled each line; when one core's fill evicts another core's
 *    line, and the victim core (or anyone but the evictor) next
 *    misses on it, that miss is charged as an inter-core conflict
 *    miss. This is the multicore analogue of the paper's
 *    conflict-miss question: does skewed/polynomial placement keep
 *    its edge when the interleaving pressure comes from other cores?
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
 * Inclusion/hole bookkeeping, and the coherence traffic it saw.
 */
struct McCoreStats
{
    CacheStats l1; ///< private L1 functional stats (filled at harvest)
    HoleStats holes; ///< per-core Inclusion invalidations and holes

    /** Misses this core had served from a peer L1 (M line elsewhere). */
    std::uint64_t interventionsReceived = 0;
    /** Modified lines this core supplied to a peer's miss. */
    std::uint64_t interventionsSupplied = 0;
    /** Copies this core lost to peers' stores (invalidate-on-write). */
    std::uint64_t invalidationsReceived = 0;
    /** Write hits on Shared lines promoted to Modified (S -> M). */
    std::uint64_t upgrades = 0;
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

/** Whole-system multicore statistics: per-core rows + bus totals. */
struct MultiCoreStats
{
    std::vector<McCoreStats> cores;

    /** Total L1-to-L1 transfers (not L2 hits, not L2 misses). */
    std::uint64_t interventions = 0;
    /** Total coherence invalidation messages delivered to L1s. */
    std::uint64_t invalidationMessages = 0;

    /** Sum of per-core inter-core conflict misses. */
    std::uint64_t totalInterCoreConflictMisses() const;

    /** Sum of per-core L2 evictions caused by other cores. */
    std::uint64_t totalL2EvictionsByOthers() const;
};

/** now - then over every core row and bus counter. */
MultiCoreStats multiCoreStatsDelta(const MultiCoreStats &now,
                                   const MultiCoreStats &then);

/** into += delta over every core row and bus counter. */
void multiCoreStatsAccumulate(MultiCoreStats &into,
                              const MultiCoreStats &delta);

/**
 * The coherent N-core two-level system. Construct with one L1 per
 * core (identical geometry) and the shared L2; drive it with
 * access()/accessRun(); read per-core and aggregate stats back.
 */
class CoherentSystem
{
  public:
    /** Coherence state of a line in one core's L1 (test hook). */
    enum class LineState
    {
        Invalid,
        Shared,
        Modified
    };

    /**
     * @param l1s one private cache per core; identical geometries.
     * @param l2 the shared cache; accessed with physical addresses.
     * @param page_map translation model (shared by all cores).
     * @param window_bytes ASID-window stride demultiplexing streams
     *        onto cores; match ScenarioConfig::asidStrideBytes.
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
     * One reference from @p core.
     *
     * @return true when the core's private L1 hit.
     */
    bool access(unsigned core, std::uint64_t vaddr, bool is_write);

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
     * Coherence state of @p vaddr's line in @p core's L1. Non-const
     * because it translates (memoized; consumes no randomness).
     */
    LineState state(unsigned core, std::uint64_t vaddr);

    /**
     * Verify SWMR + directory consistency: a Modified line is resident
     * in exactly its owner's L1 and nowhere else, and every reverse-map
     * entry matches a resident line. O(tracked blocks); test hook.
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
     * reverse maps, section 3.2's Inclusion argument), and its
     * ownership ends. Every core's row counts one externalInvalidates,
     * whether or not its L1 held the line: the snoop reaches each
     * core.
     */
    void externalInvalidate(std::uint64_t paddr);

    /**
     * Flush every private L1 (and the reverse maps, pending holes and
     * ownership that describe their contents) — the context-switch
     * cold start of virtual caches without ASIDs. The physically
     * indexed L2 and its fill attribution survive; Inclusion trivially
     * holds on empty L1s.
     */
    void flushL1s();

  private:
    /** Everything access() does after a private-L1 miss. */
    void missPath(unsigned core, std::uint64_t vaddr, bool is_write,
                  const AccessResult &l1_result);

    /** S -> M promotion on a write hit: invalidate peers, take M. */
    void writeHitUpgrade(unsigned core, std::uint64_t vaddr);

    /** Invalidate every other core's copy of @p pblock. */
    void invalidateOtherCopies(unsigned core, std::uint64_t pblock);

    /** Drop @p core's ownership of @p pblock if it holds it. */
    void dropOwnership(std::uint64_t pblock, unsigned core);

    /** Per-core batch with the packed-index fast path when possible. */
    void coreBatch(unsigned core, const std::uint64_t *vaddrs,
                   const std::uint8_t *writes, std::size_t n);

    std::vector<std::unique_ptr<CacheModel>> l1s_;
    /** l1s_[i] downcast when it is a SetAssocCache (batch fast path). */
    std::vector<SetAssocCache *> l1_sa_;
    std::unique_ptr<CacheModel> l2_;
    PageMap page_map_;
    std::uint64_t window_bytes_;

    /** Coherence + attribution counters (per-core l1 filled lazily). */
    MultiCoreStats mc_;

    /** Per-core reverse maps: physical block -> resident vblock. */
    std::vector<std::unordered_map<std::uint64_t, std::uint64_t>>
        l1_contents_;
    /** Per-core blocks invalidated by Inclusion, pending re-reference. */
    std::vector<std::unordered_map<std::uint64_t, bool>> holes_;
    /** Directory: physical block -> core holding it Modified. */
    std::unordered_map<std::uint64_t, unsigned> owner_;
    /** Physical block -> core whose miss last filled it into L2. */
    std::unordered_map<std::uint64_t, unsigned> l2_filler_;
    /** Physical block -> core whose fill last evicted it from L2. */
    std::unordered_map<std::uint64_t, unsigned> evicted_by_;
};

} // namespace cac

#endif // CAC_MULTICORE_COHERENT_SYSTEM_HH
