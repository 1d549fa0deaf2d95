#include "multicore/coherent_system.hh"

#include <unordered_set>

#include "cache/set_assoc.hh"
#include "common/logging.hh"

namespace cac
{

namespace
{

/** McCoreStats counter list (delta/accumulate cannot drift apart). */
constexpr std::uint64_t McCoreStats::*kMcCoreFields[] = {
    &McCoreStats::l2EvictionsByOthers,
    &McCoreStats::interCoreConflictMisses};

/** A one-element L1 vector (unique_ptrs rule out a braced list). */
std::vector<std::unique_ptr<CacheModel>>
oneL1(std::unique_ptr<CacheModel> l1)
{
    std::vector<std::unique_ptr<CacheModel>> l1s;
    l1s.push_back(std::move(l1));
    return l1s;
}

} // anonymous namespace

McCoreStats
mcCoreStatsDelta(const McCoreStats &now, const McCoreStats &then)
{
    McCoreStats d;
    d.l1 = cacheStatsDelta(now.l1, then.l1);
    d.holes = holeStatsDelta(now.holes, then.holes);
    for (auto field : kMcCoreFields)
        d.*field = now.*field - then.*field;
    return d;
}

void
mcCoreStatsAccumulate(McCoreStats &into, const McCoreStats &delta)
{
    cacheStatsAccumulate(into.l1, delta.l1);
    holeStatsAccumulate(into.holes, delta.holes);
    for (auto field : kMcCoreFields)
        into.*field += delta.*field;
}

std::uint64_t
MultiCoreStats::totalInterCoreConflictMisses() const
{
    std::uint64_t total = 0;
    for (const McCoreStats &core : cores)
        total += core.interCoreConflictMisses;
    return total;
}

std::uint64_t
MultiCoreStats::totalL2EvictionsByOthers() const
{
    std::uint64_t total = 0;
    for (const McCoreStats &core : cores)
        total += core.l2EvictionsByOthers;
    return total;
}

MultiCoreStats
multiCoreStatsDelta(const MultiCoreStats &now, const MultiCoreStats &then)
{
    CAC_ASSERT(then.cores.empty()
               || then.cores.size() == now.cores.size());
    MultiCoreStats d;
    d.cores.resize(now.cores.size());
    for (std::size_t i = 0; i < now.cores.size(); ++i) {
        d.cores[i] = then.cores.empty()
            ? now.cores[i]
            : mcCoreStatsDelta(now.cores[i], then.cores[i]);
    }
    return d;
}

void
multiCoreStatsAccumulate(MultiCoreStats &into, const MultiCoreStats &delta)
{
    if (into.cores.size() < delta.cores.size())
        into.cores.resize(delta.cores.size());
    for (std::size_t i = 0; i < delta.cores.size(); ++i)
        mcCoreStatsAccumulate(into.cores[i], delta.cores[i]);
}

CoherentSystem::CoherentSystem(std::vector<std::unique_ptr<CacheModel>> l1s,
                               std::unique_ptr<CacheModel> l2,
                               PageMap page_map,
                               std::uint64_t window_bytes)
    : l1s_(std::move(l1s)), l2_(std::move(l2)),
      page_map_(std::move(page_map)), window_bytes_(window_bytes)
{
    CAC_ASSERT(!l1s_.empty() && l2_);
    CAC_ASSERT(window_bytes_ > 0);
    for (const auto &l1 : l1s_) {
        CAC_ASSERT(l1);
        if (l1->geometry().blockBytes() != l2_->geometry().blockBytes())
            fatal("L1 and L2 must share a block size in this hierarchy");
        if (l1->geometry().blockBytes()
            != l1s_.front()->geometry().blockBytes())
            fatal("all private L1s must share a block size");
    }
    if (page_map_.pageBytes() < l1s_.front()->geometry().blockBytes())
        fatal("page size smaller than the cache block size");
    if (l1s_.size() > 1 && window_bytes_ % page_map_.pageBytes() != 0)
        fatal("the core window must be a multiple of the page size");
    l1_sa_.reserve(l1s_.size());
    for (auto &l1 : l1s_)
        l1_sa_.push_back(dynamic_cast<SetAssocCache *>(l1.get()));
    mc_.cores.resize(l1s_.size());
    l1_contents_.resize(l1s_.size());
    holes_.resize(l1s_.size());
}

CoherentSystem::CoherentSystem(std::unique_ptr<CacheModel> l1,
                               std::unique_ptr<CacheModel> l2,
                               PageMap page_map)
    // Any window routes every address to the only core.
    : CoherentSystem(oneL1(std::move(l1)), std::move(l2),
                     std::move(page_map), 1)
{
}

bool
CoherentSystem::access(std::uint64_t vaddr, bool is_write)
{
    const unsigned core = coreFor(vaddr);
    const AccessResult l1_result = l1s_[core]->access(vaddr, is_write);
    if (!l1_result.hit)
        missPath(core, vaddr, is_write, l1_result);
    return l1_result.hit;
}

void
CoherentSystem::accessRun(const std::uint64_t *vaddrs,
                          const std::uint8_t *writes, std::size_t n)
{
    if (l1s_.size() == 1) {
        coreBatch(0, vaddrs, writes, n);
        return;
    }
    // Demultiplex into maximal same-core runs, kinds still mixed:
    // within a scenario quantum every address belongs to one program
    // (one ASID window, one core), so runs are long and the per-core
    // fast path applies.
    std::size_t base = 0;
    while (base < n) {
        const unsigned core = coreFor(vaddrs[base]);
        std::size_t end = base + 1;
        while (end < n && coreFor(vaddrs[end]) == core)
            ++end;
        coreBatch(core, vaddrs + base, writes + base, end - base);
        base = end;
    }
}

void
CoherentSystem::coreBatch(unsigned core, const std::uint64_t *vaddrs,
                          const std::uint8_t *writes, std::size_t n)
{
    SetAssocCache *sa = l1_sa_[core];
    if (sa == nullptr || !sa->indexPlan().packedCapable()) {
        for (std::size_t i = 0; i < n; ++i) {
            const bool is_write = writes[i] != 0;
            const AccessResult r = l1s_[core]->access(vaddrs[i], is_write);
            if (!r.hit)
                missPath(core, vaddrs[i], is_write, r);
        }
        return;
    }
    // L1 hits — the overwhelming majority — cost one precomputed-index
    // lookup; only misses enter the translation + L2 path.
    const IndexPlan &plan = sa->indexPlan();
    constexpr std::size_t kTile = 256;
    std::uint64_t blocks[kTile];
    std::uint64_t packed[kTile];
    for (std::size_t base = 0; base < n; base += kTile) {
        const std::size_t m = n - base < kTile ? n - base : kTile;
        for (std::size_t i = 0; i < m; ++i)
            blocks[i] = sa->geometry().blockAddr(vaddrs[base + i]);
        plan.indexPackedBatch(blocks, m, packed);
        for (std::size_t i = 0; i < m; ++i) {
            const bool is_write = writes[base + i] != 0;
            const AccessResult r =
                sa->accessPacked(blocks[i], packed[i], is_write);
            if (!r.hit)
                missPath(core, vaddrs[base + i], is_write, r);
        }
    }
}

void
CoherentSystem::missPath(unsigned core, std::uint64_t vaddr, bool is_write,
                         const AccessResult &l1_result)
{
    // Inter-core attribution is guarded by `multi`, so a 1-core system
    // runs the plain two-level protocol.
    CacheModel &l1 = *l1s_[core];
    auto &contents = l1_contents_[core];
    McCoreStats &cs = mc_.cores[core];
    const bool multi = l1s_.size() > 1;

    const std::uint64_t vblock = l1.geometry().blockAddr(vaddr);

    ++cs.holes.l1Misses;
    if (holes_[core].erase(vblock))
        ++cs.holes.holeRefills;

    const std::uint64_t paddr = page_map_.translate(vaddr);
    const std::uint64_t pblock = l2_->geometry().blockAddr(paddr);

    std::uint64_t l1_evicted_vblock = 0;
    bool l1_evicted = false;
    if (l1_result.evictedAddr) {
        l1_evicted = true;
        l1_evicted_vblock = l1.geometry().blockAddr(*l1_result.evictedAddr);
        const std::uint64_t evicted_pblock = l2_->geometry().blockAddr(
            page_map_.translate(*l1_result.evictedAddr));
        contents.erase(evicted_pblock);
        // A dirty write-back from L1 updates L2 (hit expected under
        // Inclusion).
        if (l1_result.evictedDirty)
            l2_->access(page_map_.translate(*l1_result.evictedAddr), true);
    }
    if (l1_result.filled) {
        // Virtual-alias rule: at most one virtual copy of a physical
        // block may live in one L1. If a different virtual block
        // already maps this physical block, shoot it down first.
        auto alias = contents.find(pblock);
        if (alias != contents.end() && alias->second != vblock) {
            if (l1.invalidate(l1.geometry().byteAddr(alias->second)))
                ++cs.holes.aliasRemovals;
        }
        contents[pblock] = vblock;
    }

    // Shared-L2 lookup with the physical address.
    AccessResult l2_result = l2_->access(paddr, is_write);
    if (l2_result.hit)
        return;

    ++cs.holes.l2Misses;
    if (multi) {
        // Inter-core conflict attribution: this miss is on a line a
        // different core's fill previously pushed out of the L2.
        auto eb = evicted_by_.find(pblock);
        if (eb != evicted_by_.end()) {
            if (eb->second != core)
                ++cs.interCoreConflictMisses;
            evicted_by_.erase(eb);
        }
        if (l2_result.filled)
            l2_filler_[pblock] = core;
    }
    if (l2_result.evictedAddr) {
        ++cs.holes.l2Replacements;
        const std::uint64_t victim_pblock =
            l2_->geometry().blockAddr(*l2_result.evictedAddr);
        if (multi) {
            auto filler = l2_filler_.find(victim_pblock);
            if (filler != l2_filler_.end()) {
                if (filler->second != core) {
                    ++mc_.cores[filler->second].l2EvictionsByOthers;
                    evicted_by_[victim_pblock] = core;
                } else {
                    evicted_by_.erase(victim_pblock);
                }
                l2_filler_.erase(filler);
            }
        }
        // Inclusion demands this data leave every private L1.
        for (unsigned j = 0; j < l1s_.size(); ++j) {
            auto it = l1_contents_[j].find(victim_pblock);
            if (it == l1_contents_[j].end())
                continue;
            ++mc_.cores[j].holes.inclusionInvalidates;
            const std::uint64_t victim_vblock = it->second;
            if (j == core && l1_evicted
                && victim_vblock == l1_evicted_vblock) {
                // Coincidence: the L1 fill already displaced it; no
                // hole appears (the paper's P_d complement).
            } else {
                const std::uint64_t victim_vaddr =
                    l1s_[j]->geometry().byteAddr(victim_vblock);
                if (l1s_[j]->invalidate(victim_vaddr)) {
                    ++mc_.cores[j].holes.holesCreated;
                    holes_[j][victim_vblock] = true;
                }
            }
            l1_contents_[j].erase(it);
        }
    }
}

MultiCoreStats
CoherentSystem::stats() const
{
    MultiCoreStats out = mc_;
    for (std::size_t i = 0; i < l1s_.size(); ++i)
        out.cores[i].l1 = l1s_[i]->stats();
    return out;
}

CacheStats
CoherentSystem::aggregateL1() const
{
    CacheStats total;
    for (const auto &l1 : l1s_)
        cacheStatsAccumulate(total, l1->stats());
    return total;
}

HoleStats
CoherentSystem::aggregateHoles() const
{
    HoleStats total;
    for (const McCoreStats &core : mc_.cores)
        holeStatsAccumulate(total, core.holes);
    return total;
}

bool
CoherentSystem::checkCoherence() const
{
    // Every reverse-map entry must match a resident L1 line, and no
    // physical block may be tracked by two cores.
    std::unordered_set<std::uint64_t> seen;
    for (unsigned c = 0; c < l1s_.size(); ++c) {
        for (const auto &[pblock, vblock] : l1_contents_[c]) {
            if (!l1s_[c]->probe(l1s_[c]->geometry().byteAddr(vblock)))
                return false;
            if (!seen.insert(pblock).second)
                return false;
        }
    }
    return true;
}

bool
CoherentSystem::checkInclusion() const
{
    for (unsigned c = 0; c < l1s_.size(); ++c) {
        for (const auto &[pblock, vblock] : l1_contents_[c]) {
            const std::uint64_t vaddr =
                l1s_[c]->geometry().byteAddr(vblock);
            const std::uint64_t paddr = l2_->geometry().byteAddr(pblock);
            if (l1s_[c]->probe(vaddr) && !l2_->probe(paddr))
                return false;
        }
    }
    return true;
}

void
CoherentSystem::externalInvalidate(std::uint64_t paddr)
{
    l2_->invalidate(paddr);
    const std::uint64_t pblock = l2_->geometry().blockAddr(paddr);
    for (unsigned c = 0; c < l1s_.size(); ++c) {
        ++mc_.cores[c].holes.externalInvalidates;
        auto it = l1_contents_[c].find(pblock);
        if (it == l1_contents_[c].end())
            continue;
        l1s_[c]->invalidate(l1s_[c]->geometry().byteAddr(it->second));
        l1_contents_[c].erase(it);
    }
    l2_filler_.erase(pblock);
}

void
CoherentSystem::flushL1s()
{
    for (auto &l1 : l1s_)
        l1->flush();
    for (auto &contents : l1_contents_)
        contents.clear();
    for (auto &holes : holes_)
        holes.clear();
}

} // namespace cac
