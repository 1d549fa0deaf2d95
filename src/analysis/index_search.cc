#include "analysis/index_search.hh"

#include <algorithm>
#include <cstdio>
#include <unordered_set>
#include <utility>
#include <vector>

#include "analysis/conflict_analyzer.hh"
#include "cache/fully_assoc.hh"
#include "cache/set_assoc.hh"
#include "common/bits.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "core/sweep.hh"
#include "index/factory.hh"
#include "index/index_plan.hh"
#include "obs/obs.hh"
#include "index/ipoly.hh"
#include "index/matrix_index.hh"
#include "index/xor_skew.hh"
#include "poly/catalog.hh"

namespace cac
{

namespace
{

/** Label of the shared fully-associative conflict reference. */
const char *const kReferenceLabel = "(full-ref)";

/**
 * The distinct block addresses of a stream, each cut to its low
 * @p key_bits bits: with key_bits the widest IndexPlan::inputBits() of
 * the candidates, every way-0 index over the cut set equals the one over
 * the full set, and memory is bounded by 2^key_bits entries instead of
 * the stream's footprint. Keys of up to kBitmapBits bits (the default
 * 14 input bits among them) live in a bitmap, wider ones in a hash set.
 */
class BlockKeys
{
  public:
    explicit BlockKeys(unsigned key_bits)
        : mask_(mask(key_bits)),
          bitmap_(key_bits <= kBitmapBits ? std::size_t{1} << key_bits
                                          : 0)
    {
    }

    void insert(std::uint64_t block)
    {
        const std::uint64_t key = block & mask_;
        if (bitmap_.empty())
            set_.insert(key);
        else
            bitmap_[key] = true;
    }

    /** The distinct keys seen, in no particular order. */
    std::vector<std::uint64_t> keys() const
    {
        std::vector<std::uint64_t> out(set_.begin(), set_.end());
        for (std::size_t k = 0; k < bitmap_.size(); ++k) {
            if (bitmap_[k])
                out.push_back(k);
        }
        return out;
    }

  private:
    static constexpr unsigned kBitmapBits = 24; ///< bitmap of 2 MiB
    std::uint64_t mask_;
    std::vector<bool> bitmap_;
    std::unordered_set<std::uint64_t> set_;
};

/**
 * The shared fully-associative reference cell, which also collects the
 * stream's distinct block addresses into @p blocks: a candidate's
 * way-0 occupancy is then one index evaluation per distinct block
 * instead of one per access, on every workload form (addresses,
 * in-memory trace, streamed trace file).
 */
class ReferenceTarget final : public CacheTarget
{
  public:
    ReferenceTarget(const CacheGeometry &geometry, BlockKeys &blocks)
        : CacheTarget(std::make_unique<FullyAssocCache>(
              geometry.sizeBytes(), geometry.blockBytes())),
          geometry_(geometry), blocks_(blocks)
    {
    }

    void accessBatch(const std::uint64_t *addrs, std::size_t n,
                     bool is_write) override
    {
        for (std::size_t i = 0; i < n; ++i)
            record(addrs[i]);
        CacheTarget::accessBatch(addrs, n, is_write);
    }

    void replay(const TraceRecord *recs, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i) {
            if (isMemOp(recs[i].op))
                record(recs[i].addr);
        }
        CacheTarget::replay(recs, n);
    }

  private:
    void record(std::uint64_t addr)
    {
        blocks_.insert(geometry_.blockAddr(addr));
    }

    CacheGeometry geometry_;
    BlockKeys &blocks_;
};

} // anonymous namespace

IndexSearch::IndexSearch(const SearchConfig &config) : config_(config)
{
    const unsigned m = config_.geometry.setBits();
    const unsigned ways = config_.geometry.ways();
    const unsigned v = config_.inputBits;
    CAC_ASSERT(v >= m && v <= 64);

    if (config_.includeBaselines) {
        candidates_.push_back({"mod", "mod", [m, ways] {
                                   return std::make_unique<ModuloIndex>(
                                       m, ways);
                               }});
        candidates_.push_back({"hx-sk", "hx-sk", [m, ways] {
                                   return std::make_unique<XorSkewIndex>(
                                       m, ways, true);
                               }});
    }

    // Catalog polynomials: candidate k uses the k-th irreducible of
    // degree m — identical per way ("hp[k]") and the skewed assignment
    // giving way w the (k+w)-th polynomial ("hp-sk[k]").
    const std::size_t npolys =
        std::min(config_.polyStarts, PolyCatalog::countIrreducible(m));
    for (std::size_t k = 0; k < npolys; ++k) {
        candidates_.push_back(
            {"hp[" + std::to_string(k) + "]", "hp", [m, ways, v, k] {
                 std::vector<Gf2Poly> polys(
                     ways, PolyCatalog::irreducible(m, k));
                 return std::make_unique<IPolyIndex>(polys, v);
             }});
        if (ways > 1) {
            candidates_.push_back(
                {"hp-sk[" + std::to_string(k) + "]", "hp-sk",
                 [m, ways, v, k] {
                     const std::size_t count =
                         PolyCatalog::countIrreducible(m);
                     std::vector<Gf2Poly> polys;
                     for (unsigned w = 0; w < ways; ++w) {
                         polys.push_back(PolyCatalog::irreducible(
                             m, (k + w) % count));
                     }
                     return std::make_unique<IPolyIndex>(polys, v);
                 }});
        }
    }

    // Seeded random full-rank XOR matrices (skewed: independent draws
    // per way). Deterministic given config_.seed.
    for (std::size_t s = 0; s < config_.randomSeeds; ++s) {
        const std::uint64_t seed = config_.seed + s;
        candidates_.push_back(
            {"rand[" + std::to_string(s) + "]", "rand",
             [m, ways, v, seed] {
                 return MatrixIndex::randomFullRank(m, ways, v, seed);
             }});
    }
}

void
IndexSearch::addCandidate(IndexCandidate candidate)
{
    CAC_ASSERT(candidate.make != nullptr);
    candidates_.push_back(std::move(candidate));
}

std::vector<SearchResult>
IndexSearch::run(std::vector<std::uint64_t> addrs) const
{
    return runGrid([addrs = std::move(addrs)](SweepRunner &sweep) {
        sweep.addAddressWorkload("search", addrs);
    });
}

std::vector<SearchResult>
IndexSearch::run(std::shared_ptr<const Trace> trace) const
{
    CAC_ASSERT(trace != nullptr);
    return runGrid([trace = std::move(trace)](SweepRunner &sweep) {
        sweep.addTraceWorkload("search", trace);
    });
}

std::vector<SearchResult>
IndexSearch::runTraceFile(const std::string &path) const
{
    return runGrid([path](SweepRunner &sweep) {
        sweep.addTraceFileWorkload("search", path);
    });
}

std::vector<SearchResult>
IndexSearch::runGrid(
    const std::function<void(SweepRunner &)> &add_workload) const
{
    const CacheGeometry geometry = config_.geometry;

    // Static analysis first, on the calling thread: predicted conflict
    // score, fan-in and the certificate come from GF(2) algebra alone.
    // Each candidate's function and plan are kept for the occupancy
    // count below.
    std::vector<SearchResult> results(candidates_.size());
    std::vector<std::unique_ptr<IndexFn>> fns(candidates_.size());
    std::vector<IndexPlan> plans(candidates_.size());
    unsigned key_bits = 0;
    for (std::size_t i = 0; i < candidates_.size(); ++i) {
        SearchResult &r = results[i];
        r.label = candidates_[i].label;
        r.kind = candidates_[i].kind;
        CAC_OBS_SPAN_D("search", "search.analyze", r.label);
        fns[i] = candidates_[i].make();
        const IndexFn &fn = *fns[i];
        r.indexName = fn.name();
        r.skewed = fn.isSkewed();
        plans[i] = compilePlan(fn);
        key_bits = std::max(key_bits, plans[i].inputBits());
        const ConflictAnalysis analysis =
            analyzeIndex(fn, config_.inputBits);
        r.predictedScore = analysis.predictedConflictScore();
        r.strideFree = analysis.strideFreeCertificate();
        for (const WayConflictAnalysis &w : analysis.ways)
            r.maxFanIn = std::max(r.maxFanIn, w.maxFanIn);
    }

    // Measured pass: every candidate as a plain SetAssocCache next to
    // one fully-associative reference, on the sweep thread pool. The
    // reference cell (there is exactly one: one workload) also
    // collects the distinct blocks for the occupancy count.
    BlockKeys blocks(key_bits);
    SweepRunner sweep(config_.threads);
    if (config_.cellDeadlineMs > 0)
        sweep.setCellDeadline(config_.cellDeadlineMs);
    sweep.addTarget(kReferenceLabel, [geometry, &blocks] {
        return std::make_unique<ReferenceTarget>(geometry, blocks);
    });
    for (const IndexCandidate &candidate : candidates_) {
        const auto make = candidate.make;
        sweep.addOrg(candidate.label, [geometry, make] {
            return std::make_unique<SetAssocCache>(geometry, make());
        });
    }

    add_workload(sweep);
    const std::vector<SweepCell> cells = sweep.run();
    CAC_ASSERT(cells.size() == candidates_.size() + 1);
    const std::uint64_t reference_misses = cells[0].stats.misses();

    // A dead reference poisons every comparison: without its miss
    // count no candidate's conflict-miss delta means anything, so the
    // whole grid is reported failed with the reference's error.
    const bool reference_failed = cells[0].failed;
    const std::vector<std::uint64_t> keys = blocks.keys();

    for (std::size_t i = 0; i < candidates_.size(); ++i) {
        SearchResult &r = results[i];
        const SweepCell &cell = cells[i + 1];
        if (reference_failed || cell.failed) {
            r.failed = true;
            r.error = reference_failed ? cells[0].error : cell.error;
            continue;
        }
        const CacheStats &stats = cell.stats;
        r.stats = stats;
        r.conflictMisses = stats.misses() > reference_misses
                               ? stats.misses() - reference_misses
                               : 0;
        r.conflictMissPct =
            stats.accesses()
                ? 100.0 * static_cast<double>(r.conflictMisses)
                      / static_cast<double>(stats.accesses())
                : 0.0;
        // Way-0 occupancy: the sets way 0 maps at least one of the
        // stream's blocks to (what a ConflictProfiler histogram with
        // this candidate's plan would count as occupied).
        std::vector<bool> occupied(geometry.numSets(), false);
        for (std::uint64_t key : keys)
            occupied[plans[i].indexOne(key, 0)] = true;
        r.way0OccupiedSets = static_cast<std::uint64_t>(
            std::count(occupied.begin(), occupied.end(), true));
    }

    // Rank: measured conflicts first, predictions break ties, cheaper
    // hardware breaks those, label order makes the sort total (and the
    // result reproducible at any thread count). Failed cells sort
    // after every healthy one.
    std::sort(results.begin(), results.end(),
              [](const SearchResult &a, const SearchResult &b) {
                  if (a.failed != b.failed)
                      return !a.failed;
                  if (a.conflictMisses != b.conflictMisses)
                      return a.conflictMisses < b.conflictMisses;
                  if (a.predictedScore != b.predictedScore)
                      return a.predictedScore < b.predictedScore;
                  if (a.maxFanIn != b.maxFanIn)
                      return a.maxFanIn < b.maxFanIn;
                  return a.label < b.label;
              });
    for (std::size_t i = 0; i < results.size(); ++i)
        results[i].rank = static_cast<unsigned>(i);
    return results;
}

std::string
searchCsv(const std::vector<SearchResult> &results)
{
    std::string out =
        "rank,candidate,kind,index,skewed,max_fanin,predicted_score,"
        "stride_free,accesses,misses,miss_pct,conflict_misses,"
        "conflict_miss_pct,way0_occupied_sets\n";
    char numbers[192];
    for (const SearchResult &r : results) {
        // Strings are appended quoted and unbounded; only the numeric
        // tail goes through the fixed-size formatting buffer.
        out += std::to_string(r.rank);
        out += ',';
        out += csvField(r.label);
        out += ',';
        out += csvField(r.kind);
        out += ',';
        out += csvField(r.indexName);
        std::snprintf(
            numbers, sizeof(numbers),
            ",%d,%u,%u,%d,%llu,%llu,%.4f,%llu,%.4f,%llu\n",
            r.skewed ? 1 : 0, r.maxFanIn, r.predictedScore,
            r.strideFree ? 1 : 0,
            static_cast<unsigned long long>(r.stats.accesses()),
            static_cast<unsigned long long>(r.stats.misses()),
            100.0 * r.stats.missRatio(),
            static_cast<unsigned long long>(r.conflictMisses),
            r.conflictMissPct,
            static_cast<unsigned long long>(r.way0OccupiedSets));
        out += numbers;
    }
    return out;
}

} // namespace cac
