/**
 * @file
 * Tests for the parallel index-search engine, including the PR's
 * acceptance run: >= 32 candidates on a SPEC-proxy trace must rank a
 * skewed I-Poly index at or above the bit-selection baseline on
 * measured conflict misses, reproducibly and at any thread count, and
 * the top pick's predicted conflict classes must agree with measured
 * per-set profiles.
 */

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "analysis/conflict_analyzer.hh"
#include "analysis/conflict_profiler.hh"
#include "analysis/index_search.hh"
#include "cache/set_assoc.hh"
#include "core/sim_target.hh"
#include "index/index_fn.hh"
#include "trace/io.hh"
#include "workloads/spec_proxy.hh"
#include "workloads/stride.hh"

namespace cac
{
namespace
{

SearchConfig
testConfig(unsigned threads)
{
    SearchConfig config;
    config.threads = threads;
    return config; // defaults: paper L1, 16 poly starts, 8 random seeds
}

std::shared_ptr<const Trace>
proxyTrace()
{
    // swim is one of the paper's three high-conflict programs: large
    // congruent arrays that thrash a conventional index.
    static const auto trace = std::make_shared<const Trace>(
        buildSpecProxy("swim", 60000, /*seed=*/1));
    return trace;
}

/** Locate @p label's row, or null (callers ASSERT on the result). */
const SearchResult *
findLabel(const std::vector<SearchResult> &results,
          const std::string &label)
{
    auto it = std::find_if(results.begin(), results.end(),
                           [&](const SearchResult &r) {
                               return r.label == label;
                           });
    return it != results.end() ? &*it : nullptr;
}

TEST(IndexSearch, GridHasAtLeast32CandidatesAcrossFamilies)
{
    IndexSearch search(testConfig(1));
    EXPECT_GE(search.candidates().size(), 32u);
    std::size_t mod = 0, hp = 0, hpsk = 0, rand = 0;
    for (const IndexCandidate &c : search.candidates()) {
        mod += c.kind == "mod";
        hp += c.kind == "hp";
        hpsk += c.kind == "hp-sk";
        rand += c.kind == "rand";
    }
    EXPECT_EQ(mod, 1u);
    EXPECT_GE(hp, 16u);
    EXPECT_GE(hpsk, 16u);
    EXPECT_GE(rand, 8u);
}

TEST(IndexSearch, SkewedIPolyRanksAtOrAboveBitSelectionOnSpecProxy)
{
    IndexSearch search(testConfig(2));
    const auto results = search.run(proxyTrace());
    ASSERT_GE(results.size(), 32u);

    const SearchResult *mod_row = findLabel(results, "mod");
    ASSERT_NE(mod_row, nullptr);
    const SearchResult &mod = *mod_row;
    // Best skewed I-Poly candidate (they are sorted, so the first one
    // found in rank order is the best).
    auto it = std::find_if(results.begin(), results.end(),
                           [](const SearchResult &r) {
                               return r.kind == "hp-sk";
                           });
    ASSERT_NE(it, results.end());

    // The headline acceptance: measured conflict misses put the skewed
    // polynomial index at or above the conventional baseline.
    EXPECT_LE(it->rank, mod.rank);
    EXPECT_LE(it->conflictMisses, mod.conflictMisses);
    // On a high-conflict proxy the gap is not marginal.
    EXPECT_GT(mod.conflictMisses, 0u);
    // Predicted and measured agree about the baseline's weakness.
    EXPECT_FALSE(mod.strideFree);
    EXPECT_GT(mod.predictedScore, 0u);
    EXPECT_TRUE(it->strideFree);
    EXPECT_EQ(it->predictedScore, 0u);
}

TEST(IndexSearch, ResultsAreReproducibleAcrossRunsAndThreadCounts)
{
    const auto a = IndexSearch(testConfig(1)).run(proxyTrace());
    const auto b = IndexSearch(testConfig(1)).run(proxyTrace());
    const auto c = IndexSearch(testConfig(4)).run(proxyTrace());
    ASSERT_EQ(a.size(), b.size());
    ASSERT_EQ(a.size(), c.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].label, b[i].label);
        EXPECT_EQ(a[i].label, c[i].label);
        EXPECT_EQ(a[i].conflictMisses, b[i].conflictMisses);
        EXPECT_EQ(a[i].conflictMisses, c[i].conflictMisses);
        EXPECT_EQ(a[i].stats.misses(), c[i].stats.misses());
        EXPECT_EQ(a[i].way0OccupiedSets, c[i].way0OccupiedSets);
    }
}

TEST(IndexSearch, TopPickPredictionsMatchMeasuredProfiles)
{
    // Close the loop on the winner: for every power-of-two stride, the
    // occupancy a ConflictProfiler measures equals the conflict classes
    // the ConflictAnalyzer predicted for the top-ranked index.
    IndexSearch search(testConfig(2));
    const auto results = search.run(proxyTrace());
    const IndexCandidate *top = nullptr;
    for (const IndexCandidate &c : search.candidates()) {
        if (c.label == results[0].label)
            top = &c;
    }
    ASSERT_NE(top, nullptr);

    const SearchConfig config = testConfig(1);
    const auto fn = top->make();
    const ConflictAnalysis analysis = analyzeIndex(*fn, config.inputBits);
    ASSERT_TRUE(analysis.linear());

    for (unsigned k = 0; k + config.geometry.setBits() <= config.inputBits;
         k += 2) {
        StrideWorkloadConfig wc;
        wc.numElements = config.geometry.numSets();
        wc.elementBytes = config.geometry.blockBytes();
        wc.stride = std::uint64_t{1} << k;
        wc.sweeps = 2;
        wc.base = 1 << 20;
        const auto addrs = makeStrideAddressTrace(wc);

        ConflictProfiler profiled(
            std::make_unique<CacheTarget>(std::make_unique<SetAssocCache>(
                config.geometry, top->make())),
            config.geometry);
        profiled.attachIndex(top->make());
        profiled.accessBatch(addrs.data(), addrs.size(), false);
        profiled.finish();

        const ConflictProfile &profile = profiled.profile();
        for (unsigned w = 0; w < config.geometry.ways(); ++w) {
            EXPECT_EQ(profile.perWay[w].occupiedSets(),
                      analysis.ways[w].strides[k].distinctSets)
                << "way " << w << " k=" << k;
        }
    }
}

/**
 * Every row's way0OccupiedSets must equal the way-0 histogram of a
 * ConflictProfiler carrying that candidate's plan, driven by @p drive
 * over the same stream.
 */
void
expectOccupancyMatchesProfiler(
    const IndexSearch &search, const SearchConfig &config,
    const std::vector<SearchResult> &results,
    const std::function<void(SimTarget &)> &drive)
{
    ASSERT_EQ(results.size(), search.candidates().size());
    for (const IndexCandidate &candidate : search.candidates()) {
        const SearchResult *row = findLabel(results, candidate.label);
        ASSERT_NE(row, nullptr) << candidate.label;
        ProfilerOptions opt;
        opt.shadow = false;
        opt.pairs = false;
        ConflictProfiler profiled(
            std::make_unique<CacheTarget>(std::make_unique<SetAssocCache>(
                config.geometry, candidate.make())),
            config.geometry, opt);
        profiled.attachIndex(candidate.make());
        drive(profiled);
        profiled.finish();
        const std::uint64_t sets =
            profiled.profile().perWay[0].occupiedSets();
        EXPECT_GT(sets, 0u) << candidate.label;
        EXPECT_EQ(row->way0OccupiedSets, sets) << candidate.label;
    }
}

TEST(IndexSearch, Way0OccupancyMatchesProfilerOnAddressesAndTrace)
{
    std::vector<std::uint64_t> addrs;
    for (const TraceRecord &rec : *proxyTrace()) {
        if (isMemOp(rec.op))
            addrs.push_back(rec.addr);
    }
    const auto trace = proxyTrace();

    // 14 input bits keep the search's block keys in a bitmap, 32 in a
    // hash set; both must count exactly what the profiler counts.
    for (unsigned input_bits : {14u, 32u}) {
        SCOPED_TRACE(input_bits);
        SearchConfig config = testConfig(2);
        config.inputBits = input_bits;
        config.polyStarts = 4;
        config.randomSeeds = 2;
        const IndexSearch search(config);

        // Addresses: the proxy's memory addresses as a load-only stream.
        expectOccupancyMatchesProfiler(
            search, config, search.run(addrs), [&](SimTarget &target) {
                target.accessBatch(addrs.data(), addrs.size(), false);
            });

        // Trace: the proxy itself, loads and stores mixed.
        expectOccupancyMatchesProfiler(
            search, config, search.run(trace), [&](SimTarget &target) {
                target.replay(trace->data(), trace->size());
            });

        // A 4 KiB-stride sweep over 1 MiB: few enough blocks that
        // occupancy stays partial and turns on every input bit the
        // hashing candidates read.
        std::vector<std::uint64_t> strided;
        for (std::uint64_t i = 0; i < 256; ++i)
            strided.push_back((std::uint64_t{1} << 30) + i * 4096);
        expectOccupancyMatchesProfiler(
            search, config, search.run(strided), [&](SimTarget &target) {
                target.accessBatch(strided.data(), strided.size(), false);
            });
    }
}

TEST(IndexSearch, StreamedTraceFileMatchesLoadedRun)
{
    // The streamed entry point must be result-identical to the loaded
    // one (the engine-wide streamed == loaded convention).
    SearchConfig config = testConfig(2);
    config.polyStarts = 4;
    config.randomSeeds = 2;
    IndexSearch search(config);

    const std::string path =
        (std::filesystem::temp_directory_path()
         / ("cac_search_stream." + std::to_string(getpid()) + ".trc"))
            .string();
    writeTrace(*proxyTrace(), path);

    const auto loaded = search.run(proxyTrace());
    const auto streamed = search.runTraceFile(path);
    std::remove(path.c_str());

    ASSERT_EQ(loaded.size(), streamed.size());
    for (std::size_t i = 0; i < loaded.size(); ++i) {
        EXPECT_EQ(loaded[i].label, streamed[i].label);
        EXPECT_EQ(loaded[i].stats.misses(), streamed[i].stats.misses());
        EXPECT_EQ(loaded[i].conflictMisses, streamed[i].conflictMisses);
        EXPECT_EQ(loaded[i].way0OccupiedSets,
                  streamed[i].way0OccupiedSets);
    }
}

TEST(IndexSearch, CustomCandidatesJoinTheGrid)
{
    SearchConfig config = testConfig(1);
    config.polyStarts = 2;
    config.randomSeeds = 1;
    IndexSearch search(config);
    const std::size_t before = search.candidates().size();
    search.addCandidate({"custom-mod", "custom", [] {
                             return std::make_unique<ModuloIndex>(7, 2);
                         }});
    ASSERT_EQ(search.candidates().size(), before + 1);

    StrideWorkloadConfig wc;
    wc.stride = 128;
    const auto results = search.run(makeStrideAddressTrace(wc));
    EXPECT_EQ(results.size(), before + 1);
    const SearchResult *custom = findLabel(results, "custom-mod");
    const SearchResult *mod = findLabel(results, "mod");
    ASSERT_NE(custom, nullptr);
    ASSERT_NE(mod, nullptr);
    // Identical placement functions must earn identical measurements.
    EXPECT_EQ(custom->conflictMisses, mod->conflictMisses);
    EXPECT_EQ(custom->stats.misses(), mod->stats.misses());
}

TEST(IndexSearch, CsvHasHeaderAndOneRowPerCandidate)
{
    SearchConfig config = testConfig(2);
    config.polyStarts = 2;
    config.randomSeeds = 2;
    IndexSearch search(config);
    StrideWorkloadConfig wc;
    wc.stride = 64;
    const auto results = search.run(makeStrideAddressTrace(wc));
    const std::string csv = searchCsv(results);
    EXPECT_NE(csv.find("rank,candidate,kind"), std::string::npos);
    EXPECT_EQ(static_cast<std::size_t>(
                  std::count(csv.begin(), csv.end(), '\n')),
              results.size() + 1);
}

} // anonymous namespace
} // namespace cac
