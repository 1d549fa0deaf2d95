/**
 * @file
 * The traced run's layer ladder: each layer's public call timed on the
 * workload's own stream, one span per repetition, so the self-time
 * table and the per-layer metrics come from the same spans. Rates are
 * ns per record (trace, core, hierarchy, cpu, multicore, scenario,
 * obs, profiler) or per memory address (index, cache, shadow) of the
 * stream; a metric's sample count is its number of repetitions.
 */

#include <algorithm>
#include <cstdio>
#include <optional>

#include "analysis/conflict_analyzer.hh"
#include "analysis/conflict_profiler.hh"
#include "analysis/index_search.hh"
#include "cache/fully_assoc.hh"
#include "core/registry.hh"
#include "core/sweep.hh"
#include "index/index_plan.hh"
#include "index/ipoly.hh"
#include "obs/window.hh"
#include "trace/io.hh"
#include "workloads.hh"

namespace perfbench
{

namespace
{

using namespace cac;

constexpr double kMinSeconds = 0.2; ///< per ladder rung
constexpr int kMinReps = 3;
/** The CPU model is an order of magnitude slower; feed it a prefix. */
constexpr std::size_t kCpuRecords = 100 * 1000;
constexpr std::size_t kSearchAddrs = 100 * 1000;
/** analyzeIndex calls per repetition, keeping span cost out. */
constexpr int kAnalyzeBatch = 64;
constexpr const char *kHeadline = "a2-Hp-Sk";

/** Median seconds of one repetition, and how many ran. */
struct Timing
{
    double seconds = 0;
    std::size_t reps = 0;
};

/**
 * Repeat @p body until at least @p min_seconds have elapsed and at
 * least @p min_reps ran, each repetition one span named @p span in
 * @p log, with @p prepare run untimed before each.
 */
template <typename Prepare, typename Body>
Timing
timeReps(SpanLog &log, const std::string &span, double min_seconds,
         int min_reps, Prepare prepare, Body body)
{
    std::vector<double> reps;
    const auto begin = Clock::now();
    while (static_cast<int>(reps.size()) < min_reps
           || secondsSince(begin) < min_seconds) {
        prepare();
        const auto start = Clock::now();
        {
            SpanLog::Scope scope(&log, span);
            body();
        }
        reps.push_back(secondsSince(start));
    }
    return {median(reps), reps.size()};
}

/** Memory addresses (loads and stores) of a trace, in order. */
std::vector<std::uint64_t>
memoryAddresses(const cac::Trace &trace)
{
    std::vector<std::uint64_t> out;
    for (const cac::TraceRecord &rec : trace) {
        if (rec.op == cac::OpClass::Load || rec.op == cac::OpClass::Store)
            out.push_back(rec.addr);
    }
    return out;
}

double
nsPer(double seconds, std::size_t units)
{
    return units ? seconds * 1e9 / static_cast<double>(units) : 0.0;
}

} // anonymous namespace

void
runLadder(const LadderInput &input, const Options &options, SpanLog &log,
          Report &report)
{
    const Trace &trace = *input.trace;
    const std::vector<std::uint64_t> addrs = memoryAddresses(trace);
    const OrgSpec spec;
    const TargetSpec tspec;
    const auto nothing = [] {};
    // Report one rung: ns per unit of the median repetition.
    const auto rung = [&](const std::string &name, const Timing &t,
                          std::size_t units) {
        report.metric(name, "ns", nsPer(t.seconds, units), t.reps);
    };
    std::printf("\nlayer ladder: %zu records, %zu memory addresses\n",
                trace.size(), addrs.size());

    int root = -1;
    {
        SpanLog::Scope ladder(&log, "ladder");
        root = ladder.index();

        // trace: chunk reads of the workload's CACTRC02 file.
        const auto readAll = [&](bool verify, Prefetch prefetch) {
            TraceReaderOptions ropts;
            ropts.verifyChecksums = verify;
            ropts.prefetch = prefetch;
            return timeReps(log, "trace.read", kMinSeconds, kMinReps,
                            nothing, [&] {
                TraceReader reader(input.tracePath, ropts);
                while (!reader.next().empty()) {
                }
                report.check(reader.ok()
                                 && reader.recordsRead() == trace.size(),
                             "ladder trace read: " + reader.error());
            });
        };
        rung("trace.read_ns", readAll(true, Prefetch::Off), trace.size());
        rung("trace.read_noverify_ns", readAll(false, Prefetch::Off),
             trace.size());
        rung("trace.read_prefetch_ns", readAll(true, Prefetch::On),
             trace.size());

        // index: the headline skewed I-Poly plan over block addresses.
        {
            const IPolyIndex fn(7, 2, 14, /*skewed=*/true);
            const IndexPlan plan = compilePlan(fn);
            std::vector<std::uint64_t> blocks(addrs.size());
            std::vector<std::uint64_t> packed(addrs.size());
            std::transform(addrs.begin(), addrs.end(), blocks.begin(),
                           [](std::uint64_t a) { return a >> 5; });
            rung("index.plan_ns",
                 timeReps(log, "index.plan", kMinSeconds, kMinReps, nothing,
                          [&] {
                              plan.indexPackedBatch(blocks.data(),
                                                    blocks.size(),
                                                    packed.data());
                          }),
                 addrs.size());
        }

        // cache: batch hot path per organization family, cold caches.
        std::unique_ptr<CacheModel> cache;
        for (const char *org : {"a2", kHeadline, "victim", "full"}) {
            rung(std::string("cache.batch_ns.") + org,
                 timeReps(log, "cache.batch", kMinSeconds, kMinReps,
                          [&] { cache = makeOrganization(org, spec); },
                          [&] {
                              cache->accessBatch(addrs.data(), addrs.size(),
                                                 false);
                          }),
                 addrs.size());
        }
        rung(std::string("cache.scalar_ns.") + kHeadline,
             timeReps(log, "cache.scalar", kMinSeconds, kMinReps,
                      [&] { cache = makeOrganization(kHeadline, spec); },
                      [&] {
                          for (std::uint64_t a : addrs)
                              cache->access(a, false);
                      }),
             addrs.size());

        // core / hierarchy / cpu / multicore: target replay of records.
        std::unique_ptr<SimTarget> target;
        const auto replay = [&](const std::string &label,
                                const std::string &span,
                                std::size_t records) {
            return timeReps(
                log, span, kMinSeconds, kMinReps,
                [&] {
                    target = OrgRegistry::global().buildTarget(label, tspec);
                },
                [&] {
                    target->replay(trace.data(), records);
                    target->finish();
                });
        };
        rung("core.replay_ns", replay(kHeadline, "core.replay", trace.size()),
             trace.size());
        rung("core.cell_ns",
             timeReps(log, "core.cell", kMinSeconds, kMinReps, nothing,
                      [&] {
                          SweepRunner sweep(1);
                          sweep.addTarget(kHeadline);
                          sweep.addTraceWorkload("ladder", input.trace);
                          report.check(!sweep.run().at(0).failed,
                                       "ladder cell");
                      }),
             trace.size());
        rung("hierarchy.replay_ns",
             replay("2lvl:a2-Hp-Sk/a4", "hierarchy.replay", trace.size()),
             trace.size());
        const std::size_t cpu_records = std::min(kCpuRecords, trace.size());
        rung("cpu.replay_ns",
             replay("cpu:8k-ipoly-cp-pred", "cpu.replay", cpu_records),
             cpu_records);
        rung("multicore.replay_ns.c2",
             replay("mc:2xa2-Hp-Sk/a4", "multicore.replay", trace.size()),
             trace.size());
        rung("multicore.replay_ns.c4",
             replay("mc:4xa2-Hp-Sk/a4", "multicore.replay", trace.size()),
             trace.size());
        {
            const TargetStats t = target->stats(); // the last c4 rep
            const std::uint64_t messages =
                t.mc.interventions + t.mc.invalidationMessages;
            report.metric("multicore.coherence_per_kacc", "count",
                          t.l1.accesses() ? 1e3 * messages
                                                / t.l1.accesses()
                                          : 0.0,
                          1);
        }

        // scenario and obs: the workload's mix replayed into a plain
        // target, then again under a WindowSampler (same chunking).
        const Scenario &scenario = *input.scenario;
        const std::size_t mix_records = scenario.composed().size();
        const auto replayMix = [&](std::size_t chunk, bool windows) {
            return timeReps(
                log, windows ? "obs.window" : "scenario.replay",
                kMinSeconds, kMinReps,
                [&] {
                    target = OrgRegistry::global().buildTarget(kHeadline,
                                                               tspec);
                },
                [&] {
                    std::optional<obs::WindowSampler> sampler;
                    if (windows)
                        sampler.emplace(*target, 4096);
                    scenario.replayInto(*target, chunk,
                                        sampler ? &*sampler : nullptr);
                    target->finish();
                    if (sampler)
                        sampler->finish();
                });
        };
        rung("scenario.replay_ns", replayMix(0, false), mix_records);
        const Timing chunked = replayMix(8192, false);
        const Timing windowed = replayMix(8192, true);
        report.metric("obs.window_ns", "ns",
                      nsPer(windowed.seconds - chunked.seconds,
                            mix_records),
                      std::min(chunked.reps, windowed.reps));

        // analysis: shadow, profiler, search, analyzer.
        std::unique_ptr<FullyAssocCache> shadow;
        rung("analysis.shadow_ns",
             timeReps(log, "analysis.shadow", kMinSeconds, kMinReps,
                      [&] {
                          shadow = std::make_unique<FullyAssocCache>(8192, 32);
                      },
                      [&] {
                          shadow->accessBatch(addrs.data(), addrs.size(),
                                              false);
                      }),
             addrs.size());

        std::unique_ptr<ConflictProfiler> profiler;
        ProfilerOptions popts;
        popts.pairs = false;
        rung("analysis.profiler_ns",
             timeReps(log, "analysis.profiler", kMinSeconds, kMinReps,
                      [&] {
                          // The inner replay is a child span, so the
                          // profiler's self time is shadow + histograms.
                          auto inner = std::make_unique<SpanTarget>(
                              OrgRegistry::global().buildTarget(kHeadline,
                                                                tspec),
                              &log, "core.replay");
                          profiler = std::make_unique<ConflictProfiler>(
                              std::move(inner), CacheGeometry::paperL1_8k(),
                              popts);
                      },
                      [&] {
                          profiler->replay(trace.data(), trace.size());
                          profiler->finish();
                      }),
             trace.size());
        const ConflictProfile &p = profiler->profile();
        report.metric("analysis.conflict_share", "ratio",
                      p.target.misses()
                          ? static_cast<double>(p.conflictMisses())
                                / static_cast<double>(p.target.misses())
                          : 0.0,
                      1);

        SearchConfig config;
        config.threads = 1;
        config.seed = options.seed;
        const IndexSearch search(config);
        const std::vector<std::uint64_t> prefix(
            addrs.begin(),
            addrs.begin()
                + static_cast<std::ptrdiff_t>(
                    std::min(kSearchAddrs, addrs.size())));
        const Timing searched =
            timeReps(log, "analysis.search", 0.0, 1, nothing, [&] {
                for (const SearchResult &r : search.run(prefix))
                    report.check(!r.failed, "ladder search " + r.label);
            });
        report.metric("analysis.search_candidate_ms", "ms",
                      1e3 * searched.seconds
                          / static_cast<double>(search.candidates().size()),
                      searched.reps);

        const IPolyIndex fn(7, 2, 14, /*skewed=*/true);
        std::size_t empty = 0;
        const Timing analyzed =
            timeReps(log, "analysis.analyze", kMinSeconds, kMinReps,
                     nothing, [&] {
                         for (int i = 0; i < kAnalyzeBatch; ++i)
                             empty += analyzeIndex(fn, 14).ways.empty();
                     });
        report.check(empty == 0, "analyzeIndex found no ways");
        report.metric("analysis.analyze_us", "us",
                      1e6 * analyzed.seconds / kAnalyzeBatch, analyzed.reps);

        runServeProbe(input.serveMix, log, report);
    }
    log.printSelfTimes(root, "layer ladder");
}

} // namespace perfbench
