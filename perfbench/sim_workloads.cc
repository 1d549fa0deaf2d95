/**
 * @file
 * The two simulation workloads, swim_compare and mix_attribution. Each
 * pass reproduces one cac_sim invocation on a single thread, with
 * caches that start empty as cac_sim's do. The untraced run times
 * passes for --seconds after one untimed warm pass; the traced run
 * drives the same cells by hand with a span around every layer call,
 * then runs the layer ladder.
 */

#include <cstdio>
#include <functional>
#include <mutex>

#include "analysis/conflict_profiler.hh"
#include "analysis/index_search.hh"
#include "core/registry.hh"
#include "core/sweep.hh"
#include "multicore/mc_target.hh"
#include "obs/metrics.hh"
#include "trace/io.hh"
#include "workloads.hh"
#include "workloads/spec_proxy.hh"

namespace perfbench
{

namespace
{

using namespace cac;

constexpr int kSetupReps = 5;
constexpr std::size_t kMinPasses = 3;
constexpr std::size_t kSwimInstructions = 300 * 1000;
/** Three of the paper's high-conflict programs plus gcc's irregular,
 *  low-locality walk; 25k-record quanta force context switches. */
constexpr const char *kMixPrograms = "swim+tomcatv+wave5+gcc";
constexpr const char *kMixShape = "q=25k,n=60k";

/** One pass's simulated outcome. */
struct PassResult
{
    std::string text;           ///< statsLine per cell (+ extras)
    std::uint64_t records = 0;  ///< records delivered, summed over cells
    std::uint64_t failures = 0; ///< failed cells and failed checks
    std::string why;            ///< first failure
    std::vector<std::pair<std::string, TargetStats>> cells;

    void fail(const std::string &what)
    {
        if (failures++ == 0)
            why = what;
    }
};

using PassFn = std::function<PassResult(SpanLog *)>;

void
absorbCells(PassResult &out, const std::vector<SweepCell> &cells,
            std::uint64_t records_per_cell)
{
    for (const SweepCell &cell : cells) {
        if (cell.failed)
            out.fail(cell.org + ": " + cell.error.message());
        out.text += statsLine(cell.org, cell.target);
        out.records += records_per_cell;
        out.cells.emplace_back(cell.org, cell.target);
    }
}

/**
 * Untraced: the warm pass, then passes for --seconds, reporting the
 * end-to-end metrics. Traced: baseline passes, one traced pass and its
 * self-time table. Either way every pass's digest must match the warm
 * pass's. Returns the warm pass.
 */
PassResult
measurePasses(const Options &options, Report &report, const PassFn &pass)
{
    PassResult warm = pass(nullptr);
    report.check(warm.failures == 0, "warm pass: " + warm.why);
    const std::uint64_t digest = fnv1a(warm.text);
    report.setDigest(digest);

    const auto timed = [&](SpanLog *log, double &wall, double &cpu) {
        const double cpu0 = processCpuSeconds();
        const auto start = Clock::now();
        PassResult r = pass(log);
        wall = secondsSince(start);
        cpu = processCpuSeconds() - cpu0;
        report.check(r.failures == 0 && fnv1a(r.text) == digest,
                     "pass digest differs from the warm pass"
                         + (r.why.empty() ? "" : ": " + r.why));
        return r;
    };

    // Passes alternate with the host reference kernel; each pass is
    // expressed in reference-host seconds (wall x nominal / reference,
    // the reference being the mean of the kernels just before and just
    // after it), which cancels the shared host's slow and fast spells.
    // Raw figures are printed beside them.
    std::vector<double> walls, rates, cpu_ns, refs;
    std::vector<double> norm_walls, norm_rates, norm_cpu_ns;
    std::vector<double> cpus, records;
    const auto begin = Clock::now();
    refs.push_back(referenceKernelSeconds());
    while (walls.size() < kMinPasses
           || (!options.trace && secondsSince(begin) < options.seconds)) {
        double wall = 0, cpu = 0;
        const PassResult r = timed(nullptr, wall, cpu);
        refs.push_back(referenceKernelSeconds());
        walls.push_back(wall);
        cpus.push_back(cpu);
        records.push_back(static_cast<double>(r.records));
    }
    for (std::size_t i = 0; i < walls.size(); ++i) {
        const double scale =
            2 * kReferenceNominalSeconds / (refs[i] + refs[i + 1]);
        rates.push_back(records[i] / walls[i] / 1e6);
        cpu_ns.push_back(cpus[i] * 1e9 / records[i]);
        norm_walls.push_back(walls[i] * scale);
        norm_rates.push_back(rates[i] / scale);
        norm_cpu_ns.push_back(cpu_ns[i] * scale);
    }
    std::printf("passes: %zu, records/pass: %llu, pass wall min/q1/"
                "median/q3/max %.3f/%.3f/%.3f/%.3f/%.3f s, reference "
                "kernel median %.2f ms\n",
                walls.size(), static_cast<unsigned long long>(warm.records),
                quantile(walls, 0), quantile(walls, 0.25), median(walls),
                quantile(walls, 0.75), quantile(walls, 1),
                1e3 * median(refs));

    if (!options.trace) {
        const std::size_t n = walls.size();
        report.metric("sim_maps", "M/s", median(norm_rates), n);
        report.metric("sim_cpu_ns", "ns", median(norm_cpu_ns), n);
        report.metric("op_p50_ms", "ms", 1e3 * median(norm_walls), n);
        report.metric("sim_maps_raw", "M/s", median(rates), n);
        report.metric("sim_cpu_ns_raw", "ns", median(cpu_ns), n);
        report.metric("op_p50_ms_raw", "ms", 1e3 * median(walls), n);
        report.metric("host.ref_ms", "ms", 1e3 * median(refs), n);
        // The serve::Server constructor switches the process-global
        // registry on; a simulation workload must never run with it.
        report.check(!obs::Registry::global().enabled(),
                     "metrics registry is on in a simulation workload");
        return warm;
    }

    SpanLog log;
    double wall = 0, cpu = 0;
    int root = -1;
    {
        SpanLog::Scope scope(&log, "pass");
        root = scope.index();
        timed(&log, wall, cpu);
    }
    log.printSelfTimes(root, "traced pass");
    const double base = median(walls);
    std::printf("  tracing overhead: %.3f ms traced vs %.3f ms untraced "
                "median (%+.2f%%, %zu spans)\n",
                1e3 * wall, 1e3 * base, 100.0 * (wall / base - 1.0),
                log.spans().size() - 1);
    return warm;
}

/** Registry target wrapped for the traced pass (span per replay). */
std::unique_ptr<SimTarget>
buildTraced(const std::string &label, const TargetSpec &spec,
            SpanLog *log)
{
    auto target = OrgRegistry::global().buildTarget(label, spec);
    if (!log)
        return target;
    const TargetKind kind = target->kind();
    return std::make_unique<SpanTarget>(std::move(target), log,
                                        replaySpanName(kind));
}

/**
 * cac_sim --scenario's table-mode target: the registry target inside a
 * ConflictProfiler against a fully-associative shadow (aggregate L1
 * capacity for mc: systems).
 */
std::unique_ptr<SimTarget>
buildProfiled(const std::string &label, const TargetSpec &spec,
              SpanLog *log, ConflictProfiler **profiler_out)
{
    auto inner = OrgRegistry::global().buildTarget(label, spec);
    CacheGeometry geometry = CacheGeometry::paperL1_8k();
    if (auto *mc = dynamic_cast<MultiCoreTarget *>(inner.get())) {
        geometry = CacheGeometry(spec.org.sizeBytes
                                     * mc->system().numCores(),
                                 spec.org.blockBytes, spec.org.ways);
    } else if (auto *cache = dynamic_cast<CacheTarget *>(inner.get())) {
        geometry = cache->model().geometry();
    }
    if (log) {
        const TargetKind kind = inner->kind();
        inner = std::make_unique<SpanTarget>(std::move(inner), log,
                                             replaySpanName(kind));
    }
    ProfilerOptions popts;
    popts.pairs = false;
    auto profiler =
        std::make_unique<ConflictProfiler>(std::move(inner), geometry,
                                           popts);
    if (profiler_out)
        *profiler_out = profiler.get();
    if (!log)
        return profiler;
    return std::make_unique<SpanTarget>(std::move(profiler), log,
                                        "analysis.profiler");
}

/**
 * Conflict misses must be max(0, misses - shadow misses). The cell's
 * line goes to @p lines, which follow the stats lines in the digest.
 */
void
checkConflicts(PassResult &out, std::string &lines,
               const std::string &label, const CacheStats &cell_l1,
               const ConflictProfile &profile)
{
    const std::uint64_t misses = cell_l1.misses();
    const std::uint64_t shadow = profile.shadow.misses();
    const std::uint64_t expect = misses > shadow ? misses - shadow : 0;
    if (!profile.hasShadow || profile.conflictMisses() != expect)
        out.fail(label + ": conflict misses "
                 + std::to_string(profile.conflictMisses())
                 + " != max(0, " + std::to_string(misses) + " - "
                 + std::to_string(shadow) + ")");
    lines += label + " conflict=" + std::to_string(expect) + "\n";
}

std::string
formatMix(std::uint64_t seed)
{
    return std::string("mix:") + kMixPrograms + "@" + kMixShape
           + ",seed=" + std::to_string(seed);
}

} // anonymous namespace

void
runSwimCompare(const Options &options, Report &report)
{
    const std::string path = options.workdir + "/swim.trc";
    auto trace = std::make_shared<Trace>();
    timedSetup(options, report, kSetupReps, [] {}, [&] {
        *trace = buildSpecProxy("swim", kSwimInstructions, options.seed);
        writeTrace(*trace, path);
    });
    std::printf("workload swim_compare: swim proxy, %zu records, "
                "CACTRC02 %s\n",
                trace->size(), path.c_str());

    const std::vector<std::string> labels = standardTargetLabels();
    const TargetSpec spec;
    // Simulation stays on one thread: no prefetch thread, whatever
    // hardware_concurrency() claims (the ladder times prefetch apart).
    TraceReaderOptions read;
    read.prefetch = Prefetch::Off;
    const PassFn streamed = [&](SpanLog *log) {
        PassResult out;
        if (!log) {
            // cac_sim --trace swim.trc --compare --stream --threads 1
            SweepRunner sweep(1);
            sweep.setTargetSpec(spec);
            sweep.setReadOptions(read);
            for (const std::string &label : labels)
                sweep.addTarget(label);
            sweep.addTraceFileWorkload(path, path);
            absorbCells(out, sweep.run(), trace->size());
            return out;
        }
        // The same cells by hand, so chunk reads get their own spans.
        for (const std::string &label : labels) {
            SpanLog::Scope cell(log, "core.cell");
            auto target = buildTraced(label, spec, log);
            TraceReader reader(path, read);
            while (true) {
                const std::vector<TraceRecord> *chunk = nullptr;
                {
                    SpanLog::Scope read(log, "trace.read");
                    chunk = &reader.next();
                }
                if (chunk->empty())
                    break;
                target->replay(chunk->data(), chunk->size());
            }
            if (!reader.ok())
                out.fail(label + ": " + reader.error());
            target->finish();
            out.text += statsLine(label, target->stats());
            out.records += trace->size();
        }
        return out;
    };
    const PassResult warm = measurePasses(options, report, streamed);

    // Streamed-verified replay must equal in-memory replay.
    {
        SweepRunner sweep(1);
        sweep.setTargetSpec(spec);
        for (const std::string &label : labels)
            sweep.addTarget(label);
        sweep.addTraceWorkload("swim", trace);
        PassResult in_memory;
        absorbCells(in_memory, sweep.run(), trace->size());
        report.check(in_memory.failures == 0
                         && in_memory.text == warm.text,
                     "in-memory replay differs from streamed replay");
    }
    // The paper's physics: skewed I-Poly removes swim's conflicts.
    double a2 = -1, hpsk = -1;
    for (const auto &[label, stats] : warm.cells) {
        if (label == "a2")
            a2 = stats.l1.loadMissRatio();
        if (label == "a2-Hp-Sk")
            hpsk = stats.l1.loadMissRatio();
    }
    std::printf("load miss ratio: a2 %.2f%%, a2-Hp-Sk %.2f%%\n",
                100 * a2, 100 * hpsk);
    report.check(a2 > 0 && hpsk >= 0 && hpsk < a2 / 3,
                 "a2-Hp-Sk load-miss ratio is not far below a2's");

    if (options.trace) {
        LadderInput input;
        input.trace = trace;
        input.tracePath = path;
        input.scenario = buildScenario(
            "mix:swim@n=" + std::to_string(trace->size())
            + ",seed=" + std::to_string(options.seed));
        input.serveMix = "mix:swim@n=20k,seed="
                         + std::to_string(options.seed);
        SpanLog log;
        runLadder(input, options, log, report);
    }
}

void
runMixAttribution(const Options &options, Report &report)
{
    const std::string label = formatMix(options.seed);
    std::shared_ptr<const Scenario> scenario;
    timedSetup(options, report, kSetupReps, [] {},
               [&] { scenario = buildScenario(label); });
    // Aliasing pointer: the search reads the composed trace in place.
    const std::shared_ptr<const Trace> composed(scenario,
                                                &scenario->composed());
    std::printf("workload mix_attribution: %s, %zu records, %llu "
                "switches\n",
                label.c_str(), composed->size(),
                static_cast<unsigned long long>(scenario->numSwitches()));

    std::vector<std::string> labels = scenarioComparisonLabels();
    for (const char *mc : {"mc:2xa2/a4", "mc:2xa2-Hp-Sk/a4", "mc:4xa2/a4",
                           "mc:4xa2-Hp-Sk/a4"})
        labels.push_back(mc);
    const TargetSpec spec;
    SearchConfig search_config;
    search_config.threads = 1;
    search_config.seed = options.seed;
    const IndexSearch search(search_config);

    const PassFn pass = [&](SpanLog *log) {
        PassResult out;
        std::string conflicts;
        if (!log) {
            // cac_sim --scenario MIX --compare --threads 1 (table mode)
            SweepRunner sweep(1);
            sweep.setTargetSpec(spec);
            for (const std::string &l : labels)
                sweep.addTarget(l, [l, &spec] {
                    return buildProfiled(l, spec, nullptr, nullptr);
                });
            sweep.addScenarioWorkload(scenario->name(), scenario);
            std::mutex mutex;
            std::vector<std::pair<SweepCell, ConflictProfile>> profiled;
            sweep.setCellObserver([&](const SweepCell &cell,
                                      SimTarget &target) {
                auto &profiler = dynamic_cast<ConflictProfiler &>(target);
                std::lock_guard<std::mutex> lock(mutex);
                profiled.emplace_back(cell, profiler.profile());
            });
            absorbCells(out, sweep.run(), composed->size());
            for (const auto &[cell, profile] : profiled)
                checkConflicts(out, conflicts, cell.org, cell.stats,
                               profile);
        } else {
            for (const std::string &l : labels) {
                SpanLog::Scope cell(log, "core.cell");
                ConflictProfiler *profiler = nullptr;
                auto target = buildProfiled(l, spec, log, &profiler);
                {
                    SpanLog::Scope replay(log, "scenario.replay");
                    scenario->replayInto(*target);
                }
                target->finish();
                out.text += statsLine(l, target->stats());
                out.records += composed->size();
                checkConflicts(out, conflicts, l, target->stats().l1,
                               profiler->profile());
            }
        }
        out.text += conflicts;
        std::vector<SearchResult> results;
        {
            SpanLog::Scope span(log, "analysis.search");
            results = search.run(composed);
        }
        for (const SearchResult &r : results) {
            if (r.failed)
                out.fail("search " + r.label + ": " + r.error.message());
        }
        out.text += searchCsv(results);
        // Every candidate cell plus the fully-associative reference.
        out.records += (results.size() + 1) * composed->size();
        return out;
    };
    const PassResult warm = measurePasses(options, report, pass);
    std::uint64_t stores = 0;
    for (const auto &cell : warm.cells)
        stores += cell.second.l1.stores;
    report.check(stores > 0 && scenario->numSwitches() > 0,
                 "mix has no stores or no context switches");

    if (options.trace) {
        LadderInput input;
        input.trace = composed;
        input.tracePath = options.workdir + "/mix.trc";
        writeTrace(*composed, input.tracePath);
        input.scenario = scenario;
        input.serveMix = std::string("mix:") + kMixPrograms
                         + "@q=5k,n=5k,seed="
                         + std::to_string(options.seed);
        SpanLog log;
        runLadder(input, options, log, report);
    }
}

} // namespace perfbench
