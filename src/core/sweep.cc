#include "core/sweep.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "common/logging.hh"
#include "common/parallel.hh"
#include "common/table.hh"
#include "core/experiment.hh"
#include "obs/obs.hh"

namespace cac
{

namespace
{

/**
 * Cooperative per-cell deadline: check() throws a Timeout CacError
 * once the wall-clock budget is spent. Callers invoke it between
 * chunks/batches, so a runaway cell is cancelled at the next chunk
 * boundary instead of hanging the sweep.
 */
class CellDeadline
{
  public:
    explicit CellDeadline(unsigned ms)
        : ms_(ms), start_(std::chrono::steady_clock::now())
    {}

    void
    check(const std::string &what) const
    {
        if (ms_ == 0)
            return;
        const auto elapsed =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                std::chrono::steady_clock::now() - start_)
                .count();
        if (elapsed > static_cast<long long>(ms_)) {
            throw CacError(Error::make(
                ErrorCode::Timeout,
                what + ": cell exceeded its " + std::to_string(ms_)
                    + " ms deadline"));
        }
    }

  private:
    unsigned ms_;
    std::chrono::steady_clock::time_point start_;
};

/** Batch size for deadline checks on in-memory workloads. */
constexpr std::size_t kDeadlineBatch = 65536;

} // anonymous namespace

SweepRunner::SweepRunner(unsigned threads)
{
    setThreads(threads);
}

void
SweepRunner::setThreads(unsigned threads)
{
    threads_ = threads > 0 ? threads : 1;
}

void
SweepRunner::addTarget(const std::string &label)
{
    if (!OrgRegistry::global().knownTarget(label))
        fatal("unknown simulation target '%s'", label.c_str());
    // Capture the spec by value: later setSpec() calls must not affect
    // targets already added.
    addTarget(label, [label, spec = spec_] {
        return OrgRegistry::global().buildTarget(label, spec);
    });
}

void
SweepRunner::addTarget(const std::string &label, TargetBuilder build)
{
    CAC_ASSERT(build != nullptr);
    targets_.push_back(Target{label, std::move(build)});
}

void
SweepRunner::addOrg(const std::string &label)
{
    addTarget(label);
}

void
SweepRunner::addOrgs(const std::vector<std::string> &labels)
{
    for (const auto &label : labels)
        addTarget(label);
}

void
SweepRunner::addOrg(const std::string &label, OrgBuilder build)
{
    CAC_ASSERT(build != nullptr);
    addTarget(label, [build = std::move(build)] {
        return std::make_unique<CacheTarget>(build());
    });
}

void
SweepRunner::addAddressWorkload(const std::string &name,
                                std::vector<std::uint64_t> addrs)
{
    Workload w;
    w.name = name;
    w.addrs = std::make_shared<const std::vector<std::uint64_t>>(
        std::move(addrs));
    workloads_.push_back(std::move(w));
}

void
SweepRunner::addAddressWorkload(
    const std::string &name,
    std::function<std::vector<std::uint64_t>()> generate)
{
    CAC_ASSERT(generate != nullptr);
    Workload w;
    w.name = name;
    w.generate = std::move(generate);
    workloads_.push_back(std::move(w));
}

void
SweepRunner::addTraceWorkload(const std::string &name, Trace trace)
{
    addTraceWorkload(name, std::make_shared<const Trace>(std::move(trace)));
}

void
SweepRunner::addTraceWorkload(const std::string &name,
                              std::shared_ptr<const Trace> trace)
{
    CAC_ASSERT(trace != nullptr);
    Workload w;
    w.name = name;
    w.trace = std::move(trace);
    workloads_.push_back(std::move(w));
}

void
SweepRunner::addTraceFileWorkload(const std::string &name,
                                  const std::string &path,
                                  std::size_t chunk_records)
{
    // Validate the header once, up front, so a bad path fails at add
    // time instead of inside a worker thread mid-run.
    TraceReader probe(path, chunk_records);
    if (!probe.ok())
        fatal("%s", probe.error().c_str());

    Workload w;
    w.name = name;
    w.tracePath = path;
    w.chunkRecords = chunk_records > 0 ? chunk_records : 1;
    workloads_.push_back(std::move(w));
}

void
SweepRunner::addTraceFileWorkload(const std::string &name,
                                  const std::string &path,
                                  const TraceReaderOptions &options)
{
    // Probe without the workload's injection/policy: add-time failures
    // are caller configuration errors, not simulated storage faults.
    TraceReader probe(path);
    if (!probe.ok())
        fatal("%s", probe.error().c_str());

    Workload w;
    w.name = name;
    w.tracePath = path;
    w.chunkRecords =
        options.chunkRecords > 0 ? options.chunkRecords : 1;
    w.read = options;
    workloads_.push_back(std::move(w));
}

void
SweepRunner::addScenarioWorkload(const std::string &name,
                                 std::shared_ptr<const Scenario> scenario,
                                 std::size_t chunk_records)
{
    CAC_ASSERT(scenario != nullptr);
    Workload w;
    w.name = name;
    w.scenario = std::move(scenario);
    w.scenarioChunkRecords = chunk_records;
    workloads_.push_back(std::move(w));
}

void
SweepRunner::addScenarioWorkload(const std::string &label)
{
    addScenarioWorkload(label, buildScenario(label));
}

std::vector<SweepRunner::SharedAddrs>
SweepRunner::materializeWorkloads() const
{
    std::vector<SharedAddrs> materialized(workloads_.size());
    for (std::size_t i = 0; i < workloads_.size(); ++i) {
        const Workload &w = workloads_[i];
        if (w.generate && !w.addrs && !w.trace) {
            materialized[i] =
                std::make_shared<const std::vector<std::uint64_t>>(
                    w.generate());
        }
    }
    return materialized;
}

void
SweepRunner::runCellBody(SweepCell &cell, const Workload &workload,
                         SimTarget &target,
                         const std::vector<SharedAddrs> &materialized,
                         std::size_t wi) const
{
    const CellDeadline deadline(cell_deadline_ms_);
    const std::string where = workload.name + " x " + cell.org;
    CAC_OBS_SPAN_D("sweep", "sweep.cell", where);

    // Windowed telemetry: poked at chunk boundaries only, so
    // in-memory workloads switch to bounded slices while it is live
    // (same shape the deadline check already uses).
    std::optional<obs::WindowSampler> sampler;
    if (obs_window_ > 0)
        sampler.emplace(target, obs_window_);
    const bool sliced = cell_deadline_ms_ > 0 || sampler.has_value();

    if (workload.scenario) {
        // Multiprogrammed replay: segments + switch policy, with the
        // per-program attribution landing in the cell.
        ScenarioResult scenario_result = workload.scenario->replayInto(
            target, workload.scenarioChunkRecords,
            sampler ? &*sampler : nullptr);
        cell.programs = std::move(scenario_result.programs);
        deadline.check(where);
    } else if (!workload.tracePath.empty()) {
        // Streamed replay: this cell's private reader, chunk by chunk,
        // under the workload's (or the runner's) read options.
        TraceReaderOptions options =
            workload.read ? *workload.read : read_options_;
        options.chunkRecords = workload.chunkRecords;
        TraceReader reader(workload.tracePath, options);
        if (!reader.ok())
            throw CacError(reader.errorInfo());
        while (true) {
            const std::vector<TraceRecord> &chunk = reader.next();
            if (chunk.empty())
                break;
            target.replay(chunk.data(), chunk.size());
            deadline.check(where);
            if (sampler)
                sampler->sample();
        }
        cell.read = reader.readStats();
        if (!reader.ok())
            throw CacError(reader.errorInfo());
    } else if (workload.trace) {
        // Feed in slices only when a deadline or sampler wants
        // mid-stream checks; the single-call fast path stays the
        // default.
        const Trace &trace = *workload.trace;
        const std::size_t batch = sliced ? kDeadlineBatch : trace.size();
        for (std::size_t at = 0; at < trace.size(); at += batch) {
            const std::size_t run =
                std::min(batch, trace.size() - at);
            target.replay(trace.data() + at, run);
            deadline.check(where);
            if (sampler)
                sampler->sample();
        }
    } else {
        const std::vector<std::uint64_t> &addrs =
            workload.addrs ? *workload.addrs : *materialized[wi];
        const std::size_t batch = sliced ? kDeadlineBatch : addrs.size();
        for (std::size_t at = 0; at < addrs.size(); at += batch) {
            const std::size_t run =
                std::min(batch, addrs.size() - at);
            target.accessBatch(addrs.data() + at, run, false);
            deadline.check(where);
            if (sampler)
                sampler->sample();
        }
    }
    target.finish();

    cell.target = target.stats();
    cell.stats = cell.target.l1;
    if (cell.target.hasMultiCore)
        cell.cores = cell.target.mc.cores;
    if (sampler) {
        sampler->finish();
        cell.windows = sampler->windows();
    }
    if (observer_)
        observer_(cell, target);
}

SweepCell
SweepRunner::runCell(std::size_t index,
                     const std::vector<SharedAddrs> &materialized) const
{
    const std::size_t wi = index / targets_.size();
    const Workload &workload = workloads_[wi];
    const Target &target_entry = targets_[index % targets_.size()];

    SweepCell cell;
    cell.workload = workload.name;
    cell.org = target_entry.label;

    // Quarantine: whatever goes wrong in this cell — strict-policy
    // damage, a blown deadline, a worker exception — lands in the
    // cell's failed/error fields and the rest of the grid still runs.
    try {
        std::unique_ptr<SimTarget> target = target_entry.build();
        CAC_ASSERT(target != nullptr);
        cell.cacheName = target->name();
        runCellBody(cell, workload, *target, materialized, wi);
    } catch (const CacError &e) {
        cell.failed = true;
        cell.error = e.err();
    } catch (const std::exception &e) {
        cell.failed = true;
        cell.error = Error::make(ErrorCode::WorkerFailed,
                                 cell.workload + " x " + cell.org
                                     + ": " + e.what());
    } catch (...) {
        cell.failed = true;
        cell.error = Error::make(ErrorCode::WorkerFailed,
                                 cell.workload + " x " + cell.org
                                     + ": unknown exception");
    }
    if (cell.failed) {
        cell.stats = CacheStats{};
        cell.target = TargetStats{};
        cell.programs.clear();
        cell.cores.clear();
    }
    return cell;
}

std::vector<SweepCell>
SweepRunner::run() const
{
    const std::size_t cells = numCells();
    std::vector<SweepCell> results(cells);
    if (cells == 0)
        return results;

    // Generator workloads are materialized exactly once, here, before
    // the fan-out: every target cell then reads the same shared
    // immutable stream instead of regenerating it per cell.
    const std::vector<SharedAddrs> materialized = materializeWorkloads();

    // Dynamic work sharing: threads pull the next unclaimed cell and
    // write into its slot, so the output order is the grid order no
    // matter how cells are interleaved in time.
#if CAC_OBS
    // Queue wait per cell: fan-out start to the moment a worker picks
    // the cell up. Recorded as its own span so a trace shows which
    // cells sat behind long-running ones.
    obs::Tracer &tracer = obs::Tracer::global();
    const bool tracing = tracer.enabled();
    const std::uint64_t fanout_us = tracing ? tracer.nowUs() : 0;
    parallelFor(threads_, cells, [&](std::size_t i) {
        if (tracing) {
            tracer.record("sweep", "sweep.queue_wait", fanout_us,
                          tracer.nowUs(),
                          workloads_[i / targets_.size()].name + " x "
                              + targets_[i % targets_.size()].label);
        }
        results[i] = runCell(i, materialized);
    });
#else
    parallelFor(threads_, cells, [&](std::size_t i) {
        results[i] = runCell(i, materialized);
    });
#endif
    return results;
}

std::string
sweepCsv(const std::vector<SweepCell> &cells)
{
    // The historical column set stays byte-identical for healthy
    // sweeps (CI diffs golden CSVs against it); the resilience columns
    // appear exactly when they carry information.
    bool extended = false;
    bool multicore = false;
    for (const SweepCell &cell : cells) {
        if (cell.failed || cell.read.degraded())
            extended = true;
        if (cell.target.hasMultiCore)
            multicore = true;
    }

    std::string out =
        "workload,organization,cache,loads,stores,load_misses,"
        "store_misses,load_miss_pct,miss_pct,l2_miss_pct,holes,"
        "inclusion_invalidates,ipc,cycles";
    if (multicore) {
        out += ",cores,intercore_evictions,intercore_conflict_misses";
    }
    if (extended)
        out += ",dropped_records,status";
    out += '\n';
    char numbers[224];
    for (const SweepCell &cell : cells) {
        std::snprintf(numbers, sizeof(numbers),
                      ",%llu,%llu,%llu,%llu,%.4f,%.4f",
                      static_cast<unsigned long long>(cell.stats.loads),
                      static_cast<unsigned long long>(cell.stats.stores),
                      static_cast<unsigned long long>(
                          cell.stats.loadMisses),
                      static_cast<unsigned long long>(
                          cell.stats.storeMisses),
                      100.0 * cell.stats.loadMissRatio(),
                      100.0 * cell.stats.missRatio());
        out += csvField(cell.workload);
        out += ',';
        out += csvField(cell.org);
        out += ',';
        out += csvField(cell.cacheName);
        out += numbers;

        // Hierarchy columns (empty when not applicable).
        if (cell.target.hasHierarchy) {
            std::snprintf(numbers, sizeof(numbers), ",%.4f,%llu,%llu",
                          100.0 * cell.target.l2.missRatio(),
                          static_cast<unsigned long long>(
                              cell.target.holes.holesCreated),
                          static_cast<unsigned long long>(
                              cell.target.holes.inclusionInvalidates));
            out += numbers;
        } else {
            out += ",,,";
        }

        // CPU columns (empty when not applicable).
        if (cell.target.hasCpu) {
            std::snprintf(numbers, sizeof(numbers), ",%.4f,%llu",
                          cell.target.cpu.ipc(),
                          static_cast<unsigned long long>(
                              cell.target.cpu.cycles));
            out += numbers;
        } else {
            out += ",,";
        }

        // Multicore columns (present only when the sweep has mc cells,
        // empty on non-mc rows).
        if (multicore) {
            if (cell.target.hasMultiCore) {
                const MultiCoreStats &mc = cell.target.mc;
                std::snprintf(
                    numbers, sizeof(numbers), ",%llu,%llu,%llu",
                    static_cast<unsigned long long>(mc.cores.size()),
                    static_cast<unsigned long long>(
                        mc.totalL2EvictionsByOthers()),
                    static_cast<unsigned long long>(
                        mc.totalInterCoreConflictMisses()));
                out += numbers;
            } else {
                out += ",,,";
            }
        }
        if (extended) {
            std::snprintf(numbers, sizeof(numbers), ",%llu,%s",
                          static_cast<unsigned long long>(
                              cell.read.droppedRecords),
                          cell.failed ? "failed"
                          : cell.read.degraded() ? "degraded"
                                                 : "ok");
            out += numbers;
        }
        out += '\n';
    }
    return out;
}

std::string
scenarioCsv(const std::vector<SweepCell> &cells)
{
    // Like sweepCsv, the historical column set is byte-stable: the
    // multicore columns (and the per-core rows) appear exactly when
    // the sweep contains MultiCore cells.
    bool multicore = false;
    for (const SweepCell &cell : cells) {
        if (cell.target.hasMultiCore)
            multicore = true;
    }

    std::string out =
        "workload,organization,cache,program,asid,records,loads,stores,"
        "load_misses,store_misses,load_miss_pct,miss_pct";
    if (multicore) {
        out += ",intercore_evictions,intercore_conflict_misses";
    }
    out += '\n';
    char numbers[224];
    const auto emit = [&](const SweepCell &cell,
                          const std::string &program,
                          const std::string &asid,
                          std::uint64_t records, const CacheStats &s,
                          const std::string &mc_columns) {
        out += csvField(cell.workload);
        out += ',';
        out += csvField(cell.org);
        out += ',';
        out += csvField(cell.cacheName);
        out += ',';
        out += csvField(program);
        out += ',';
        out += asid;
        std::snprintf(numbers, sizeof(numbers),
                      ",%llu,%llu,%llu,%llu,%llu,%.4f,%.4f",
                      static_cast<unsigned long long>(records),
                      static_cast<unsigned long long>(s.loads),
                      static_cast<unsigned long long>(s.stores),
                      static_cast<unsigned long long>(s.loadMisses),
                      static_cast<unsigned long long>(s.storeMisses),
                      100.0 * s.loadMissRatio(), 100.0 * s.missRatio());
        out += numbers;
        out += mc_columns;
        out += '\n';
    };
    const std::string no_mc = multicore ? ",," : "";
    for (const SweepCell &cell : cells) {
        std::uint64_t records = 0;
        for (const ScenarioProgramStats &p : cell.programs) {
            emit(cell, p.name, std::to_string(p.asid), p.records, p.l1,
                 no_mc);
            records += p.records;
        }
        // Per-core rows: each core's private-L1 stats plus the
        // inter-core conflict attribution it received.
        for (std::size_t c = 0; c < cell.cores.size(); ++c) {
            const McCoreStats &core = cell.cores[c];
            std::snprintf(
                numbers, sizeof(numbers), ",%llu,%llu",
                static_cast<unsigned long long>(core.l2EvictionsByOthers),
                static_cast<unsigned long long>(
                    core.interCoreConflictMisses));
            emit(cell, "core" + std::to_string(c), "", core.l1.accesses(),
                 core.l1, numbers);
        }
        if (cell.target.hasMultiCore) {
            const MultiCoreStats &mc = cell.target.mc;
            std::snprintf(
                numbers, sizeof(numbers), ",%llu,%llu",
                static_cast<unsigned long long>(
                    mc.totalL2EvictionsByOthers()),
                static_cast<unsigned long long>(
                    mc.totalInterCoreConflictMisses()));
            emit(cell, "<all>", "", records, cell.stats, numbers);
        } else {
            emit(cell, "<all>", "", records, cell.stats, no_mc);
        }
    }
    return out;
}

} // namespace cac
