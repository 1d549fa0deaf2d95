/**
 * @file
 * Shared experiment drivers used by benches, examples and tests:
 * feeding address streams and instruction traces through cache models
 * and the CPU model, and aggregating per-benchmark results the way the
 * paper's tables do (arithmetic-mean miss ratios, geometric-mean IPC).
 */

#ifndef CAC_CORE_EXPERIMENT_HH
#define CAC_CORE_EXPERIMENT_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "cache/cache_model.hh"
#include "cpu/config.hh"
#include "cpu/ooo_core.hh"
#include "trace/record.hh"

namespace cac
{

/** Run a pure load-address stream through a cache model. */
CacheStats runAddressStream(CacheModel &cache,
                            const std::vector<std::uint64_t> &addrs);

/**
 * Gathers the memory operations of an instruction stream into runs of
 * up to kMaxRun (cache_model.hh) accesses, loads and stores mixed in
 * stream order with one write flag each, so a sink sees one
 * accessRun() per run instead of one virtual access() per record. Restartable: replay() may be
 * called with consecutive stream chunks (the partially-gathered run
 * carries over), so the single batching rule serves both whole-trace
 * replay (runTraceMemory) and chunked streaming (CacheTarget). The
 * sink is anything with an accessRun(addrs, writes, n) member — a
 * CacheModel or the two-level system (CoherentSystem). Whoever
 * owns a gatherer flushes it before anything else touches the sink
 * (a direct batch, a checkpoint, a cold flush, the end of the stream).
 */
class MemRunGatherer
{
  public:
    MemRunGatherer() : addrs_(kMaxRun), writes_(kMaxRun) {}

    /** Feed the memory operations of @p recs[0..n) into @p sink. */
    template <typename Sink>
    void
    replay(Sink &sink, const TraceRecord *recs, std::size_t n)
    {
        // Access order is preserved exactly, so stats match a scalar
        // loop.
        for (std::size_t i = 0; i < n; ++i) {
            const TraceRecord &rec = recs[i];
            if (!isMemOp(rec.op))
                continue;
            if (size_ == kMaxRun)
                flush(sink);
            addrs_[size_] = rec.addr;
            writes_[size_] = rec.op == OpClass::Store;
            ++size_;
        }
    }

    /** Issue the partially-gathered run, preserving access order. */
    template <typename Sink>
    void
    flush(Sink &sink)
    {
        if (size_ != 0) {
            sink.accessRun(addrs_.data(), writes_.data(), size_);
            size_ = 0;
        }
    }

  private:
    std::vector<std::uint64_t> addrs_;
    std::vector<std::uint8_t> writes_;
    std::size_t size_ = 0; ///< accesses gathered, pending a flush
};

/** Outcome of one measureThroughput() run. */
struct ThroughputResult
{
    double unitsPerSec = 0.0; ///< units (accesses) per wall-clock second
    std::size_t reps = 0;     ///< timed repetitions of the body
    double seconds = 0.0;     ///< timed wall-clock window
};

/**
 * The timing methodology of `cac_sim --bench`: run @p body once
 * untimed as warm-up, then repeat it until @p min_seconds of
 * wall-clock time elapse. @p body returns the number of units
 * (accesses) it performed that repetition.
 */
ThroughputResult
measureThroughput(double min_seconds,
                  const std::function<std::uint64_t()> &body);

/** Run only the memory operations of @p trace through a cache model. */
CacheStats runTraceMemory(CacheModel &cache, const Trace &trace);

/** One benchmark row of a Table-2-style run. */
struct BenchmarkResult
{
    std::string name;
    double ipc = 0.0;
    double loadMissPct = 0.0;
};

/** Simulate @p trace on configuration @p cfg. */
BenchmarkResult runCpu(const std::string &name, const CpuConfig &cfg,
                       const Trace &trace);

/** Aggregates for a set of rows (paper's averaging conventions). */
struct TableAverages
{
    double ipcGeoMean = 0.0;       ///< IPC averaged geometrically
    double missArithMean = 0.0;    ///< miss ratios averaged arithmetically
};

TableAverages averageResults(const std::vector<BenchmarkResult> &rows);

} // namespace cac

#endif // CAC_CORE_EXPERIMENT_HH
