/**
 * @file
 * Shared plumbing of the benchmark program: clocks, order statistics,
 * the report every workload fills (metrics with unit and sample count,
 * attempted/failed operations, the output digest), the in-memory span
 * recorder of the traced run, and the SimTarget decorator that puts a
 * span around every call into a wrapped target.
 *
 * Nothing here is instrumentation inside the engine: spans are taken
 * in the benchmark's own code, around calls into the engine's public
 * API.
 */

#ifndef CAC_PERFBENCH_SUPPORT_HH
#define CAC_PERFBENCH_SUPPORT_HH

#include <chrono>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sim_target.hh"

namespace perfbench
{

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point start);

/** CPU seconds (user + sys) of the whole process / calling thread. */
double processCpuSeconds();
double threadCpuSeconds();

/** Peak resident set of the process so far, in MiB. */
double peakRssMb();

/** Nearest-rank quantile, q in [0, 1]; 0 for an empty sample. */
double quantile(std::vector<double> values, double q);
inline double median(const std::vector<double> &values)
{
    return quantile(values, 0.5);
}

/** FNV-1a 64, chainable through @p h. */
std::uint64_t fnv1a(const std::string &bytes,
                    std::uint64_t h = 0xcbf29ce484222325ull);

/**
 * Canonical one-line rendering of a target's simulated statistics:
 * what the output digest hashes, so two passes (or two commits)
 * compare exactly whatever path produced the stats.
 */
std::string statsLine(const std::string &label,
                      const cac::TargetStats &stats);

/**
 * Inputs come from --seed reduced modulo this, so that every value the
 * workloads derive from it for a mix label's seed= (at most
 * seed * 100000 plus a request index) stays under the scenario
 * grammar's 2^40 cap.
 */
constexpr std::uint64_t kSeedRange = 1000000;

/** Command-line options of one benchmark process. */
struct Options
{
    std::string workload;
    /** Input seed: --seed modulo kSeedRange. */
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".";
    /** Expected digest (hex); a mismatch is one failed operation. */
    std::string expectDigest;
};

/**
 * What one workload reports. Every metric carries its unit and the
 * number of samples behind it; every checked operation counts toward
 * attempted, and a failed check toward failed (fail_frac).
 */
class Report
{
  public:
    void metric(const std::string &name, const std::string &unit,
                double value, std::size_t samples);

    /** One operation: counts as failed unless @p ok. */
    void check(bool ok, const std::string &what);

    /** @p n operations, @p failed of which failed. */
    void operations(std::uint64_t n, std::uint64_t failed,
                    const std::string &what);

    void setDigest(std::uint64_t digest) { digest_ = digest; }

    /**
     * Print the metric table, fail_frac, the digest (checked against
     * --expect-digest) and the machine-readable result line.
     */
    void print(const Options &options);

  private:
    struct Metric
    {
        std::string name, unit;
        double value;
        std::size_t samples;
    };
    std::vector<Metric> metrics_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::uint64_t digest_ = 0;
};

/**
 * In-memory span recorder for the traced run: name, start, end and
 * parent of every span, kept until the end and then folded into a
 * per-layer self-time table. Single-threaded by design — simulation
 * runs on one thread, and spans are only taken on it.
 */
class SpanLog
{
  public:
    struct Span
    {
        std::string name; ///< "<layer>.<call>"
        int parent = -1;
        Clock::time_point start, end;
    };

    /** RAII span; closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanLog *log, std::string name);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        int index() const { return index_; }

      private:
        SpanLog *log_;
        int index_ = -1;
    };

    const std::vector<Span> &spans() const { return spans_; }

    /**
     * Print each layer's self time (span minus children) inside the
     * root span @p root, and the part of the root's wall time that no
     * child span covers.
     */
    void printSelfTimes(int root, const std::string &title) const;

  private:
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * SimTarget decorator: one span named @p span around every call that
 * feeds the wrapped target. A null log makes it a pass-through.
 */
class SpanTarget : public cac::SimTarget
{
  public:
    SpanTarget(std::unique_ptr<cac::SimTarget> inner, SpanLog *log,
               std::string span);

    std::string name() const override { return inner_->name(); }
    cac::TargetKind kind() const override { return inner_->kind(); }
    void accessBatch(const std::uint64_t *addrs, std::size_t n,
                     bool is_write) override;
    void replay(const cac::TraceRecord *recs, std::size_t n) override;
    void finish() override;
    void checkpoint() override { inner_->checkpoint(); }
    void flushPrimary() override { inner_->flushPrimary(); }
    cac::TargetStats stats() const override { return inner_->stats(); }

  private:
    std::unique_ptr<cac::SimTarget> inner_;
    SpanLog *log_;
    std::string span_;
};

/** Span name for replay into a target of @p kind ("core.replay", ...). */
std::string replaySpanName(cac::TargetKind kind);

/**
 * Host reference kernel: fixed work of the kinds the simulator does (a
 * 2-way LRU tag array, a list + hash-map LRU, a sort, a replay loop over
 * an address array into a small cache), written here and
 * not in the engine, so it measures the host and never the code under
 * test, and slows down with the simulator when the host does. Returns
 * its wall seconds.
 */
double referenceKernelSeconds();

/**
 * The reference kernel's wall time on the reference host (x86-64, 4
 * vCPUs with about one core of parallel capacity, unloaded). Host-
 * normalized figures are expressed in seconds of that host.
 */
constexpr double kReferenceNominalSeconds = 0.054;

/**
 * Run @p setup @p reps times (once in a traced run), alternating with
 * the reference kernel and each after an untimed @p prepare, and report
 * setup_s: the median set-up time in reference-host seconds. The last
 * set-up is the one the workload then uses.
 */
template <typename Prepare, typename Setup>
void
timedSetup(const Options &options, Report &report, int reps,
           Prepare prepare, Setup setup)
{
    std::vector<double> raw, norm;
    double ref = referenceKernelSeconds();
    for (int i = 0; i < (options.trace ? 1 : reps); ++i) {
        prepare();
        const auto start = Clock::now();
        setup();
        raw.push_back(secondsSince(start));
        const double before = ref;
        ref = referenceKernelSeconds();
        norm.push_back(raw.back() * 2 * kReferenceNominalSeconds
                       / (before + ref));
    }
    if (!options.trace) {
        report.metric("setup_s", "s", median(norm), norm.size());
        report.metric("setup_s_raw", "s", median(raw), raw.size());
    }
}

} // namespace perfbench

#endif // CAC_PERFBENCH_SUPPORT_HH
